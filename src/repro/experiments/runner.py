"""Experiment runner: train one method, evaluate it on a suite of populations.

The runner is the shared engine behind every table and figure reproduction:
it builds an estimator from a :class:`MethodSpec`, fits it on the training
population and evaluates it on each test environment, returning a
:class:`MethodResult` with per-environment metrics and stability aggregates.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence

import numpy as np

from ..core.config import SBRLConfig
from ..core.estimator import HTEEstimator
from ..data.dataset import CausalDataset
from ..metrics.evaluation import EnvironmentReport, StabilityReport, aggregate_across_environments
from ..registry import backbones as BACKBONE_REGISTRY
from ..registry import frameworks as FRAMEWORK_REGISTRY

__all__ = [
    "MethodSpec",
    "MethodResult",
    "run_method",
    "run_methods",
    "run_replications",
    "spawn_replication_seeds",
    "default_method_grid",
]


@dataclass
class MethodSpec:
    """Declarative description of one method to run.

    ``backbone`` and ``framework`` mirror :class:`HTEEstimator`;
    the ablation switches map to the Table II experiment.
    """

    backbone: str = "cfr"
    framework: str = "vanilla"
    config: Optional[SBRLConfig] = None
    use_balance: bool = True
    use_independence: bool = True
    use_hierarchy: bool = True
    seed: int = 2024
    label: Optional[str] = None

    @property
    def name(self) -> str:
        """Display label (registry display names unless ``label`` overrides)."""
        if self.label is not None:
            return self.label
        # Resolve the display names through the registries so backbones and
        # frameworks plugged in by user code are labelled correctly (the
        # historical hardcoded dict raised KeyError for them).
        backbone = BACKBONE_REGISTRY.display_name(self.backbone)
        framework_spec = FRAMEWORK_REGISTRY.get(self.framework)
        if not framework_spec.uses_weights:
            return backbone
        return f"{backbone}+{framework_spec.display_name}"

    def build(self) -> HTEEstimator:
        """Construct the estimator this spec describes."""
        return HTEEstimator(
            backbone=self.backbone,
            framework=self.framework,
            config=self.config,
            use_balance=self.use_balance,
            use_independence=self.use_independence,
            use_hierarchy=self.use_hierarchy,
            seed=self.seed,
        )


@dataclass
class MethodResult:
    """Training + evaluation output of one method on one protocol."""

    spec: MethodSpec
    per_environment: Dict[str, Dict[str, float]]
    stability: StabilityReport
    training_seconds: float
    #: Wall-clock of the evaluation stage (all test environments), kept
    #: separate from ``training_seconds`` so the scenario suite can report
    #: per-stage timings (materialise / fit / evaluate / aggregate).
    evaluate_seconds: float = 0.0
    history: Dict[str, list] = field(default_factory=dict)

    @property
    def name(self) -> str:
        """The spec's display label."""
        return self.spec.name

    def metric(self, environment: str, key: str) -> float:
        """Convenience accessor, e.g. ``result.metric("rho=-3", "pehe")``."""
        return self.per_environment[environment][key]


def run_method(
    spec: MethodSpec,
    train: CausalDataset,
    test_environments: Mapping[str, CausalDataset],
    validation: Optional[CausalDataset] = None,
) -> MethodResult:
    """Fit one method and evaluate it on every test environment."""
    if not test_environments:
        raise ValueError("need at least one test environment")
    estimator = spec.build()
    start = time.perf_counter()
    estimator.fit(train, validation)
    training_seconds = time.perf_counter() - start
    per_environment: Dict[str, Dict[str, float]] = {}
    reports: List[EnvironmentReport] = []
    start = time.perf_counter()
    for name, dataset in test_environments.items():
        metrics = estimator.evaluate(dataset)
        per_environment[str(name)] = metrics
        reports.append(EnvironmentReport(environment=str(name), metrics=metrics))
    stability = aggregate_across_environments(reports)
    evaluate_seconds = time.perf_counter() - start
    return MethodResult(
        spec=spec,
        per_environment=per_environment,
        stability=stability,
        training_seconds=training_seconds,
        evaluate_seconds=evaluate_seconds,
        history=estimator.training_history().as_dict(),
    )


def run_methods(
    specs: Sequence[MethodSpec],
    train: CausalDataset,
    test_environments: Mapping[str, CausalDataset],
    validation: Optional[CausalDataset] = None,
) -> List[MethodResult]:
    """Run a list of methods on the same protocol, in process and in order.

    Grids that need a worker pool go through
    :func:`repro.experiments.run_scenario_suite` (``n_jobs``), whose one
    pool is :func:`repro.experiments.scheduler.run_cross_cell`.
    """
    return [run_method(spec, train, test_environments, validation) for spec in specs]


def spawn_replication_seeds(seed: int, replications: int) -> List[int]:
    """Independent, deterministic per-replication seeds.

    Uses :class:`numpy.random.SeedSequence` spawning, so the seeds are
    statistically independent streams (unlike ``seed + i`` offsets) while
    remaining a pure function of ``(seed, replications)`` — serial and
    parallel execution see exactly the same seeds.
    """
    if replications <= 0:
        raise ValueError("replications must be positive")
    children = np.random.SeedSequence(seed).spawn(replications)
    return [int(child.generate_state(1)[0]) for child in children]


def run_replications(
    specs: Sequence[MethodSpec],
    protocol_builder: Callable[[int, int], Mapping[str, object]],
    replications: int,
    seed: int = 2024,
) -> List[List[MethodResult]]:
    """Run a method grid over several dataset replications, in process.

    ``protocol_builder(replication_index, replication_seed)`` must return a
    mapping with ``"train"``, ``"test_environments"`` and optionally
    ``"validation"`` (the shape produced by the protocol helpers and
    :func:`repro.data.load_benchmark`), seeded by
    :func:`spawn_replication_seeds`.  Returns one ``List[MethodResult]``
    per replication, in replication order.  Scenario grids that need a
    worker pool go through :func:`repro.experiments.run_scenario_suite`.
    """
    seeds = spawn_replication_seeds(seed, replications)
    protocols = [
        protocol_builder(replication, replication_seed)
        for replication, replication_seed in enumerate(seeds)
    ]
    return [
        [
            run_method(
                spec,
                protocol["train"],
                protocol["test_environments"],
                protocol.get("validation"),
            )
            for spec in specs
        ]
        for protocol in protocols
    ]


def default_method_grid(
    config: Optional[SBRLConfig] = None,
    backbones: Sequence[str] = ("tarnet", "cfr", "dercfr"),
    frameworks: Sequence[str] = ("vanilla", "sbrl", "sbrl-hap"),
    seed: int = 2024,
) -> List[MethodSpec]:
    """The paper's 3x3 method grid: {TARNet, CFR, DeR-CFR} x {vanilla, +SBRL, +SBRL-HAP}.

    For TARNet the Balancing Regularizer is disabled (the paper only adds the
    Independence Regularizer to TARNet since it has no balance term).
    """
    specs: List[MethodSpec] = []
    for backbone in backbones:
        for framework in frameworks:
            use_balance = backbone.lower() != "tarnet"
            specs.append(
                MethodSpec(
                    backbone=backbone,
                    framework=framework,
                    config=config,
                    use_balance=use_balance,
                    seed=seed,
                )
            )
    return specs
