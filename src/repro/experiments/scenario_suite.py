"""Scenario-matrix suite: fan (scenario x severity x method) through the
parallel replication machinery and aggregate degradation profiles.

The suite is the stress-test counterpart of the paper-table harness: for
every registered scenario (:mod:`repro.scenarios`) it sweeps a severity
grid, trains each method spec on the scenario's training population,
evaluates on the scenario's shifted test environments, and summarises each
(scenario, method) pair with *cross-severity degradation slopes* — the
least-squares slope of mean PEHE / ATE error against severity.  A robust
method has a flat profile; a method that silently relies on overlap, full
observability or Gaussian noise does not.

Every run flattens the whole scenario x severity x replication x method
grid into one work-unit queue (:mod:`repro.experiments.scheduler`): in
process at ``n_jobs=1``, over a single shared worker pool otherwise.  The
queue gives per-unit failure isolation, JSONL checkpoint/resume, a
content-addressed result cache (``cache_dir`` — unchanged cells are free
across invocations and machines) and stable-hash sharding
(``shard=(k, n)`` splits one grid across n hosts;
:func:`merge_scenario_shards` unions the shard checkpoints back into one
record).  Every unit's seed is fixed by the plan, so records agree
bit-for-bit at any ``n_jobs`` apart from measured wall-clock.

The suite record carries a ``stages`` block (plan / materialise / fit /
evaluate / aggregate wall-clock) and a ``cache`` block (hits, misses,
seconds saved); :func:`format_suite_summary` renders both as the one-line
summary ``repro scenarios`` prints.

``benchmarks/bench_scenarios.py`` wraps this module as the CI smoke job
(including the parallel-equals-serial gate); ``repro scenarios``
exposes it from the CLI; the committed ``BENCH_scenarios.json`` is a
full-severity run.
"""

from __future__ import annotations

import math
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..registry import scenarios as SCENARIO_REGISTRY
from ..scenarios import Scenario, available_scenarios, build_scenario
from .cache import ResultCache
from .protocols import experiment_config, get_scale
from .reporting import format_table, machine_block
from .runner import MethodSpec, MethodResult
from .scheduler import (
    CheckpointError,
    UnitOutcome,
    deserialize_method_result,
    load_shard_checkpoint,
    parse_shard,
    plan_units,
    run_cross_cell,
    unit_key,
)

__all__ = [
    "ScenarioSuiteConfig",
    "ScenarioCellResult",
    "run_scenario_suite",
    "merge_scenario_shards",
    "degradation_slope",
    "format_scenario_suite",
    "format_suite_summary",
    "scenario_cell_metrics",
    "compare_scenario_records",
    "count_error_cells",
    "report_error_cells",
]


@dataclass
class ScenarioSuiteConfig:
    """Knobs of one scenario-matrix run.

    ``scenario_names=None`` sweeps every registered scenario;
    ``severities=None`` uses each scenario's own default grid.  Methods
    default to the core robustness comparison of the paper: the CFR
    backbone with and without the SBRL-HAP framework.
    """

    scenario_names: Optional[Sequence[str]] = None
    severities: Optional[Sequence[float]] = None
    num_samples: int = 500
    replications: int = 1
    n_jobs: int = 1
    seed: int = 2024
    scale: str = "smoke"
    methods: Optional[Sequence[MethodSpec]] = None
    dims: Tuple[int, int, int, int] = (4, 4, 4, 2)
    #: JSONL checkpoint path of the work-unit queue; an existing
    #: matching checkpoint is resumed, completed units are not recomputed.
    checkpoint: Optional[str] = None
    #: Directory of the content-addressed result cache; unit outcomes are
    #: served from it (and written back to it) keyed by a blake2b digest of
    #: their inputs, so re-runs of unchanged cells cost nothing.
    cache_dir: Optional[str] = None
    #: ``(k, n)`` — run only the units whose stable key hash falls in shard
    #: k of n (1-based).  Requires a checkpoint and/or cache_dir so the
    #: shard's results can be merged or served back later.
    shard: Optional[Tuple[int, int]] = None

    def resolved_scenarios(self) -> List[str]:
        """Scenario names to run (every registered scenario when unset)."""
        if self.scenario_names is None:
            return available_scenarios()
        return [SCENARIO_REGISTRY.resolve(name) for name in self.scenario_names]

    def resolved_methods(self, seed: int) -> List[MethodSpec]:
        """Method grid to run (the default grid when unset)."""
        if self.methods is not None:
            return list(self.methods)
        config = experiment_config(get_scale(self.scale), seed=seed)
        return [
            MethodSpec(backbone="cfr", framework="vanilla", config=config, seed=seed),
            MethodSpec(backbone="cfr", framework="sbrl-hap", config=config, seed=seed),
        ]

    @classmethod
    def from_options(
        cls,
        smoke: bool = False,
        scenario_names: Optional[Sequence[str]] = None,
        severities: Optional[Sequence[float]] = None,
        num_samples: Optional[int] = None,
        replications: int = 1,
        n_jobs: int = 1,
        seed: int = 2024,
        checkpoint: Optional[str] = None,
        cache_dir: Optional[str] = None,
        shard=None,
    ) -> "ScenarioSuiteConfig":
        """The shared CLI / benchmark-script configuration policy.

        ``smoke`` shrinks the defaults of every *unset* knob to a
        seconds-scale run (250 samples, severities {0, 1}, smoke-scale
        training); explicitly passed values always win.  ``shard`` accepts
        a ``"K/N"`` string or a ``(K, N)`` pair.  Both ``repro scenarios``
        and ``benchmarks/bench_scenarios.py`` resolve their arguments
        here, so the two entry points can never drift apart.
        """
        if smoke:
            num_samples = num_samples if num_samples is not None else 250
            severities = severities if severities is not None else (0.0, 1.0)
        else:
            num_samples = num_samples if num_samples is not None else 500
        return cls(
            scenario_names=scenario_names,
            severities=severities,
            num_samples=num_samples,
            replications=replications,
            n_jobs=n_jobs,
            seed=seed,
            scale="smoke" if smoke else "default",
            checkpoint=checkpoint,
            cache_dir=cache_dir,
            shard=parse_shard(shard) if shard is not None else None,
        )


@dataclass
class ScenarioCellResult:
    """Aggregated metrics of one (scenario, severity, method) cell.

    ``error`` is ``None`` for a healthy cell; a cell whose work units
    raised carries the error message and ``None`` metrics instead of
    killing the grid.
    """

    scenario: str
    severity: float
    method: str
    pehe_mean: float
    pehe_std: float
    ate_error_mean: float
    ate_error_std: float
    pehe_stability: float
    training_seconds: float
    replications: int = 1
    per_environment: Dict[str, Dict[str, float]] = field(default_factory=dict)
    error: Optional[str] = None

    def as_dict(self) -> Dict[str, object]:
        """JSON-safe view of the cell (NaN metrics become null)."""
        def clean(value: float) -> Optional[float]:
            # Error rows carry NaN metrics in memory; emit JSON-safe nulls.
            return None if isinstance(value, float) and not math.isfinite(value) else value

        return {
            "scenario": self.scenario,
            "severity": self.severity,
            "method": self.method,
            "pehe_mean": clean(self.pehe_mean),
            "pehe_std": clean(self.pehe_std),
            "ate_error_mean": clean(self.ate_error_mean),
            "ate_error_std": clean(self.ate_error_std),
            "pehe_stability": clean(self.pehe_stability),
            "training_seconds": self.training_seconds,
            "replications": self.replications,
            "per_environment": self.per_environment,
            "error": self.error,
        }


def degradation_slope(severities: Sequence[float], values: Sequence[float]) -> float:
    """Least-squares slope of ``values`` against ``severities``.

    The scalar summary of a degradation profile: 0 means the method is
    unaffected by the perturbation axis, large positive means the error
    grows quickly as the scenario hardens.  With fewer than two distinct
    severities the slope is undefined and reported as 0.
    """
    severities = np.asarray(severities, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    if severities.shape != values.shape:
        raise ValueError("severities and values must have the same length")
    if len(np.unique(severities)) < 2:
        return 0.0
    centred = severities - severities.mean()
    return float(np.dot(centred, values - values.mean()) / np.dot(centred, centred))


def _aggregate_cell(
    scenario: str,
    severity: float,
    method: str,
    results: Sequence[MethodResult],
) -> ScenarioCellResult:
    """Collapse one method's replications of one cell into a result row."""
    pehe = np.array([result.stability.mean["pehe"] for result in results])
    ate = np.array([result.stability.mean["ate_error"] for result in results])
    pehe_stability = np.array([result.stability.stability["pehe"] for result in results])
    seconds = float(np.sum([result.training_seconds for result in results]))
    per_environment: Dict[str, Dict[str, float]] = {}
    for name, metrics in results[0].per_environment.items():
        per_environment[name] = {
            key: float(
                np.mean([result.per_environment[name][key] for result in results])
            )
            for key in ("pehe", "ate_error")
            if key in metrics
        }
    return ScenarioCellResult(
        scenario=scenario,
        severity=severity,
        method=method,
        pehe_mean=float(pehe.mean()),
        pehe_std=float(pehe.std()),
        ate_error_mean=float(ate.mean()),
        ate_error_std=float(ate.std()),
        pehe_stability=float(pehe_stability.mean()),
        training_seconds=seconds,
        replications=len(results),
        per_environment=per_environment,
    )


def _error_cell(
    scenario: str,
    severity: float,
    method: str,
    replications: int,
    error: str,
) -> ScenarioCellResult:
    """An error row: the cell failed but the grid keeps going."""
    nan = float("nan")
    return ScenarioCellResult(
        scenario=scenario,
        severity=severity,
        method=method,
        pehe_mean=nan,
        pehe_std=nan,
        ate_error_mean=nan,
        ate_error_std=nan,
        pehe_stability=nan,
        training_seconds=0.0,
        replications=replications,
        per_environment={},
        error=error,
    )


#: ``get_outcome(scenario, severity, replication, method_index)`` shape the
#: aggregation helper consumes: ``("ok", MethodResult)``, ``("error", msg)``
#: or ``None`` when the unit was not run here (another shard's unit).
_OutcomeGetter = Callable[[str, float, int, int], Optional[Tuple[str, object]]]


def _aggregate_grid(
    scenario_items: Sequence[Tuple[str, Sequence[float]]],
    method_names: Sequence[str],
    replications: int,
    get_outcome: _OutcomeGetter,
    partial: bool = False,
) -> Dict[str, List[ScenarioCellResult]]:
    """Collapse per-unit outcomes into cell rows, shared by live runs and
    shard merging.

    With ``partial=True`` (a sharded run) cells whose units all live in
    other shards are skipped and surviving cells aggregate only the
    replications present here; otherwise a missing unit is a hard error —
    an unsharded grid (or a verified shard union) must be complete.
    """
    cells_by_scenario: Dict[str, List[ScenarioCellResult]] = {}
    for scenario_name, severities in scenario_items:
        cells: List[ScenarioCellResult] = []
        for severity in severities:
            for index, method in enumerate(method_names):
                entries = [
                    (replication, get_outcome(scenario_name, severity, replication, index))
                    for replication in range(replications)
                ]
                present = [(rep, entry) for rep, entry in entries if entry is not None]
                if len(present) != len(entries) and not partial:
                    missing = unit_key(
                        scenario_name,
                        severity,
                        next(rep for rep, entry in entries if entry is None),
                        index,
                    )
                    raise KeyError(f"no outcome for planned work unit {missing!r}")
                if not present:
                    continue  # cell lives entirely in other shards
                errors = [
                    f"replication {rep}: {entry[1]}"
                    for rep, entry in present
                    if entry[0] == "error"
                ]
                if errors:
                    cells.append(
                        _error_cell(
                            scenario_name, severity, method, replications, "; ".join(errors)
                        )
                    )
                else:
                    cells.append(
                        _aggregate_cell(
                            scenario_name,
                            severity,
                            method,
                            [entry[1] for _, entry in present],
                        )
                    )
        cells_by_scenario[scenario_name] = cells
    return cells_by_scenario


def _scenario_records(
    scenario_items: Sequence[Tuple[str, Mapping[str, object], Sequence[float]]],
    method_names: Sequence[str],
    cells_by_scenario: Mapping[str, List[ScenarioCellResult]],
) -> Dict[str, Dict[str, object]]:
    """Per-scenario record blocks (cells + degradation summary), shared by
    live runs and shard merging so both aggregate bit-identically."""
    scenario_records: Dict[str, Dict[str, object]] = {}
    for scenario_name, description, severities in scenario_items:
        cells = cells_by_scenario[scenario_name]
        degradation: Dict[str, Dict[str, Optional[float]]] = {}
        for method in method_names:
            rows = [
                cell
                for cell in cells
                if cell.method == method and cell.error is None
            ]
            rows.sort(key=lambda cell: cell.severity)
            if rows:
                degradation[method] = {
                    "pehe_slope": degradation_slope(
                        [cell.severity for cell in rows], [cell.pehe_mean for cell in rows]
                    ),
                    "ate_error_slope": degradation_slope(
                        [cell.severity for cell in rows],
                        [cell.ate_error_mean for cell in rows],
                    ),
                    # The endpoint anchors are only reported when their cell
                    # actually survived — an errored edge cell must not let
                    # a mid-severity value masquerade as the benign/extreme
                    # baseline.
                    "pehe_at_zero": (
                        rows[0].pehe_mean
                        if rows[0].severity == min(severities)
                        else None
                    ),
                    "pehe_at_max": (
                        rows[-1].pehe_mean
                        if rows[-1].severity == max(severities)
                        else None
                    ),
                }
            else:  # every cell of this method errored (or lives elsewhere)
                degradation[method] = {
                    "pehe_slope": None,
                    "ate_error_slope": None,
                    "pehe_at_zero": None,
                    "pehe_at_max": None,
                }

        scenario_records[scenario_name] = {
            "description": dict(description),
            "severities": list(severities),
            "cells": [cell.as_dict() for cell in cells],
            "degradation": degradation,
        }
    return scenario_records


def _cache_block(
    config: ScenarioSuiteConfig, outcomes: Mapping[str, UnitOutcome]
) -> Dict[str, object]:
    """Cache statistics of one run (zeros when the cache is disabled)."""
    hits = misses = replayed = 0
    seconds_saved = 0.0
    for outcome in outcomes.values():
        if outcome.from_cache:
            hits += 1
            seconds_saved += outcome.seconds_saved
        elif outcome.from_checkpoint:
            replayed += 1
        else:
            misses += 1
    consulted = hits + misses
    return {
        "enabled": config.cache_dir is not None,
        "dir": config.cache_dir,
        "hits": hits,
        "misses": misses,
        "hit_rate": (hits / consulted) if consulted else 0.0,
        "checkpoint_replayed": replayed,
        "seconds_saved": seconds_saved,
    }


def _stage_block(
    plan_seconds: float,
    execute_seconds: float,
    aggregate_seconds: float,
    outcomes: Mapping[str, UnitOutcome],
) -> Dict[str, object]:
    """Per-stage wall-clock of one run.

    ``execute_seconds`` is the end-to-end grid wall-clock; the
    materialise/fit/evaluate components are the summed per-unit stage
    clocks of the units *executed here* (cached and checkpoint replays
    cost nothing and are excluded — their avoided time shows up in the
    cache block's ``seconds_saved`` instead).
    """
    executed = [
        outcome
        for outcome in outcomes.values()
        if outcome.ok and not outcome.from_cache and not outcome.from_checkpoint
    ]
    return {
        "plan_seconds": plan_seconds,
        "execute_seconds": execute_seconds,
        "materialise_seconds": float(sum(outcome.build_seconds for outcome in executed)),
        "fit_seconds": float(sum(outcome.result.training_seconds for outcome in executed)),
        "evaluate_seconds": float(
            sum(outcome.result.evaluate_seconds for outcome in executed)
        ),
        "aggregate_seconds": aggregate_seconds,
    }


def run_scenario_suite(config: Optional[ScenarioSuiteConfig] = None) -> Dict[str, object]:
    """Run the scenario matrix and return one JSON-serialisable record.

    For each scenario and severity, ``config.replications`` independent
    datasets are built (seeded through the replication machinery's
    ``SeedSequence`` spawning) and every method spec is fitted on each.
    The grid is flattened into work units and run by
    :func:`~repro.experiments.scheduler.run_cross_cell` — in process at
    ``n_jobs=1``, over one shared worker pool otherwise: failures isolate
    to error rows, a JSONL checkpoint makes long grids resumable,
    ``cache_dir`` serves unchanged units from the content-addressed result
    cache, and ``shard`` restricts execution to one stable-hash slice of
    the grid — with identical cell metrics every way at a fixed seed.

    The run is staged explicitly — plan (resolve scenarios/methods and
    flatten the grid), materialise + fit/evaluate (the work units), then
    aggregate (cells and degradation slopes) — and each stage's wall-clock
    is reported in the record's ``stages`` block, so a cached re-run that
    only re-aggregates (e.g. after a reporting change) shows its cost
    honestly.
    """
    config = config if config is not None else ScenarioSuiteConfig()
    plan_start = time.perf_counter()
    scenario_names = config.resolved_scenarios()
    specs = config.resolved_methods(config.seed)
    if config.shard is not None and config.checkpoint is None and config.cache_dir is None:
        raise ValueError(
            "sharding needs a checkpoint and/or cache_dir — without one the "
            "shard's results cannot be merged or served back"
        )

    scenarios: Dict[str, Tuple[Scenario, Tuple[float, ...]]] = {}
    for scenario_name in scenario_names:
        scenario = build_scenario(scenario_name, dims=config.dims)
        severities = tuple(
            config.severities if config.severities is not None else scenario.default_severities
        )
        severities = tuple(scenario.check_severity(s) for s in severities)
        scenarios[scenario_name] = (scenario, severities)
    # Rejects an empty grid or a bad sample count before any unit runs.
    units = plan_units(
        {name: severities for name, (_, severities) in scenarios.items()},
        specs,
        replications=config.replications,
        seed=config.seed,
        num_samples=config.num_samples,
        dims=config.dims,
    )
    plan_seconds = time.perf_counter() - plan_start

    execute_start = time.perf_counter()
    outcomes = run_cross_cell(
        units,
        n_jobs=config.n_jobs,
        checkpoint=config.checkpoint,
        cache=ResultCache(config.cache_dir) if config.cache_dir is not None else None,
        shard=config.shard,
    )
    execute_seconds = time.perf_counter() - execute_start

    aggregate_start = time.perf_counter()
    method_names = [spec.name for spec in specs]

    def get_outcome(name: str, severity: float, replication: int, index: int):
        outcome = outcomes.get(unit_key(name, severity, replication, index))
        if outcome is None:
            return None
        if outcome.ok:
            return ("ok", outcome.result)
        return ("error", outcome.error)

    cells_by_scenario = _aggregate_grid(
        [(name, severities) for name, (_, severities) in scenarios.items()],
        method_names,
        config.replications,
        get_outcome,
        partial=config.shard is not None,
    )
    scenario_records = _scenario_records(
        [
            (name, scenario.describe(), severities)
            for name, (scenario, severities) in scenarios.items()
        ],
        method_names,
        cells_by_scenario,
    )
    aggregate_seconds = time.perf_counter() - aggregate_start

    return {
        "benchmark": "scenario-matrix",
        "machine": machine_block(),
        "suite": {
            "num_samples": config.num_samples,
            "replications": config.replications,
            "n_jobs": config.n_jobs,
            "seed": config.seed,
            "scale": config.scale,
            "dims": list(config.dims),
            "methods": method_names,
            "scenarios": scenario_names,
            "checkpoint": config.checkpoint,
            "cache_dir": config.cache_dir,
            "shard": f"{config.shard[0]}/{config.shard[1]}" if config.shard else None,
        },
        "cache": _cache_block(config, outcomes),
        "stages": _stage_block(plan_seconds, execute_seconds, aggregate_seconds, outcomes),
        "scenarios": scenario_records,
    }


def merge_scenario_shards(
    paths: Sequence[str], cache_dir: Optional[str] = None
) -> Dict[str, object]:
    """Union shard checkpoints into one complete suite record.

    Every checkpoint must carry the same full-grid fingerprint (shards of
    one merge must come from one plan — a mismatched file is refused with
    a :class:`CheckpointError`), the union must cover every work unit of
    the grid exactly once (missing units mean a shard has not run yet;
    duplicates mean the same shard was merged twice), and cells plus
    degradation slopes are recomputed from the union through the same
    aggregation helpers the live path uses — so the merged record's cell
    metrics are bit-identical to an unsharded run of the same grid.

    With ``cache_dir`` set, every successful unit record is also promoted
    into the content-addressed result cache under its recorded
    ``cache_key``, so a merge seeds the cache for every later run.
    """
    if not paths:
        raise ValueError("need at least one shard checkpoint")
    start = time.perf_counter()
    headers: List[Tuple[str, Dict[str, object]]] = []
    records: Dict[str, Dict[str, object]] = {}
    origin: Dict[str, str] = {}
    for path in paths:
        header, shard_records = load_shard_checkpoint(path)
        if headers and header["fingerprint"] != headers[0][1]["fingerprint"]:
            raise CheckpointError(
                f"{path} was written for a different grid than {headers[0][0]} "
                f"(fingerprints differ); every shard of one merge must come "
                f"from the same plan"
            )
        headers.append((path, header))
        for key, record in shard_records.items():
            if key in records:
                raise CheckpointError(
                    f"work unit {key!r} appears in both {origin[key]} and "
                    f"{path}; shards must be disjoint (was one shard merged "
                    f"twice?)"
                )
            records[key] = record
            origin[key] = path

    grid = headers[0][1]["grid"]
    method_names = [str(name) for name in grid["methods"]]
    replications = int(grid["replications"])
    scenario_items: List[Tuple[str, List[float]]] = [
        (str(name), [float(severity) for severity in severities])
        for name, severities in grid["scenarios"].items()
    ]
    expected = {
        unit_key(name, severity, replication, index)
        for name, severities in scenario_items
        for severity in severities
        for replication in range(replications)
        for index in range(len(method_names))
    }
    unknown = sorted(set(records) - expected)
    if unknown:
        raise CheckpointError(
            f"merged checkpoints record a unit outside their own grid header "
            f"({unknown[0]!r}); the files are inconsistent"
        )
    missing = sorted(expected - set(records))
    if missing:
        raise CheckpointError(
            f"{len(missing)} of {len(expected)} work units are missing from "
            f"the merged shards (e.g. {missing[0]!r}); run the missing "
            f"shard(s) first"
        )

    def get_outcome(name: str, severity: float, replication: int, index: int):
        record = records[unit_key(name, severity, replication, index)]
        if record.get("ok"):
            return ("ok", deserialize_method_result(record["result"], None))
        return ("error", str(record.get("error")))

    cells_by_scenario = _aggregate_grid(
        scenario_items, method_names, replications, get_outcome
    )
    dims = tuple(int(d) for d in grid["dims"])
    items_with_description: List[Tuple[str, Mapping[str, object], Sequence[float]]] = []
    for name, severities in scenario_items:
        try:
            description = build_scenario(name, dims=dims).describe()
        except Exception:  # noqa: BLE001 - scenario unregistered on this host
            description = {"name": name, "axis": "unknown"}
        items_with_description.append((name, description, severities))
    scenario_records = _scenario_records(
        items_with_description, method_names, cells_by_scenario
    )

    promoted = 0
    if cache_dir is not None:
        cache = ResultCache(cache_dir)
        for record in records.values():
            cache_key = record.get("cache_key")
            if record.get("ok") and cache_key and str(cache_key) not in cache:
                cache.put(
                    str(cache_key),
                    {
                        "result": record["result"],
                        "build_seconds": float(record.get("build_seconds", 0.0)),
                    },
                )
                promoted += 1

    aggregate_seconds = time.perf_counter() - start
    return {
        "benchmark": "scenario-matrix",
        "machine": machine_block(),
        "suite": {
            "num_samples": grid["num_samples"],
            "replications": replications,
            "dims": list(grid["dims"]),
            "methods": method_names,
            "scenarios": [name for name, _ in scenario_items],
            "checkpoint": None,
            "cache_dir": cache_dir,
            "shard": None,
            "merged_from": [str(path) for path in paths],
            "fingerprint": headers[0][1]["fingerprint"],
        },
        "cache": {
            "enabled": cache_dir is not None,
            "dir": cache_dir,
            "promoted": promoted,
        },
        "stages": {"aggregate_seconds": aggregate_seconds},
        "scenarios": scenario_records,
    }


def format_scenario_suite(result: Mapping[str, object]) -> str:
    """Human-readable tables: one per scenario plus a degradation summary."""
    sections: List[str] = []
    for name, record in result["scenarios"].items():
        rows = [
            [
                cell["method"],
                cell["severity"],
                "ERROR" if cell.get("error") else cell["pehe_mean"],
                "ERROR" if cell.get("error") else cell["ate_error_mean"],
                cell["training_seconds"],
            ]
            for cell in record["cells"]
        ]
        sections.append(
            format_table(
                ["method", "severity", "PEHE", "ATE bias", "train s"],
                rows,
                title=f"Scenario: {name} ({record['description']['axis']})",
            )
        )
    summary_rows = [
        [
            name,
            method,
            slopes["pehe_slope"],
            slopes["ate_error_slope"],
            slopes["pehe_at_zero"],
            slopes["pehe_at_max"],
        ]
        for name, record in result["scenarios"].items()
        for method, slopes in record["degradation"].items()
    ]
    sections.append(
        format_table(
            ["scenario", "method", "PEHE slope", "ATE slope", "PEHE@0", "PEHE@max"],
            summary_rows,
            title="Cross-severity degradation (least-squares slope vs severity)",
        )
    )
    return "\n".join(sections)


def format_suite_summary(result: Mapping[str, object]) -> str:
    """Per-stage wall-clock and cache statistics of one suite record.

    One line per block, suitable for printing after the tables — cache
    wins and stage costs are visible without opening the JSON.  Records
    without the blocks (old files) format to an empty string.
    """
    lines: List[str] = []
    stages = result.get("stages") or {}
    parts: List[str] = []
    for label, key in (
        ("plan", "plan_seconds"),
        ("execute", "execute_seconds"),
        ("aggregate", "aggregate_seconds"),
    ):
        value = stages.get(key)
        if value is None:
            continue
        text = f"{label} {value:.2f}s"
        if label == "execute" and stages.get("fit_seconds") is not None:
            text += (
                f" (materialise {stages['materialise_seconds']:.2f}s, "
                f"fit {stages['fit_seconds']:.2f}s, "
                f"evaluate {stages['evaluate_seconds']:.2f}s)"
            )
        parts.append(text)
    if parts:
        lines.append("stages: " + " | ".join(parts))
    cache = result.get("cache") or {}
    if cache.get("enabled"):
        pieces: List[str] = []
        if "hits" in cache:
            pieces.append(
                f"{cache['hits']} hits / {cache['misses']} misses "
                f"({cache.get('hit_rate', 0.0):.0%} hit rate), "
                f"{cache.get('seconds_saved', 0.0):.2f}s saved"
            )
        if cache.get("checkpoint_replayed"):
            pieces.append(f"{cache['checkpoint_replayed']} replayed from checkpoint")
        if cache.get("promoted") is not None:
            pieces.append(f"{cache['promoted']} promoted into the cache")
        if pieces:
            lines.append("cache: " + ", ".join(pieces))
    return "\n".join(lines)


def count_error_cells(record: Mapping[str, object]) -> Tuple[int, int]:
    """``(error_cells, total_cells)`` of a suite record.

    Failure isolation means a grid full of diverging cells still returns a
    record; the CLI and benchmark entry points use this count (via
    :func:`report_error_cells`) to warn on partial failure and exit
    non-zero when *every* cell failed (e.g. a custom scenario that spawned
    workers cannot import).
    """
    errors = 0
    total = 0
    for scenario_record in record["scenarios"].values():
        for cell in scenario_record["cells"]:
            total += 1
            if cell.get("error"):
                errors += 1
    return errors, total


def report_error_cells(record: Mapping[str, object], stream=None) -> int:
    """Warn about error cells on ``stream`` (default stderr); returns the
    exit code both entry points share: 1 when every cell failed, else 0."""
    stream = stream if stream is not None else sys.stderr
    errors, total = count_error_cells(record)
    if not errors:
        return 0
    print(
        f"warning: {errors}/{total} cells reported errors "
        f"(see the 'error' field of each cell)",
        file=stream,
    )
    if errors == total:
        print("error: every cell in the grid failed", file=stream)
        return 1
    return 0


def scenario_cell_metrics(record: Mapping[str, object]) -> Dict[str, Dict[str, object]]:
    """Every cell of a suite record, keyed and with wall-clock stripped.

    This is the canonical "did two runs compute the same thing" view: a
    parallel run must reproduce a serial one bit-for-bit except for
    ``training_seconds``, which is measured wall-clock and therefore
    machine noise.
    """
    rows: Dict[str, Dict[str, object]] = {}
    for name, scenario_record in record["scenarios"].items():
        for cell in scenario_record["cells"]:
            # repr round-trips exactly; the historical %g formatting could
            # collide two severities differing past 6 significant digits.
            key = f"{name}|severity={float(cell['severity'])!r}|method={cell['method']}"
            rows[key] = {
                field_name: value
                for field_name, value in cell.items()
                if field_name != "training_seconds"
            }
    return rows


def compare_scenario_records(
    a: Mapping[str, object], b: Mapping[str, object]
) -> List[str]:
    """Differences between two suite records' cell metrics (empty = equal).

    Compares every (scenario, severity, method) cell field-by-field —
    excluding measured wall-clock — plus the degradation summaries, and
    returns human-readable difference descriptions.  Used by the pytest
    parallel==serial regression and by ``bench_scenarios.py
    --check-against`` (the CI scheduler-smoke gate).
    """
    differences: List[str] = []
    rows_a = scenario_cell_metrics(a)
    rows_b = scenario_cell_metrics(b)
    for key in sorted(set(rows_a) | set(rows_b)):
        if key not in rows_a:
            differences.append(f"{key}: missing from first record")
            continue
        if key not in rows_b:
            differences.append(f"{key}: missing from second record")
            continue
        row_a, row_b = rows_a[key], rows_b[key]
        for field_name in sorted(set(row_a) | set(row_b)):
            if row_a.get(field_name) != row_b.get(field_name):
                differences.append(
                    f"{key}: {field_name} differs "
                    f"({row_a.get(field_name)!r} != {row_b.get(field_name)!r})"
                )
    scenarios_a = a.get("scenarios", {})
    scenarios_b = b.get("scenarios", {})
    for name in sorted(set(scenarios_a) | set(scenarios_b)):
        degradation_a = scenarios_a.get(name, {}).get("degradation")
        degradation_b = scenarios_b.get(name, {}).get("degradation")
        if degradation_a != degradation_b:
            differences.append(f"{name}: degradation summary differs")
    return differences
