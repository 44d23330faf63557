"""Reproduction of the paper's tables.

Each ``tableN`` function runs the corresponding experiment at a configurable
scale and returns both structured results and a formatted text rendering.
The benchmark scripts in ``benchmarks/`` are thin wrappers around these
functions.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence

import numpy as np

from ..core.config import SBRLConfig
from ..core.estimator import HTEEstimator
from ..data.synthetic import PAPER_BIAS_RATES
from .protocols import (
    ExperimentScale,
    SCALES,
    experiment_config,
    ihdp_protocol,
    synthetic_protocol,
    twins_protocol,
)
from .reporting import format_table
from .runner import MethodResult, MethodSpec, default_method_grid, run_method, run_methods

__all__ = [
    "TableResult",
    "table1_synthetic",
    "table2_ablation",
    "table3_realworld",
    "table6_training_cost",
]


@dataclass
class TableResult:
    """Structured output of one table reproduction."""

    name: str
    rows: List[Dict[str, object]] = field(default_factory=list)
    text: str = ""

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.text


# --------------------------------------------------------------------------- #
# Table I — synthetic data, PEHE and ATE bias per bias rate
# --------------------------------------------------------------------------- #
def table1_synthetic(
    scale: str = "default",
    dims: Sequence[int] = (8, 8, 8, 2),
    bias_rates: Sequence[float] = PAPER_BIAS_RATES,
    metrics: Sequence[str] = ("pehe", "ate_error"),
    seed: int = 2024,
) -> TableResult:
    """Reproduce Table I: the 3x3 method grid evaluated across bias rates."""
    experiment_scale = SCALES[scale] if isinstance(scale, str) else scale
    protocol = synthetic_protocol(dims=dims, scale=experiment_scale, bias_rates=bias_rates, seed=seed)
    config = experiment_config(experiment_scale, seed=seed)
    specs = default_method_grid(config=config, seed=seed)

    environments = {f"rho={rho:g}": dataset for rho, dataset in protocol["test_environments"].items()}
    results = run_methods(specs, protocol["train"], environments)

    table = TableResult(name=f"Table I ({protocol['name']})")
    rows_text: List[List[object]] = []
    headers = ["method"] + [f"rho={rho:g}" for rho in bias_rates]
    for metric in metrics:
        rows_text.append([f"--- {metric} ---"] + ["" for _ in bias_rates])
        for result in results:
            row: Dict[str, object] = {"method": result.name, "metric": metric}
            cells: List[object] = [result.name]
            for rho in bias_rates:
                value = result.per_environment[f"rho={rho:g}"][metric]
                row[f"rho={rho:g}"] = value
                cells.append(value)
            table.rows.append(row)
            rows_text.append(cells)
    table.text = format_table(headers, rows_text, title=table.name)
    return table


# --------------------------------------------------------------------------- #
# Table II — ablation of BR / IR / HAP
# --------------------------------------------------------------------------- #
def table2_ablation(
    scale: str = "default",
    dims: Sequence[int] = (16, 16, 16, 2),
    id_rho: float = 2.5,
    ood_rho: float = -3.0,
    backbone: str = "cfr",
    seed: int = 2024,
) -> TableResult:
    """Reproduce Table II: switch off one of BR / IR / HAP at a time."""
    experiment_scale = SCALES[scale] if isinstance(scale, str) else scale
    protocol = synthetic_protocol(
        dims=dims, scale=experiment_scale, bias_rates=(id_rho, ood_rho), seed=seed
    )
    config = experiment_config(experiment_scale, seed=seed)

    variants = [
        ("IR+HAP (no BR)", dict(use_balance=False, use_independence=True, use_hierarchy=True)),
        ("BR+HAP (no IR)", dict(use_balance=True, use_independence=False, use_hierarchy=True)),
        ("BR+IR (no HAP)", dict(use_balance=True, use_independence=True, use_hierarchy=False)),
        ("BR+IR+HAP (full)", dict(use_balance=True, use_independence=True, use_hierarchy=True)),
    ]
    environments = {
        f"rho={id_rho:g}": protocol["test_environments"][id_rho],
        f"rho={ood_rho:g}": protocol["test_environments"][ood_rho],
    }

    table = TableResult(name=f"Table II (ablation, {protocol['name']})")
    rows_text: List[List[object]] = []
    for label, switches in variants:
        spec = MethodSpec(
            backbone=backbone, framework="sbrl-hap", config=config, seed=seed, label=label, **switches
        )
        result = run_method(spec, protocol["train"], environments)
        row = {
            "variant": label,
            f"pehe_id(rho={id_rho:g})": result.per_environment[f"rho={id_rho:g}"]["pehe"],
            f"pehe_ood(rho={ood_rho:g})": result.per_environment[f"rho={ood_rho:g}"]["pehe"],
        }
        table.rows.append(row)
        rows_text.append(
            [label, row[f"pehe_id(rho={id_rho:g})"], row[f"pehe_ood(rho={ood_rho:g})"]]
        )
    table.text = format_table(
        ["variant", f"PEHE rho={id_rho:g}", f"PEHE rho={ood_rho:g}"],
        rows_text,
        title=table.name,
    )
    return table


# --------------------------------------------------------------------------- #
# Table III — Twins and IHDP
# --------------------------------------------------------------------------- #
def table3_realworld(
    scale: str = "default",
    datasets: Sequence[str] = ("twins", "ihdp"),
    replications: Optional[int] = None,
    seed: int = 2024,
) -> TableResult:
    """Reproduce Table III: PEHE / ATE bias on train / validation / OOD test."""
    experiment_scale = SCALES[scale] if isinstance(scale, str) else scale
    num_replications = replications if replications is not None else experiment_scale.replications
    config = experiment_config(experiment_scale, seed=seed)
    specs = default_method_grid(config=config, seed=seed)

    table = TableResult(name="Table III (real-world data)")
    rows_text: List[List[object]] = []
    headers = [
        "dataset",
        "method",
        "pehe_train",
        "pehe_val",
        "pehe_test",
        "ate_train",
        "ate_val",
        "ate_test",
    ]
    for dataset_name in datasets:
        builder = twins_protocol if dataset_name == "twins" else ihdp_protocol
        accumulators: Dict[str, Dict[str, List[float]]] = {}
        for replication in range(num_replications):
            protocol = builder(scale=experiment_scale, replication=replication, seed=seed + replication)
            results = run_methods(
                specs,
                protocol["train"],
                protocol["test_environments"],
                protocol["validation"],
            )
            for result in results:
                store = accumulators.setdefault(result.name, {})
                for split in ("train", "validation", "test"):
                    store.setdefault(f"pehe_{split}", []).append(
                        result.per_environment[split]["pehe"]
                    )
                    store.setdefault(f"ate_{split}", []).append(
                        result.per_environment[split]["ate_error"]
                    )
        for method_name, store in accumulators.items():
            row: Dict[str, object] = {"dataset": dataset_name, "method": method_name}
            cells: List[object] = [dataset_name, method_name]
            for key in ("pehe_train", "pehe_validation", "pehe_test", "ate_train", "ate_validation", "ate_test"):
                value = float(np.mean(store[key]))
                short = key.replace("validation", "val")
                row[short] = value
                row[short + "_std"] = float(np.std(store[key]))
                cells.append(value)
            table.rows.append(row)
            rows_text.append(cells)
    table.text = format_table(headers, rows_text, title=table.name)
    return table


# --------------------------------------------------------------------------- #
# Table VI — training time per method on IHDP
# --------------------------------------------------------------------------- #
def table6_training_cost(scale: str = "default", seed: int = 2024) -> TableResult:
    """Reproduce Table VI: single-execution training time on IHDP."""
    experiment_scale = SCALES[scale] if isinstance(scale, str) else scale
    protocol = ihdp_protocol(scale=experiment_scale, replication=0, seed=seed)
    config = experiment_config(experiment_scale, seed=seed)
    specs = default_method_grid(config=config, seed=seed)

    table = TableResult(name="Table VI (training time on IHDP, seconds)")
    rows_text: List[List[object]] = []
    for spec in specs:
        result = run_method(
            spec, protocol["train"], {"test": protocol["test_environments"]["test"]}, protocol["validation"]
        )
        row = {"method": result.name, "seconds": result.training_seconds}
        table.rows.append(row)
        rows_text.append([result.name, result.training_seconds])
    table.text = format_table(["method", "seconds"], rows_text, title=table.name)
    return table
