"""Experiment harness: protocols, runner, tables, figures and search."""

from .figures import (
    FigureResult,
    figure3_pehe_curves,
    figure4_f1_stability,
    figure5_decorrelation,
    figure6_hyperparameter_sensitivity,
)
from .protocols import (
    SCALES,
    ExperimentScale,
    experiment_config,
    get_scale,
    ihdp_protocol,
    synthetic_protocol,
    twins_protocol,
)
from .cache import ResultCache, default_version_tag, unit_cache_key
from .reporting import format_matrix, format_series, format_table, machine_block, write_record
from .runner import (
    MethodResult,
    MethodSpec,
    default_method_grid,
    run_method,
    run_methods,
    run_replications,
    spawn_replication_seeds,
)
from .scenario_suite import (
    ScenarioCellResult,
    ScenarioSuiteConfig,
    compare_scenario_records,
    degradation_slope,
    format_scenario_suite,
    format_suite_summary,
    merge_scenario_shards,
    run_scenario_suite,
    scenario_cell_metrics,
)
from .scheduler import (
    CheckpointError,
    UnitOutcome,
    WorkUnit,
    parse_shard,
    plan_units,
    resolve_n_jobs,
    run_cross_cell,
    shard_units,
    unit_shard,
)
from .search import SearchSpace, SearchTrial, random_search
from .autodiff_benchmark import benchmark_autodiff
from .online_benchmark import benchmark_online, format_online_benchmark
from .perf_gate import check_perf_regression
from .training_benchmark import benchmark_training
from .tables import (
    TableResult,
    table1_synthetic,
    table2_ablation,
    table3_realworld,
    table6_training_cost,
)

__all__ = [
    "ExperimentScale",
    "SCALES",
    "get_scale",
    "experiment_config",
    "synthetic_protocol",
    "twins_protocol",
    "ihdp_protocol",
    "MethodSpec",
    "MethodResult",
    "run_method",
    "run_methods",
    "run_replications",
    "resolve_n_jobs",
    "spawn_replication_seeds",
    "WorkUnit",
    "UnitOutcome",
    "CheckpointError",
    "plan_units",
    "run_cross_cell",
    "parse_shard",
    "shard_units",
    "unit_shard",
    "ResultCache",
    "unit_cache_key",
    "default_version_tag",
    "benchmark_training",
    "benchmark_autodiff",
    "benchmark_online",
    "format_online_benchmark",
    "check_perf_regression",
    "default_method_grid",
    "TableResult",
    "table1_synthetic",
    "table2_ablation",
    "table3_realworld",
    "table6_training_cost",
    "FigureResult",
    "figure3_pehe_curves",
    "figure4_f1_stability",
    "figure5_decorrelation",
    "figure6_hyperparameter_sensitivity",
    "ScenarioSuiteConfig",
    "ScenarioCellResult",
    "run_scenario_suite",
    "merge_scenario_shards",
    "degradation_slope",
    "format_scenario_suite",
    "format_suite_summary",
    "scenario_cell_metrics",
    "compare_scenario_records",
    "SearchSpace",
    "SearchTrial",
    "random_search",
    "format_table",
    "machine_block",
    "write_record",
    "format_series",
    "format_matrix",
]
