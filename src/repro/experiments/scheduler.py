"""Cross-cell scheduler: a cacheable, shardable work-unit pipeline over the
whole scenario grid.

:func:`repro.experiments.run_scenario_suite` runs every grid through this
module.  It flattens the entire ``scenario x severity x replication x
method`` grid into :class:`WorkUnit` records and drives them in process at
``n_jobs=1`` or through a single shared ``ProcessPoolExecutor`` otherwise,
so a full-severity grid keeps every worker busy:

* **Seed parity** — every unit's dataset seed comes from
  :func:`~repro.experiments.runner.spawn_replication_seeds` at plan time,
  and each unit rebuilds its scenario cell from that seed, so a grid is
  bit-for-bit identical at any ``n_jobs`` for a fixed suite seed (pinned
  by ``tests/test_scheduler.py`` and re-checked in CI by the
  scheduler-smoke gate).
* **Failure isolation** — a diverging unit records an error outcome instead
  of killing the grid; the suite reports the cell as an error row.
* **Content-addressed cache** — with a :class:`~repro.experiments.cache.
  ResultCache`, every unit's outcome is stored under a blake2b digest of
  its inputs (:func:`~repro.experiments.cache.unit_cache_key`) as soon as
  it completes, so unchanged units are served from the cache across
  invocations, grids and machines (bitwise what a recompute gives only
  where both ran the same BLAS kernels; see
  :mod:`~repro.experiments.cache`).  The cache is the one store of unit
  outcomes: re-running with the same cache resumes an interrupted grid
  (failed units are retried), and only dirty, failed or missing units
  reach the pool.
* **Sharding** — ``shard=(k, n)`` restricts execution to the units whose
  stable key hash lands in shard ``k`` of ``n`` (:func:`unit_shard`), so n
  machines can split one grid.  Each shard writes into a cache (one shared
  directory, or per-host directories whose entries are copied into one);
  the same run without a shard then assembles the full record from cache
  hits.  Shards from hosts whose BLAS picks other kernels agree with an
  unsharded run within rounding, not bitwise.

Workers rebuild scenarios from :data:`repro.registry.scenarios` by name, so
custom scenarios must be registered at import time of a module the workers
can import, not interactively, under the ``spawn``/``forkserver`` start
methods.
"""

from __future__ import annotations

import hashlib
import os
import time
from collections import OrderedDict
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..metrics.evaluation import EnvironmentReport, StabilityReport
from ..scenarios import build_scenario
from .cache import ResultCache, unit_cache_key
from .runner import MethodResult, MethodSpec, run_method, spawn_replication_seeds

__all__ = [
    "WorkUnit",
    "UnitOutcome",
    "unit_key",
    "plan_units",
    "parse_shard",
    "unit_shard",
    "shard_units",
    "resolve_n_jobs",
    "run_cross_cell",
    "serialize_method_result",
    "deserialize_method_result",
]


def unit_key(scenario: str, severity: float, replication: int, method_index: int) -> str:
    """Stable identifier of one work unit within its grid (outcome lookup
    and shard assignment).

    The severity component uses ``repr(float(severity))`` — exact float
    round-trip — because the historical ``f"{severity:g}"`` truncated to 6
    significant digits and could collide two distinct severities into one
    key (and therefore one outcome).
    """
    return (
        f"{scenario}|severity={float(severity)!r}"
        f"|replication={replication}|method={method_index}"
    )


@dataclass(frozen=True)
class WorkUnit:
    """One schedulable unit: (scenario, severity, replication, method).

    ``replication_seed`` is the :class:`numpy.random.SeedSequence`-spawned
    seed of this unit's replication — the same seed
    :func:`~repro.experiments.runner.run_replications` hands its protocol
    builder, which is what makes a unit's result independent of where and
    when it runs.
    """

    scenario: str
    severity: float
    replication: int
    replication_seed: int
    method_index: int
    spec: MethodSpec
    num_samples: int
    dims: Tuple[int, int, int, int]

    @property
    def key(self) -> str:
        """Stable identifier of this unit within its grid (see :func:`unit_key`)."""
        return unit_key(self.scenario, self.severity, self.replication, self.method_index)

    @property
    def cache_key(self) -> str:
        """Content-addressed key of this unit's outcome (see ``cache.py``)."""
        return unit_cache_key(self)


@dataclass
class UnitOutcome:
    """Result (or failure) of one work unit.

    ``from_cache`` marks an outcome served from the content-addressed
    result cache; ``seconds_saved`` is the recorded compute time that hit
    avoided (dataset build + fit + evaluate), and ``build_seconds`` the
    dataset-materialisation time this run actually spent on the unit.
    """

    unit: WorkUnit
    result: Optional[MethodResult] = None
    error: Optional[str] = None
    from_cache: bool = False
    build_seconds: float = 0.0
    seconds_saved: float = 0.0

    @property
    def ok(self) -> bool:
        """Whether the unit completed without error."""
        return self.error is None


def plan_units(
    scenario_severities: Mapping[str, Sequence[float]],
    specs: Sequence[MethodSpec],
    replications: int,
    seed: int,
    num_samples: int,
    dims: Sequence[int],
) -> List[WorkUnit]:
    """Flatten the grid into work units with plan-time seeds.

    The replication seeds are spawned once from the suite seed — the same
    list for every (scenario, severity) cell, exactly as one
    :func:`run_replications` call per cell would see them.  Inputs that
    would fail every unit (no scenarios, severities or methods, fewer than
    one sample) raise here, before any unit runs.
    """
    if num_samples < 1:
        raise ValueError(f"num_samples must be at least 1, got {num_samples}")
    if not scenario_severities:
        raise ValueError("no scenarios selected")
    if not specs:
        raise ValueError("need at least one method spec")
    seeds = spawn_replication_seeds(seed, replications)
    dims = tuple(int(d) for d in dims)
    units: List[WorkUnit] = []
    for scenario, severities in scenario_severities.items():
        if not severities:
            raise ValueError("need at least one severity")
        for severity in severities:
            for replication, replication_seed in enumerate(seeds):
                for method_index, spec in enumerate(specs):
                    units.append(
                        WorkUnit(
                            scenario=scenario,
                            severity=float(severity),
                            replication=replication,
                            replication_seed=replication_seed,
                            method_index=method_index,
                            spec=spec,
                            num_samples=num_samples,
                            dims=dims,
                        )
                    )
    return units


# ---------------------------------------------------------------------- #
# Sharding
# ---------------------------------------------------------------------- #
def parse_shard(value) -> Tuple[int, int]:
    """Normalise a ``"K/N"`` shard spec (or ``(K, N)`` tuple) to a tuple.

    Shards are 1-based: ``"1/4"`` … ``"4/4"`` split one grid across four
    machines.  Raises :class:`ValueError` on anything else.
    """
    if isinstance(value, str):
        parts = value.split("/")
        if len(parts) != 2:
            raise ValueError(f"shard must look like K/N (e.g. 2/4), got {value!r}")
        try:
            index, count = int(parts[0]), int(parts[1])
        except ValueError:
            raise ValueError(f"shard must look like K/N (e.g. 2/4), got {value!r}") from None
    else:
        try:
            index, count = value
        except (TypeError, ValueError):
            raise ValueError(f"shard must be 'K/N' or a (K, N) pair, got {value!r}") from None
        index, count = int(index), int(count)
    if count < 1 or not 1 <= index <= count:
        raise ValueError(f"shard index must satisfy 1 <= K <= N, got {index}/{count}")
    return index, count


def unit_shard(key: str, shard_count: int) -> int:
    """The 0-based shard a unit key belongs to, out of ``shard_count``.

    A stable blake2b hash of the key — *not* Python's randomised ``hash``
    and *not* the unit's position in the planned list — so the partition is
    identical across processes, machines and invocations, and appending a
    method or scenario to the grid never reshuffles the units that were
    already planned.
    """
    if shard_count < 1:
        raise ValueError("shard_count must be positive")
    digest = hashlib.blake2b(key.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big") % shard_count


def shard_units(units: Sequence[WorkUnit], shard: Optional[Tuple[int, int]]) -> List[WorkUnit]:
    """The subset of ``units`` this shard runs (all of them when ``None``)."""
    if shard is None:
        return list(units)
    index, count = parse_shard(shard)
    return [unit for unit in units if unit_shard(unit.key, count) == index - 1]


#: Per-process memo of recently built protocols.  Several units differ only
#: in their method spec; when the same worker draws them it reuses the
#: build instead of regenerating identical datasets once per method.  The
#: key names the scenario, not its class, so :func:`run_cross_cell` clears
#: the memo when it starts and when it returns: a memo never outlives one
#: run, and a scenario re-registered between runs is rebuilt.
_PROTOCOL_CACHE: "OrderedDict[Tuple, Mapping[str, object]]" = OrderedDict()
_PROTOCOL_CACHE_SIZE = 4


def _build_unit_protocol(unit: WorkUnit) -> Mapping[str, object]:
    key = (unit.scenario, unit.dims, unit.num_samples, unit.severity, unit.replication_seed)
    protocol = _PROTOCOL_CACHE.get(key)
    if protocol is None:
        scenario = build_scenario(unit.scenario, dims=unit.dims)
        cell = scenario.build(
            unit.num_samples, unit.severity, seed=unit.replication_seed % (2 ** 31)
        )
        protocol = cell.as_protocol()
        _PROTOCOL_CACHE[key] = protocol
        while len(_PROTOCOL_CACHE) > _PROTOCOL_CACHE_SIZE:
            _PROTOCOL_CACHE.popitem(last=False)
    else:
        _PROTOCOL_CACHE.move_to_end(key)
    return protocol


def _execute_unit(unit: WorkUnit) -> Tuple[MethodResult, float]:
    """Top-level worker (must be picklable for ProcessPoolExecutor).

    Builds the scenario cell *in the worker* — the build is a pure function
    of ``(scenario, dims, num_samples, severity, seed)``, so the datasets
    are identical wherever the unit runs while dataset construction
    parallelises along with training.  Returns the result plus the
    dataset-materialisation wall-clock (the fit/evaluate stages are timed
    inside :func:`run_method`).
    """
    start = time.perf_counter()
    protocol = _build_unit_protocol(unit)
    build_seconds = time.perf_counter() - start
    result = run_method(
        unit.spec,
        protocol["train"],
        protocol["test_environments"],
        protocol.get("validation"),
    )
    return result, build_seconds


# ---------------------------------------------------------------------- #
# Cache entries
# ---------------------------------------------------------------------- #
def serialize_method_result(result: MethodResult) -> Dict[str, object]:
    """The JSON shape of one unit result, as the result cache stores it.

    Python's ``json`` round-trips floats exactly (shortest-repr), so a
    grid served from the cache aggregates to bit-identical cells.
    Training history is not stored — the suite's aggregates never read it.
    """
    stability = result.stability
    return {
        "per_environment": result.per_environment,
        "stability": {
            "mean": stability.mean,
            "stability": stability.stability,
            "std": stability.std,
            "per_environment": [
                {"environment": report.environment, "metrics": report.metrics}
                for report in stability.per_environment
            ],
        },
        "training_seconds": result.training_seconds,
        "evaluate_seconds": result.evaluate_seconds,
    }


def deserialize_method_result(payload: Mapping[str, object], spec: MethodSpec) -> MethodResult:
    """Inverse of :func:`serialize_method_result` (spec re-attached by key)."""
    stability = payload["stability"]
    return MethodResult(
        spec=spec,
        per_environment={
            str(name): dict(metrics)
            for name, metrics in payload["per_environment"].items()
        },
        stability=StabilityReport(
            mean=dict(stability["mean"]),
            stability=dict(stability["stability"]),
            std=dict(stability["std"]),
            per_environment=[
                EnvironmentReport(
                    environment=str(report["environment"]), metrics=dict(report["metrics"])
                )
                for report in stability["per_environment"]
            ],
        ),
        training_seconds=float(payload["training_seconds"]),
        evaluate_seconds=float(payload.get("evaluate_seconds", 0.0)),
        history={},
    )


def _cached_outcome(unit: WorkUnit, payload: Mapping[str, object]) -> Optional[UnitOutcome]:
    """The outcome a cache entry stores, or ``None`` when the entry parses
    but does not deserialize (a field missing or of the wrong type): such
    an entry is a miss like a torn one, recomputed and overwritten."""
    try:
        result = deserialize_method_result(payload["result"], unit.spec)
        build_seconds = float(payload.get("build_seconds", 0.0))
    except (LookupError, TypeError, ValueError, AttributeError):
        return None
    return UnitOutcome(
        unit=unit,
        result=result,
        from_cache=True,
        seconds_saved=build_seconds + result.training_seconds + result.evaluate_seconds,
    )


def resolve_n_jobs(n_jobs: Optional[int]) -> int:
    """Normalise an ``n_jobs`` argument (``None``/``-1`` mean all cores)."""
    if n_jobs is None or n_jobs == -1:
        return os.cpu_count() or 1
    if n_jobs <= 0:
        raise ValueError("n_jobs must be a positive integer, -1 or None")
    return n_jobs


def run_cross_cell(
    units: Sequence[WorkUnit],
    n_jobs: int = 1,
    cache: Optional[ResultCache] = None,
    shard: Optional[Tuple[int, int]] = None,
) -> Dict[str, UnitOutcome]:
    """Run the flattened grid in process (``n_jobs=1``) or through one
    shared worker pool.

    ``units`` is always the *full* planned grid; ``shard=(k, n)`` restricts
    execution to this machine's stable-hash slice.  Returns
    ``{unit.key: UnitOutcome}`` for every unit this invocation is
    responsible for.  A unit that raises is recorded as an error outcome
    (the grid keeps going).

    With ``cache`` set, every unit is first looked up in the
    content-addressed result cache, and every fresh success is stored
    there as soon as it completes, so re-running with the same cache
    resumes an interrupted grid.  Failed units are not stored, so they are
    retried.  A torn, foreign or undecodable entry is a miss: the unit is
    recomputed and its entry overwritten.
    """
    n_jobs = resolve_n_jobs(n_jobs)
    if shard is not None:
        shard = parse_shard(shard)
    _PROTOCOL_CACHE.clear()  # forked workers start empty
    if len({unit.key for unit in units}) != len(units):
        raise ValueError("work-unit keys must be unique")

    outcomes: Dict[str, UnitOutcome] = {}

    def record(
        unit: WorkUnit,
        result: Optional[MethodResult],
        error: Optional[str],
        build_seconds: float = 0.0,
    ) -> None:
        outcomes[unit.key] = UnitOutcome(
            unit=unit, result=result, error=error, build_seconds=build_seconds
        )
        if cache is not None and error is None:
            cache.put(
                unit.cache_key,
                {"result": serialize_method_result(result), "build_seconds": build_seconds},
            )

    pending: List[WorkUnit] = []
    for unit in shard_units(units, shard):
        payload = cache.get(unit.cache_key) if cache is not None else None
        outcome = _cached_outcome(unit, payload) if payload is not None else None
        if outcome is None:
            pending.append(unit)
        else:
            outcomes[unit.key] = outcome

    try:
        if n_jobs == 1 or len(pending) <= 1:
            for unit in pending:
                try:
                    result, build_seconds = _execute_unit(unit)
                    record(unit, result, None, build_seconds=build_seconds)
                except Exception as exc:  # noqa: BLE001 - failure isolation
                    record(unit, None, f"{type(exc).__name__}: {exc}")
        else:
            with ProcessPoolExecutor(max_workers=min(n_jobs, len(pending))) as pool:
                futures = {pool.submit(_execute_unit, unit): unit for unit in pending}
                for future in as_completed(futures):
                    unit = futures[future]
                    exc = future.exception()
                    if isinstance(exc, BrokenProcessPool):
                        # A dead worker (OOM-kill, segfault) breaks every
                        # pending future — that is an infrastructure
                        # failure, not a diverging cell, so surface it
                        # instead of stamping the rest of the grid as
                        # error rows.
                        raise RuntimeError(
                            "worker pool collapsed (a worker process died, "
                            "e.g. OOM-killed) — with a result cache, the "
                            "completed units are stored; rerun with the same "
                            "cache to resume"
                        ) from exc
                    if exc is not None:
                        record(unit, None, f"{type(exc).__name__}: {exc}")
                    else:
                        result, build_seconds = future.result()
                        record(unit, result, None, build_seconds=build_seconds)
    finally:
        _PROTOCOL_CACHE.clear()
    return outcomes
