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
* **Checkpoint / resume** — each completed unit is appended to a JSONL
  checkpoint; re-running with the same checkpoint path skips completed
  units (failed units are retried), so long grids survive interruption.
* **Content-addressed cache** — with a :class:`~repro.experiments.cache.
  ResultCache`, every unit's outcome is also stored under a blake2b digest
  of its inputs (:func:`~repro.experiments.cache.unit_cache_key`), so
  unchanged cells are skipped across *invocations and machines*, not just
  within one checkpointed run.  Only dirty or failed units hit the pool.
* **Sharding** — ``shard=(k, n)`` restricts execution to the units whose
  stable key hash lands in shard ``k`` of ``n`` (:func:`unit_shard`), so n
  machines can split one grid; their checkpoints carry the *full-grid*
  fingerprint plus the grid's shape and are unioned back together by
  :func:`repro.experiments.scenario_suite.merge_scenario_shards`.

Workers rebuild scenarios from :data:`repro.registry.scenarios` by name, so
custom scenarios must be registered at import time of a module the workers
can import, not interactively, under the ``spawn``/``forkserver`` start
methods.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from collections import OrderedDict
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Dict, IO, List, Mapping, Optional, Sequence, Tuple

from ..metrics.evaluation import EnvironmentReport, StabilityReport
from ..scenarios import build_scenario
from .cache import ResultCache, unit_cache_key
from .runner import MethodResult, MethodSpec, run_method, spawn_replication_seeds

__all__ = [
    "WorkUnit",
    "UnitOutcome",
    "CheckpointError",
    "unit_key",
    "plan_units",
    "parse_shard",
    "unit_shard",
    "shard_units",
    "grid_block",
    "resolve_n_jobs",
    "run_cross_cell",
    "load_shard_checkpoint",
    "serialize_method_result",
    "deserialize_method_result",
]

#: ``kind`` field of the JSONL checkpoint header line.
CHECKPOINT_KIND = "scenario-scheduler-checkpoint"

#: Checkpoint layout version.  Format 2 switched unit keys from ``%g``
#: severity formatting (which truncates to 6 significant digits and can
#: collide two distinct severities into one key) to round-trip-exact
#: ``repr(float(...))``, and added the ``grid``/``shard``/``total_units``
#: header fields that shard merging relies on.  Format-1 files are refused
#: with a clear migration error instead of silently mis-keying units.
CHECKPOINT_FORMAT = 2


def unit_key(scenario: str, severity: float, replication: int, method_index: int) -> str:
    """Stable identifier of one work unit (grouping + checkpoint lines).

    The severity component uses ``repr(float(severity))`` — exact float
    round-trip — because the historical ``f"{severity:g}"`` truncated to 6
    significant digits and could collide two distinct severities into one
    key (and therefore one checkpoint line).
    """
    return (
        f"{scenario}|severity={float(severity)!r}"
        f"|replication={replication}|method={method_index}"
    )


class CheckpointError(ValueError):
    """Raised when a checkpoint file does not match the planned grid."""


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
        """Stable identifier used for grouping and checkpoint lines."""
        return unit_key(self.scenario, self.severity, self.replication, self.method_index)

    @property
    def cache_key(self) -> str:
        """Content-addressed key of this unit's outcome (see ``cache.py``)."""
        return unit_cache_key(self)


@dataclass
class UnitOutcome:
    """Result (or failure) of one work unit.

    ``from_checkpoint`` / ``from_cache`` mark outcomes replayed from a
    resumed JSONL checkpoint or served from the content-addressed result
    cache; ``seconds_saved`` is the recorded compute time a cache hit
    avoided (dataset build + fit + evaluate), and ``build_seconds`` the
    dataset-materialisation time this run actually spent on the unit.
    """

    unit: WorkUnit
    result: Optional[MethodResult] = None
    error: Optional[str] = None
    from_checkpoint: bool = False
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


def grid_block(units: Sequence[WorkUnit]) -> Dict[str, object]:
    """The grid-shape header block shard merging rebuilds cells from.

    Records scenario -> severity lists (plan order), method display names
    (index order), the replication count and the shared sample count/dims.
    JSON round-trips the severity floats exactly, so the keys rebuilt from
    a merged header match the shard checkpoints byte for byte.
    """
    if not units:
        raise ValueError("cannot describe an empty grid")
    scenarios: "OrderedDict[str, List[float]]" = OrderedDict()
    methods: Dict[int, str] = {}
    replications = 0
    for unit in units:
        severities = scenarios.setdefault(unit.scenario, [])
        if unit.severity not in severities:
            severities.append(unit.severity)
        methods[unit.method_index] = unit.spec.name
        replications = max(replications, unit.replication + 1)
    if sorted(methods) != list(range(len(methods))):
        raise ValueError("method indices must be contiguous from 0")
    return {
        "scenarios": {name: list(severities) for name, severities in scenarios.items()},
        "methods": [methods[index] for index in range(len(methods))],
        "replications": replications,
        "num_samples": units[0].num_samples,
        "dims": list(units[0].dims),
    }


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
# Checkpoint serialisation
# ---------------------------------------------------------------------- #
def serialize_method_result(result: MethodResult) -> Dict[str, object]:
    """The JSON shape of one unit result.

    Python's ``json`` round-trips floats exactly (shortest-repr), so a
    resumed grid aggregates to bit-identical cells.  Training history is
    not checkpointed — the suite's aggregates never read it.
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


def deserialize_method_result(
    payload: Mapping[str, object], spec: Optional[MethodSpec]
) -> MethodResult:
    """Inverse of :func:`serialize_method_result` (spec re-attached by key).

    ``spec=None`` is allowed for consumers that only aggregate metrics —
    shard merging rebuilds results from checkpoint records alone, where the
    method is identified by its display name, not a live spec object.
    """
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


def checkpoint_fingerprint(units: Sequence[WorkUnit]) -> str:
    """Digest of the planned grid, pinned in the checkpoint header.

    Covers every unit's key, seed, sample count, dims and the *full* method
    spec (``MethodSpec`` is a dataclass of scalars and nested config
    dataclasses, so its repr captures backbone, framework, ablation flags,
    seed and every training knob), so a checkpoint can only resume the
    exact grid it was written for — not a same-named method trained at a
    different scale.  Sharded runs fingerprint the *full* grid, not their
    slice, which is what lets ``scenarios-merge`` verify that every shard
    came from the same plan.
    """
    lines = sorted(
        f"{unit.key}|{unit.replication_seed}|{unit.num_samples}"
        f"|{unit.dims}|{unit.spec!r}"
        for unit in units
    )
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


def _validate_header(
    header: Mapping[str, object],
    path: str,
    fingerprint: Optional[str] = None,
    shard: Optional[Tuple[int, int]] = None,
) -> None:
    """Shared header checks of resume (:func:`run_cross_cell`) and merge."""
    if header.get("kind") != CHECKPOINT_KIND:
        raise CheckpointError(
            f"{path} is not a scenario-scheduler checkpoint (kind={header.get('kind')!r})"
        )
    if header.get("format") != CHECKPOINT_FORMAT:
        raise CheckpointError(
            f"{path} uses checkpoint format {header.get('format', 1)!r}, this version "
            f"writes format {CHECKPOINT_FORMAT}: unit keys switched from %g severity "
            f"formatting (lossy beyond 6 significant digits) to exact repr(float). "
            f"Delete the old checkpoint or re-run the grid to regenerate it."
        )
    if fingerprint is not None and header.get("fingerprint") != fingerprint:
        raise CheckpointError(
            f"{path} was written for a different grid (seed, scenarios, severities, "
            f"methods, sample count or dims changed); refusing to resume"
        )
    if fingerprint is not None:
        # Resume context: the checkpoint must belong to this exact slice.
        wanted = list(shard) if shard is not None else None
        if header.get("shard", None) != wanted:
            raise CheckpointError(
                f"{path} was written for shard {header.get('shard')} but this run is "
                f"shard {wanted}; resume with the matching --shard (or merge the shard "
                f"checkpoints with 'repro scenarios-merge')"
            )


def _parse_record_lines(lines: Sequence[str]) -> Dict[str, Dict[str, object]]:
    """Unit records from checkpoint body lines, last line per key winning
    (a failed unit retried on resume appends a newer ok record).  Torn
    trailing lines from a killed run are skipped."""
    records: Dict[str, Dict[str, object]] = {}
    for line in lines:
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            # A partially written final line from an interrupted run.
            continue
        key = record.get("key")
        if key is not None:
            records[str(key)] = record
    return records


def _load_checkpoint(
    path: str,
    by_key: Mapping[str, WorkUnit],
    fingerprint: str,
    shard: Optional[Tuple[int, int]],
) -> Dict[str, UnitOutcome]:
    """Completed outcomes from an existing checkpoint (tolerant of a
    truncated trailing line, which is what a killed run leaves behind)."""
    outcomes: Dict[str, UnitOutcome] = {}
    with open(path, "r", encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    if not lines:
        return outcomes
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        raise CheckpointError(f"{path} has an unreadable header line: {exc}") from exc
    _validate_header(header, path, fingerprint=fingerprint, shard=shard)
    for key, record in _parse_record_lines(lines[1:]).items():
        if key not in by_key:
            raise CheckpointError(f"{path} records unknown work unit {key!r}")
        unit = by_key[key]
        if record.get("ok"):
            outcomes[key] = UnitOutcome(
                unit=unit,
                result=deserialize_method_result(record["result"], unit.spec),
                from_checkpoint=True,
                build_seconds=float(record.get("build_seconds", 0.0)),
            )
        # Failed units are retried on resume: only successes are replayed.
    return outcomes


def load_shard_checkpoint(path: str) -> Tuple[Dict[str, object], Dict[str, Dict[str, object]]]:
    """``(header, records_by_key)`` of one checkpoint file, for merging.

    Validates the header's kind and format (not its fingerprint — the
    merge layer compares fingerprints *across* shards) and requires the
    format-2 ``grid`` block, without which cells cannot be rebuilt.
    """
    with open(path, "r", encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    if not lines:
        raise CheckpointError(f"{path} is empty")
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        raise CheckpointError(f"{path} has an unreadable header line: {exc}") from exc
    _validate_header(header, path)
    if not isinstance(header.get("grid"), dict) or "fingerprint" not in header:
        raise CheckpointError(f"{path} has no grid header block; cannot merge it")
    return header, _parse_record_lines(lines[1:])


def _checkpoint_line(handle: IO[str], record: Mapping[str, object]) -> None:
    handle.write(json.dumps(record) + "\n")
    handle.flush()


def _cache_payload(result: MethodResult, build_seconds: float) -> Dict[str, object]:
    return {
        "result": serialize_method_result(result),
        "build_seconds": build_seconds,
    }


def _cached_seconds(payload: Mapping[str, object]) -> float:
    """Recorded compute time a cache hit avoids (build + fit + evaluate)."""
    result = payload.get("result", {})
    return (
        float(payload.get("build_seconds", 0.0))
        + float(result.get("training_seconds", 0.0))
        + float(result.get("evaluate_seconds", 0.0))
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
    checkpoint: Optional[str] = None,
    cache: Optional[ResultCache] = None,
    shard: Optional[Tuple[int, int]] = None,
) -> Dict[str, UnitOutcome]:
    """Run the flattened grid in process (``n_jobs=1``) or through one
    shared worker pool.

    ``units`` is always the *full* planned grid; ``shard=(k, n)`` restricts
    execution to this machine's stable-hash slice while fingerprinting (and
    checkpoint-heading) the whole grid, so shard checkpoints can later be
    verified and unioned.  Returns ``{unit.key: UnitOutcome}`` for every
    unit this invocation is responsible for.  A unit that raises is
    recorded as an error outcome (the grid keeps going).

    With ``checkpoint`` set, every completed unit is appended to the JSONL
    file as it finishes, and an existing matching checkpoint is resumed —
    completed units are replayed from disk instead of recomputed.  With
    ``cache`` set, pending units are first looked up in the
    content-addressed result cache (hits are recorded to the checkpoint
    like computed units, so shard checkpoints stay mergeable), checkpoint
    replays are promoted into the cache, and every fresh success is stored
    under its :func:`~repro.experiments.cache.unit_cache_key`.
    """
    n_jobs = resolve_n_jobs(n_jobs)
    if shard is not None:
        shard = parse_shard(shard)
    _PROTOCOL_CACHE.clear()  # forked workers start empty
    by_key = {unit.key: unit for unit in units}
    if len(by_key) != len(units):
        raise ValueError("work-unit keys must be unique")
    mine = shard_units(units, shard)
    fingerprint = checkpoint_fingerprint(units)

    outcomes: Dict[str, UnitOutcome] = {}
    handle: Optional[IO[str]] = None
    if checkpoint is not None:
        if os.path.exists(checkpoint) and os.path.getsize(checkpoint) > 0:
            outcomes = _load_checkpoint(checkpoint, by_key, fingerprint, shard)
            with open(checkpoint, "rb") as probe:
                probe.seek(-1, os.SEEK_END)
                torn_tail = probe.read(1) != b"\n"
            handle = open(checkpoint, "a", encoding="utf-8")
            if torn_tail:
                # A killed run left a partial final line; terminate it so
                # the next record starts on its own line instead of being
                # concatenated into the fragment (and lost on re-load).
                handle.write("\n")
        else:
            handle = open(checkpoint, "w", encoding="utf-8")
            _checkpoint_line(
                handle,
                {
                    "kind": CHECKPOINT_KIND,
                    "format": CHECKPOINT_FORMAT,
                    "fingerprint": fingerprint,
                    "total_units": len(units),
                    "shard": list(shard) if shard is not None else None,
                    "grid": grid_block(units),
                },
            )

    if cache is not None:
        # Promote checkpoint-replayed results into the cache, so an old
        # (pre-cache) checkpoint seeds the cache for every later grid.
        for outcome in outcomes.values():
            if outcome.ok and outcome.unit.cache_key not in cache:
                cache.put(
                    outcome.unit.cache_key,
                    _cache_payload(outcome.result, outcome.build_seconds),
                )

    def record(
        unit: WorkUnit,
        result: Optional[MethodResult],
        error: Optional[str],
        build_seconds: float = 0.0,
        from_cache: bool = False,
        seconds_saved: float = 0.0,
    ) -> None:
        outcomes[unit.key] = UnitOutcome(
            unit=unit,
            result=result,
            error=error,
            from_cache=from_cache,
            build_seconds=0.0 if from_cache else build_seconds,
            seconds_saved=seconds_saved,
        )
        if handle is not None:
            if error is None:
                payload = {
                    "key": unit.key,
                    "ok": True,
                    "cache_key": unit.cache_key,
                    "build_seconds": build_seconds,
                    "result": serialize_method_result(result),
                }
            else:
                payload = {"key": unit.key, "ok": False, "error": error}
            _checkpoint_line(handle, payload)
        if cache is not None and error is None and not from_cache:
            cache.put(unit.cache_key, _cache_payload(result, build_seconds))

    pending: List[WorkUnit] = []
    for unit in mine:
        if unit.key in outcomes:
            continue
        if cache is not None:
            payload = cache.get(unit.cache_key)
            if payload is not None:
                record(
                    unit,
                    deserialize_method_result(payload["result"], unit.spec),
                    None,
                    build_seconds=float(payload.get("build_seconds", 0.0)),
                    from_cache=True,
                    seconds_saved=_cached_seconds(payload),
                )
                continue
        pending.append(unit)

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
                            "e.g. OOM-killed) — completed units are in the "
                            "checkpoint; rerun with the same checkpoint to "
                            "resume"
                        ) from exc
                    if exc is not None:
                        record(unit, None, f"{type(exc).__name__}: {exc}")
                    else:
                        result, build_seconds = future.result()
                        record(unit, result, None, build_seconds=build_seconds)
    finally:
        _PROTOCOL_CACHE.clear()
        if handle is not None:
            handle.close()
    return outcomes
