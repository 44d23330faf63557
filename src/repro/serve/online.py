"""Drift-aware online serving: stream driver, drift monitor, incremental refit.

This module closes the loop between three subsystems that already exist in
isolation:

* the **temporal-drift scenario** (:mod:`repro.scenarios.library`), which
  mixes the aligned (``rho = 2.5``) and flipped (``rho = -2.5``) biased
  -sampling populations with a time-varying weight;
* the **OOD diagnostics** (:mod:`repro.diagnostics.ood`), which measure how
  far a window of traffic has moved from the training population;
* the **serving tier** (:mod:`repro.serve`), whose registry hot-swaps model
  versions with zero dropped requests.

The pieces:

* :class:`DriftSchedule` describes *when* the population drifts —
  ``recurring`` (square-wave between aligned and drifted regimes),
  ``abrupt`` (a single step change) or ``ramp`` (the temporal-drift
  scenario's linear schedule).
* :func:`drift_stream` replays a schedule as timestamped
  :class:`StreamBatch` request batches with ground truth attached.
* :class:`DriftMonitor` watches a sliding window of served covariates and
  raises a drift signal when the window separates from the training
  population (domain-classifier AUC or moment-shift score over threshold).
  Half-filled windows degrade to an ``"insufficient-window"`` status via the
  diagnostics sentinel instead of raising.
* :class:`OnlineServingLoop` drives traffic through a
  :class:`~repro.serve.server.ServingFrontend`, and on a drift trigger
  warm-refits the estimator on the recent labelled window
  (:meth:`HTEEstimator.refit(window, init="fitted", epochs=k)
  <repro.core.estimator.HTEEstimator.refit>`), rejects the candidate if its
  predictions on that window are not finite, hot-swaps it through the
  registry, and **rolls back automatically** if the post-swap drift score is
  worse than the score that triggered the refit.

See ``docs/online-serving.md`` for the full walkthrough and
``examples/streaming_drift.py`` for a runnable demonstration.
"""

from __future__ import annotations

import copy
import math
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Union

import numpy as np

from ..core.estimator import HTEEstimator
from ..data.dataset import CausalDataset
from ..diagnostics.ood import (
    INSUFFICIENT_WINDOW,
    domain_classifier_auc,
    moment_shift_score,
)
from ..scenarios.base import BASE_DIMS, BASE_TRAIN_RHO, build_scenario, rebuild_dataset
from ..scenarios.library import mix_populations
from .server import ServingFrontend

__all__ = [
    "DriftSchedule",
    "StreamBatch",
    "DriftStream",
    "drift_stream",
    "DriftMonitor",
    "DriftCheck",
    "OnlineServingLoop",
    "OnlineStepRecord",
    "OnlineEvent",
    "OnlineRunReport",
    "concat_datasets",
    "pehe_against_truth",
]

#: Seed offset for the stream driver's row sampling, distinct from the
#: scenario layer's ``+77_009`` so a stream never aliases a scenario build.
_STREAM_SEED_OFFSET = 90_001


# --------------------------------------------------------------------------- #
# Drift schedules
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class DriftSchedule:
    """When and how strongly the serving population drifts.

    ``weights()`` maps each step ``t`` to the probability that a unit at
    that step is drawn from the flipped population (the drift *weight*):

    * ``"recurring"`` — a square wave with period ``period``: the first
      half of each cycle serves the aligned population (weight 0), the
      second half the drifted one (weight ``amplitude``).  This is the
      regime where a refit model goes stale again and the monitor must
      re-fire every cycle.
    * ``"abrupt"`` — weight 0 until ``shift_step``, then ``amplitude``
      forever.  One injection, one recovery.
    * ``"ramp"`` — the temporal-drift scenario's linear schedule
      ``amplitude * t / (num_steps - 1)``.
    """

    kind: str = "recurring"
    num_steps: int = 16
    amplitude: float = 1.0
    period: int = 8
    shift_step: Optional[int] = None

    _KINDS = ("recurring", "abrupt", "ramp")

    def __post_init__(self) -> None:
        if self.kind not in self._KINDS:
            raise ValueError(f"kind must be one of {self._KINDS}, got {self.kind!r}")
        if self.num_steps < 2:
            raise ValueError("num_steps must be at least 2")
        if not 0.0 <= self.amplitude <= 1.0:
            raise ValueError(f"amplitude must be in [0, 1], got {self.amplitude}")
        if self.kind == "recurring" and self.period < 2:
            raise ValueError("recurring schedules need period >= 2")

    @property
    def injected_step(self) -> Optional[int]:
        """First step with a non-zero drift weight (None for ``ramp``).

        ``ramp`` drifts gradually from step 1, so there is no single
        injection point to detect against.
        """
        if self.kind == "recurring":
            return (self.period + 1) // 2
        if self.kind == "abrupt":
            return self.shift_step if self.shift_step is not None else self.num_steps // 2
        return None

    def weights(self) -> tuple:
        """Per-step drift weight, length ``num_steps``."""
        if self.kind == "recurring":
            half = (self.period + 1) // 2
            return tuple(
                self.amplitude if (step % self.period) >= half else 0.0
                for step in range(self.num_steps)
            )
        if self.kind == "abrupt":
            onset = self.injected_step
            return tuple(
                self.amplitude if step >= onset else 0.0 for step in range(self.num_steps)
            )
        return tuple(
            self.amplitude * step / (self.num_steps - 1) for step in range(self.num_steps)
        )


# --------------------------------------------------------------------------- #
# Stream driver
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class StreamBatch:
    """One timestamped request batch with ground truth attached.

    ``dataset`` carries the true potential outcomes so the driver can score
    the served predictions (PEHE per step) and build labelled refit windows;
    a production driver would substitute delayed feedback here.
    """

    step: int
    timestamp: float
    weight: float
    dataset: CausalDataset
    flipped_fraction: float


class DriftStream:
    """A replayable sequence of :class:`StreamBatch` plus the training data.

    Built by :func:`drift_stream`.  Iterating yields the batches in step
    order; ``train`` is the unperturbed training population the initial
    model should be fitted on (and the natural monitor reference).
    """

    def __init__(
        self,
        schedule: DriftSchedule,
        train: CausalDataset,
        batches: Sequence[StreamBatch],
    ) -> None:
        self.schedule = schedule
        self.train = train
        self.batches = list(batches)

    def __iter__(self) -> Iterator[StreamBatch]:
        return iter(self.batches)

    def __len__(self) -> int:
        return len(self.batches)

    def __getitem__(self, index: int) -> StreamBatch:
        return self.batches[index]


def drift_stream(
    schedule: DriftSchedule,
    *,
    num_samples: int = 1000,
    batch_rows: int = 128,
    unstable_shift: float = 1.5,
    seed: int = 0,
    dims: Sequence[int] = BASE_DIMS,
) -> DriftStream:
    """Replay ``schedule`` as timestamped request batches with ground truth.

    The paper's biased-sampling protocol materialises an aligned
    (``rho = 2.5``) and a flipped (``rho = -2.5``) test population; each
    step samples ``batch_rows`` rows from both and mixes them with the
    step's drift weight via
    :func:`~repro.scenarios.library.mix_populations` — the same recombination
    the temporal-drift scenario uses, so offline scenario results and online
    stream results are directly comparable.

    ``unstable_shift`` additionally moves the mean of the **unstable**
    covariate block by that many standard deviations on every drifted-regime
    row.  This is the paper's own drift axis made literal: the unstable
    variables ``V`` are exactly the covariates whose distribution varies
    across environments, and they affect neither potential outcome — so the
    stored ground truth stays valid, estimators that lean on ``V`` degrade,
    and the shift is visible to a marginal drift monitor.  (The bare rho
    flip changes only the selection *direction*, which is nearly invisible
    in covariate marginals; set ``unstable_shift=0.0`` to study that
    harder regime.)
    """
    if batch_rows <= 0:
        raise ValueError("batch_rows must be positive")
    scenario = build_scenario("temporal-drift", dims=dims)
    protocol = scenario.base_protocol(num_samples, seed)
    environments = protocol["test_environments"]
    aligned = environments[BASE_TRAIN_RHO]
    flipped = environments[-BASE_TRAIN_RHO]
    rng = np.random.default_rng(seed + _STREAM_SEED_OFFSET)
    batches: List[StreamBatch] = []
    for step, weight in enumerate(schedule.weights()):
        replace = batch_rows > len(aligned)
        aligned_rows = aligned.subset(
            rng.choice(len(aligned), size=batch_rows, replace=replace),
            environment=f"t={step}",
        )
        flipped_rows = flipped.subset(
            rng.choice(len(flipped), size=batch_rows, replace=replace),
            environment=f"t={step}",
        )
        mixed, from_flipped = mix_populations(
            aligned_rows, flipped_rows, weight, rng, environment=f"t={step}"
        )
        if unstable_shift and from_flipped.any():
            covariates = mixed.covariates.copy()
            unstable = mixed.feature_roles["unstable"]
            covariates[np.ix_(from_flipped, unstable)] += unstable_shift
            mixed = rebuild_dataset(mixed, covariates=covariates)
        batches.append(
            StreamBatch(
                step=step,
                timestamp=float(step),
                weight=float(weight),
                dataset=mixed,
                flipped_fraction=float(from_flipped.mean()),
            )
        )
    return DriftStream(schedule, protocol["train"], batches)


# --------------------------------------------------------------------------- #
# Drift monitor
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class DriftCheck:
    """Outcome of one :meth:`DriftMonitor.check`."""

    step: Optional[int]
    status: str
    domain_auc: float
    moment_score: float
    window_rows: int

    @property
    def triggered(self) -> bool:
        """Whether this check crossed a drift threshold."""
        return self.status == DriftMonitor.STATUS_DRIFT


def _as_matrix(population: Union[CausalDataset, np.ndarray]) -> np.ndarray:
    matrix = (
        population.covariates
        if isinstance(population, CausalDataset)
        else np.asarray(population, dtype=np.float64)
    )
    if matrix.ndim != 2:
        raise ValueError(f"expected a 2-D covariate matrix, got shape {matrix.shape}")
    return matrix


class DriftMonitor:
    """Sliding-window drift detector over served covariates.

    Wraps :func:`~repro.diagnostics.ood.domain_classifier_auc` (and
    optionally :func:`~repro.diagnostics.ood.moment_shift_score`) between a
    fixed **reference** population — the live model's training window — and
    a sliding window of the most recent ``window_size`` served rows.

    :meth:`check` returns a :class:`DriftCheck` whose status is

    * ``"insufficient-window"`` while fewer than ``min_window`` rows have
      been observed (the diagnostics' NaN sentinel path — the monitor keeps
      streaming instead of raising),
    * ``"drift"`` when the domain AUC reaches ``auc_threshold`` (or the
      moment score reaches ``moment_threshold``, when one is set),
    * ``"ok"`` otherwise.

    After a refit the caller rebases the monitor onto the new training
    window with :meth:`rebase`, so subsequent scores measure distance from
    the *current* model's data, not the original one.
    """

    STATUS_OK = "ok"
    STATUS_DRIFT = "drift"
    STATUS_INSUFFICIENT = INSUFFICIENT_WINDOW

    def __init__(
        self,
        reference: Union[CausalDataset, np.ndarray],
        *,
        window_size: int = 256,
        min_window: int = 32,
        auc_threshold: float = 0.75,
        moment_threshold: Optional[float] = None,
        max_reference: int = 2048,
        seed: int = 0,
    ) -> None:
        if window_size <= 0:
            raise ValueError("window_size must be positive")
        if not 1 <= min_window <= window_size:
            raise ValueError("min_window must be in [1, window_size]")
        if not 0.5 <= auc_threshold <= 1.0:
            raise ValueError(f"auc_threshold must be in [0.5, 1], got {auc_threshold}")
        self.window_size = window_size
        self.min_window = min_window
        self.auc_threshold = auc_threshold
        self.moment_threshold = moment_threshold
        self.max_reference = max_reference
        self.seed = seed
        self._rng = np.random.default_rng(seed)
        self._reference = self._subsample(_as_matrix(reference))
        self._chunks: List[np.ndarray] = []
        self._rows = 0

    def _subsample(self, matrix: np.ndarray) -> np.ndarray:
        if len(matrix) == 0:
            raise ValueError("reference population must contain at least one row")
        if len(matrix) > self.max_reference:
            indices = self._rng.choice(len(matrix), size=self.max_reference, replace=False)
            matrix = matrix[indices]
        return np.array(matrix, dtype=np.float64)

    @property
    def reference(self) -> np.ndarray:
        """The (possibly subsampled) reference population matrix."""
        return self._reference

    @property
    def window(self) -> np.ndarray:
        """The current sliding window as one ``(rows, features)`` matrix."""
        if not self._chunks:
            return np.empty((0, self._reference.shape[1]))
        if len(self._chunks) > 1:
            self._chunks = [np.concatenate(self._chunks, axis=0)]
        return self._chunks[0]

    @property
    def window_rows(self) -> int:
        """Rows currently held in the sliding window."""
        return self._rows

    def observe(self, covariates: Union[CausalDataset, np.ndarray]) -> None:
        """Append served rows to the window, evicting the oldest overflow."""
        rows = _as_matrix(covariates)
        if rows.shape[1] != self._reference.shape[1]:
            raise ValueError(
                f"observed rows have {rows.shape[1]} features but the reference "
                f"has {self._reference.shape[1]}"
            )
        self._chunks.append(np.array(rows, dtype=np.float64))
        self._rows += len(rows)
        if self._rows > self.window_size:
            window = self.window  # compacts into one chunk
            self._chunks = [window[-self.window_size :]]
            self._rows = self.window_size

    def check(self, step: Optional[int] = None) -> DriftCheck:
        """Score the current window against the reference population."""
        window = self.window
        auc = domain_classifier_auc(
            self._reference,
            window,
            seed=self.seed,
            min_rows=self.min_window,
            on_insufficient="nan",
        )
        if math.isnan(auc):
            return DriftCheck(
                step=step,
                status=self.STATUS_INSUFFICIENT,
                domain_auc=float("nan"),
                moment_score=float("nan"),
                window_rows=self._rows,
            )
        moments = moment_shift_score(self._reference, window)
        moment_score = float(moments["aggregate"])
        drifted = auc >= self.auc_threshold or (
            self.moment_threshold is not None and moment_score >= self.moment_threshold
        )
        return DriftCheck(
            step=step,
            status=self.STATUS_DRIFT if drifted else self.STATUS_OK,
            domain_auc=float(auc),
            moment_score=moment_score,
            window_rows=self._rows,
        )

    def rebase(
        self,
        reference: Union[CausalDataset, np.ndarray],
        *,
        clear_window: bool = False,
    ) -> None:
        """Swap the reference population (after a refit deploys)."""
        self._reference = self._subsample(_as_matrix(reference))
        if clear_window:
            self._chunks = []
            self._rows = 0


# --------------------------------------------------------------------------- #
# Online serving loop
# --------------------------------------------------------------------------- #
def concat_datasets(datasets: Sequence[CausalDataset], environment: str) -> CausalDataset:
    """Stack row-compatible datasets into one (for refit windows)."""
    if not datasets:
        raise ValueError("need at least one dataset to concatenate")
    first = datasets[0]
    return CausalDataset(
        covariates=np.concatenate([d.covariates for d in datasets], axis=0),
        treatment=np.concatenate([d.treatment for d in datasets]),
        outcome=np.concatenate([d.outcome for d in datasets]),
        mu0=np.concatenate([d.mu0 for d in datasets]),
        mu1=np.concatenate([d.mu1 for d in datasets]),
        environment=environment,
        feature_roles=dict(first.feature_roles),
        binary_outcome=first.binary_outcome,
    )


def pehe_against_truth(predicted_ite: np.ndarray, dataset: CausalDataset) -> float:
    """Root-mean-squared error of predicted ITEs against the true ITEs."""
    predicted_ite = np.asarray(predicted_ite, dtype=np.float64)
    if len(predicted_ite) != len(dataset):
        raise ValueError("prediction/dataset length mismatch")
    return float(np.sqrt(np.mean((predicted_ite - dataset.true_ite) ** 2)))


@dataclass(frozen=True)
class OnlineStepRecord:
    """Per-step accounting of the online loop."""

    step: int
    timestamp: float
    weight: float
    rows: int
    requests: int
    failed_requests: int
    pehe: float
    status: str
    domain_auc: float
    moment_score: float
    action: str  # "none" | "refit" | "rollback" | "rejected"

    def as_dict(self) -> Dict[str, object]:
        """JSON-friendly view of the record."""
        return {
            "step": self.step,
            "timestamp": self.timestamp,
            "weight": self.weight,
            "rows": self.rows,
            "requests": self.requests,
            "failed_requests": self.failed_requests,
            "pehe": self.pehe,
            "status": self.status,
            "domain_auc": self.domain_auc,
            "moment_score": self.moment_score,
            "action": self.action,
        }


@dataclass(frozen=True)
class OnlineEvent:
    """One lifecycle event (drift trigger, refit deploy, rollback, rejected refit)."""

    step: int
    kind: str
    details: Dict[str, object] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, object]:
        """JSON-friendly view of the event."""
        return {"step": self.step, "kind": self.kind, "details": dict(self.details)}


@dataclass
class OnlineRunReport:
    """Everything one :meth:`OnlineServingLoop.run` observed."""

    steps: List[OnlineStepRecord] = field(default_factory=list)
    events: List[OnlineEvent] = field(default_factory=list)

    @property
    def failed_requests(self) -> int:
        """Total failed requests across every step."""
        return sum(record.failed_requests for record in self.steps)

    @property
    def refits(self) -> int:
        """Number of refit deployments that stayed live."""
        return sum(1 for event in self.events if event.kind == "refit")

    @property
    def rollbacks(self) -> int:
        """Number of refits undone by the post-swap guard."""
        return sum(1 for event in self.events if event.kind == "rollback")

    @property
    def rejections(self) -> int:
        """Number of refit candidates never deployed (non-finite predictions)."""
        return sum(1 for event in self.events if event.kind == "refit-rejected")

    @property
    def refit_seconds(self) -> List[float]:
        """Wall-clock of every refit attempt (kept, rolled back or rejected)."""
        return [
            float(event.details["refit_seconds"])
            for event in self.events
            if event.kind in ("refit", "rollback", "refit-rejected")
            and "refit_seconds" in event.details
        ]

    def first_trigger_step(self, after: int = 0) -> Optional[int]:
        """First step at or after ``after`` whose drift check fired."""
        for record in self.steps:
            if record.step >= after and record.status == DriftMonitor.STATUS_DRIFT:
                return record.step
        return None

    def pehe_by_step(self) -> List[float]:
        """Per-step PEHE trace, in step order."""
        return [record.pehe for record in self.steps]

    def as_dict(self) -> Dict[str, object]:
        """JSON-friendly view of the whole run."""
        return {
            "steps": [record.as_dict() for record in self.steps],
            "events": [event.as_dict() for event in self.events],
            "failed_requests": self.failed_requests,
            "refits": self.refits,
            "rollbacks": self.rollbacks,
            "rejections": self.rejections,
            "refit_seconds": self.refit_seconds,
        }


class OnlineServingLoop:
    """Monitor → warm refit → hot swap → (maybe) rollback, over a stream.

    Parameters
    ----------
    frontend:
        The serving frontend traffic flows through.  The loop deploys the
        initial estimator under ``model`` if that name is not yet live.
    estimator:
        The fitted initial model.  The loop never mutates it: refits run on
        a deep copy, so the registry's previous version stays intact for
        rollback.
    monitor:
        A :class:`DriftMonitor` whose reference is the estimator's training
        window.
    refit_epochs:
        Warm-refit budget — the ``epochs=k`` handed to
        :meth:`HTEEstimator.refit`.  Small relative to the cold training
        iterations; the refit-latency/recovery trade is measured by
        ``repro online-bench``.
    refit_window_batches:
        How many of the most recent labelled batches form the refit window.
    cooldown_steps:
        Steps to ignore further triggers after a refit, rollback or
        rejected candidate, so a still-drifted monitor does not re-fire
        every step.  A candidate whose ``mu0``/``mu1`` on the refit window
        are not all finite is rejected before deploy (``refit-rejected``
        event); the live version keeps serving.
    request_rows:
        Rows per submitted request; each stream batch is split into
        ``ceil(batch_rows / request_rows)`` concurrent requests so the
        frontend's coalescing path is actually exercised.
    rollback_margin:
        Slack on the rollback comparison: roll back when
        ``post_auc > trigger_auc + margin``.
    refit_fn:
        Test hook — replaces the default "deep-copy + warm refit" step with
        a custom ``(estimator, window) -> fitted estimator`` callable.
    """

    def __init__(
        self,
        frontend: ServingFrontend,
        estimator: HTEEstimator,
        monitor: DriftMonitor,
        *,
        model: str = "hte",
        refit_epochs: int = 40,
        refit_window_batches: int = 4,
        cooldown_steps: int = 2,
        request_rows: int = 64,
        rollback_margin: float = 0.0,
        refit_fn: Optional[Callable[[HTEEstimator, CausalDataset], HTEEstimator]] = None,
    ) -> None:
        if refit_epochs <= 0:
            raise ValueError("refit_epochs must be positive")
        if refit_window_batches <= 0:
            raise ValueError("refit_window_batches must be positive")
        if request_rows <= 0:
            raise ValueError("request_rows must be positive")
        self.frontend = frontend
        self.estimator = estimator
        self.monitor = monitor
        self.model = model
        self.refit_epochs = refit_epochs
        self.refit_window_batches = refit_window_batches
        self.cooldown_steps = cooldown_steps
        self.request_rows = request_rows
        self.rollback_margin = rollback_margin
        self._refit_fn = refit_fn
        self._labelled: List[CausalDataset] = []
        self._cooldown = 0
        if model not in frontend.registry:
            frontend.deploy(model, estimator)

    # ------------------------------------------------------------------ #
    # Request path
    # ------------------------------------------------------------------ #
    def _serve_batch(self, batch: StreamBatch) -> tuple:
        """Submit one stream batch as concurrent requests; score the answers.

        Returns ``(requests, failed, pehe)``.  PEHE is computed over the
        rows whose requests succeeded; with the registry's drain-on-swap
        contract every request should succeed, and the benchmark gates on
        exactly that.
        """
        matrix = batch.dataset.covariates
        futures = []
        for start in range(0, len(matrix), self.request_rows):
            futures.append(
                self.frontend.submit(matrix[start : start + self.request_rows], model=self.model)
            )
        failed = 0
        predictions: List[np.ndarray] = []
        ok_slices: List[np.ndarray] = []
        offset = 0
        for future in futures:
            rows = min(self.request_rows, len(matrix) - offset)
            indices = np.arange(offset, offset + rows)
            offset += rows
            if future.exception() is not None:
                failed += 1
                continue
            predictions.append(future.result()["ite"])
            ok_slices.append(indices)
        if predictions:
            served = np.concatenate(ok_slices)
            pehe = pehe_against_truth(
                np.concatenate(predictions), batch.dataset.subset(served)
            )
        else:
            pehe = float("nan")
        return len(futures), failed, pehe

    # ------------------------------------------------------------------ #
    # Refit path
    # ------------------------------------------------------------------ #
    def _refit_window(self, step: int) -> CausalDataset:
        recent = self._labelled[-self.refit_window_batches :]
        return concat_datasets(recent, environment=f"window@t={step}")

    def _refit_estimator(self, window: CausalDataset) -> HTEEstimator:
        if self._refit_fn is not None:
            return self._refit_fn(self.estimator, window)
        candidate = copy.deepcopy(self.estimator)
        return candidate.refit(window, init="fitted", epochs=self.refit_epochs)

    def _post_swap_score(self, window: CausalDataset) -> float:
        """Drift score of current traffic against the *new* training window."""
        return domain_classifier_auc(
            window.covariates,
            self.monitor.window,
            seed=self.monitor.seed,
            min_rows=1,
            on_insufficient="nan",
        )

    def _refit_and_swap(self, check: DriftCheck, step: int, report: OnlineRunReport) -> str:
        window = self._refit_window(step)
        report.events.append(
            OnlineEvent(
                step=step,
                kind="drift-detected",
                details={
                    "domain_auc": check.domain_auc,
                    "moment_score": check.moment_score,
                    "window_rows": check.window_rows,
                },
            )
        )
        started = time.perf_counter()
        candidate = self._refit_estimator(window)
        details: Dict[str, object] = {
            "refit_seconds": time.perf_counter() - started,
            "refit_rows": len(window),
            "trigger_auc": check.domain_auc,
        }
        self._cooldown = self.cooldown_steps
        predictions = candidate.predict_potential_outcomes(window.covariates)
        if not all(np.isfinite(predictions[key]).all() for key in ("mu0", "mu1")):
            # Never deploy a candidate that answers NaN/inf: the live
            # version keeps serving and the cooldown spaces the next try.
            report.events.append(OnlineEvent(step=step, kind="refit-rejected", details=details))
            return "rejected"
        version = self.frontend.deploy(self.model, candidate)
        post_auc = self._post_swap_score(window)
        details.update(version=version.version, post_swap_auc=post_auc)
        if not math.isnan(post_auc) and post_auc > check.domain_auc + self.rollback_margin:
            restored = self.frontend.rollback(self.model)
            details["restored_version"] = restored.version
            report.events.append(OnlineEvent(step=step, kind="rollback", details=details))
            return "rollback"
        self.estimator = candidate
        self.monitor.rebase(window.covariates)
        report.events.append(OnlineEvent(step=step, kind="refit", details=details))
        return "refit"

    # ------------------------------------------------------------------ #
    # Main loop
    # ------------------------------------------------------------------ #
    def run(self, stream: Union[DriftStream, Sequence[StreamBatch]]) -> OnlineRunReport:
        """Drive every stream batch through serve → monitor → maybe refit."""
        report = OnlineRunReport()
        for batch in stream:
            requests, failed, pehe = self._serve_batch(batch)
            self._labelled.append(batch.dataset)
            del self._labelled[: -self.refit_window_batches]
            self.monitor.observe(batch.dataset.covariates)
            check = self.monitor.check(batch.step)
            action = "none"
            if check.triggered and self._cooldown == 0:
                action = self._refit_and_swap(check, batch.step, report)
            elif self._cooldown > 0:
                self._cooldown -= 1
            report.steps.append(
                OnlineStepRecord(
                    step=batch.step,
                    timestamp=batch.timestamp,
                    weight=batch.weight,
                    rows=len(batch.dataset),
                    requests=requests,
                    failed_requests=failed,
                    pehe=pehe,
                    status=check.status,
                    domain_auc=check.domain_auc,
                    moment_score=check.moment_score,
                    action=action,
                )
            )
        return report
