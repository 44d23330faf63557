"""Versioned persistence of fitted :class:`~repro.core.estimator.HTEEstimator`.

An artifact is a directory with two files:

``manifest.json``
    Format marker + version, estimator constructor parameters, the full
    :class:`~repro.core.config.SBRLConfig` as nested JSON, the input
    dimensionality and a summary of the training history.
``arrays.npz``
    Backbone parameters (keys ``param:<qualified name>``), the covariate
    standardisation statistics and, when the framework learns them, the
    per-unit sample weights.

The split keeps the artifact both human-inspectable (the manifest is plain
JSON) and exact (the ``.npz`` stores float64 arrays bit-for-bit, so reloaded
predictions are identical to the in-memory estimator's).

Custom backbones registered into :data:`repro.registry.backbones` round-trip
transparently as long as they are registered again (under the same name)
before :func:`load_estimator` runs.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Any, Dict

import numpy as np

from . import __version__
from .core.backbones import build_backbone
from .core.config import SBRLConfig
from .core.sbrl import SBRLTrainer

__all__ = [
    "FORMAT_NAME",
    "FORMAT_VERSION",
    "MANIFEST_FILENAME",
    "ARRAYS_FILENAME",
    "ArtifactError",
    "save_estimator",
    "load_estimator",
    "read_manifest",
    "artifact_fingerprint",
]

FORMAT_NAME = "repro-hte-estimator"
FORMAT_VERSION = 1
MANIFEST_FILENAME = "manifest.json"
ARRAYS_FILENAME = "arrays.npz"

_PARAM_PREFIX = "param:"


class ArtifactError(RuntimeError):
    """Raised when an artifact is missing, malformed or from the future."""


def save_estimator(estimator, path) -> str:
    """Write ``estimator`` (which must be fitted) to the directory ``path``.

    The directory is created if needed; existing artifact files in it are
    overwritten.  Returns the artifact directory path as a string.
    """
    if not estimator.is_fitted:
        raise RuntimeError("only fitted estimators can be saved; call fit() first")
    trainer: SBRLTrainer = estimator.trainer
    backbone = trainer.backbone
    state = trainer.inference_state()

    path = os.fspath(path)
    os.makedirs(path, exist_ok=True)

    arrays: Dict[str, np.ndarray] = {
        f"{_PARAM_PREFIX}{name}": values for name, values in backbone.state_dict().items()
    }
    arrays["standardize_mean"] = state["standardize_mean"]
    arrays["standardize_std"] = state["standardize_std"]
    if state["sample_weights"] is not None:
        arrays["sample_weights"] = state["sample_weights"]

    manifest: Dict[str, Any] = {
        "format": FORMAT_NAME,
        "format_version": FORMAT_VERSION,
        "library_version": __version__,
        "estimator": {
            "backbone": estimator.backbone_name,
            "framework": estimator.framework,
            # The *resolved* outcome type actually baked into the backbone,
            # not the constructor's possibly-None override.
            "binary_outcome": bool(backbone.binary_outcome),
            "use_balance": estimator.use_balance,
            "use_independence": estimator.use_independence,
            "use_hierarchy": estimator.use_hierarchy,
            "seed": estimator.seed,
        },
        "num_features": int(backbone.num_features),
        # Which weights the saved parameters are: "live" (checkpointed raw
        # parameters) or "ema" (exponential-moving-average snapshot).  An
        # additive manifest key — readers of older artifacts default to
        # "live" — so the format version is unchanged.
        "weights": getattr(trainer, "weights_kind", "live"),
        "config": estimator.config.to_dict(),
        "training_history": {
            "elapsed_seconds": trainer.history.elapsed_seconds,
            "best_iteration": trainer.history.best_iteration,
            "num_evaluations": len(trainer.history.iterations),
        },
    }

    with open(os.path.join(path, MANIFEST_FILENAME), "w", encoding="utf-8") as handle:
        json.dump(manifest, handle, indent=2, sort_keys=True)
        handle.write("\n")
    np.savez(os.path.join(path, ARRAYS_FILENAME), **arrays)
    return path


def read_manifest(path) -> Dict[str, Any]:
    """Read and validate an artifact's manifest (no arrays loaded)."""
    path = os.fspath(path)
    manifest_path = os.path.join(path, MANIFEST_FILENAME)
    if not os.path.isfile(manifest_path):
        raise ArtifactError(f"no estimator artifact at {path!r} (missing {MANIFEST_FILENAME})")
    with open(manifest_path, "r", encoding="utf-8") as handle:
        try:
            manifest = json.load(handle)
        except json.JSONDecodeError as exc:
            raise ArtifactError(f"corrupt manifest in {path!r}: {exc}") from exc
    if manifest.get("format") != FORMAT_NAME:
        raise ArtifactError(
            f"{path!r} is not a {FORMAT_NAME} artifact (format={manifest.get('format')!r})"
        )
    version = manifest.get("format_version")
    if not isinstance(version, int) or version < 1 or version > FORMAT_VERSION:
        raise ArtifactError(
            f"unsupported artifact format_version {version!r}; "
            f"this library reads versions 1..{FORMAT_VERSION}"
        )
    return manifest


def artifact_fingerprint(path) -> str:
    """Content digest of an artifact (manifest + arrays), as a short hex id.

    Two artifacts have the same fingerprint iff their bytes are identical,
    so the serving registry can show exactly which artifact each deployed
    model version was built from (and spot a re-deploy of unchanged bytes).
    The manifest is validated first, so fingerprinting a non-artifact fails
    with the usual :class:`ArtifactError`.
    """
    path = os.fspath(path)
    read_manifest(path)
    digest = hashlib.blake2b(digest_size=16)
    for filename in (MANIFEST_FILENAME, ARRAYS_FILENAME):
        file_path = os.path.join(path, filename)
        if not os.path.isfile(file_path):
            raise ArtifactError(f"artifact at {path!r} is missing {filename}")
        digest.update(filename.encode("utf-8"))
        with open(file_path, "rb") as handle:
            for block in iter(lambda: handle.read(1 << 20), b""):
                digest.update(block)
    return digest.hexdigest()


def _finite(values: np.ndarray) -> bool:
    return values.dtype.kind in "biuf" and bool(np.isfinite(values).all())


def _check_inference_arrays(path, num_features, mean, std, sample_weights) -> None:
    """Reject statistics or weights that would load and then predict wrongly.

    A mean or std of the wrong shape broadcasts silently, and a zero std
    divides to non-finite covariates.  ``CausalDataset.standardize`` saves
    1.0 in place of any std below 1e-12, so no valid artifact holds one.
    """
    for name, values in (("standardize_mean", mean), ("standardize_std", std)):
        if values.shape != (num_features,) or not _finite(values):
            raise ArtifactError(
                f"artifact at {path!r}: {name} must hold {num_features} finite "
                f"values, got shape {values.shape}"
            )
    if (std <= 0).any():
        raise ArtifactError(f"artifact at {path!r}: standardize_std has an entry <= 0")
    if sample_weights is not None and not (
        sample_weights.ndim == 1 and _finite(sample_weights) and (sample_weights >= 0).all()
    ):
        raise ArtifactError(
            f"artifact at {path!r}: sample_weights must be a 1-D array of "
            "finite, non-negative values"
        )


def load_estimator(path, estimator_cls=None):
    """Rebuild a ready-to-predict estimator from a saved artifact.

    ``estimator_cls`` lets :meth:`HTEEstimator.load` reconstruct subclasses;
    it defaults to :class:`~repro.core.estimator.HTEEstimator`.
    """
    from .core.estimator import HTEEstimator  # late import: estimator imports us

    if estimator_cls is None:
        estimator_cls = HTEEstimator
    path = os.fspath(path)
    manifest = read_manifest(path)
    arrays_path = os.path.join(path, ARRAYS_FILENAME)
    if not os.path.isfile(arrays_path):
        raise ArtifactError(f"artifact at {path!r} is missing {ARRAYS_FILENAME}")

    spec = manifest["estimator"]
    try:
        config = SBRLConfig.from_dict(manifest["config"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ArtifactError(f"artifact at {path!r} holds an invalid config: {exc}") from exc
    num_features = int(manifest["num_features"])
    estimator = estimator_cls(
        backbone=spec["backbone"],
        framework=spec["framework"],
        config=config,
        binary_outcome=spec["binary_outcome"],
        use_balance=spec["use_balance"],
        use_independence=spec["use_independence"],
        use_hierarchy=spec["use_hierarchy"],
        seed=spec["seed"],
    )

    with np.load(arrays_path) as arrays:
        state_dict = {
            key[len(_PARAM_PREFIX):]: arrays[key]
            for key in arrays.files
            if key.startswith(_PARAM_PREFIX)
        }
        missing = sorted({"standardize_mean", "standardize_std"} - set(arrays.files))
        if missing:
            raise ArtifactError(f"artifact at {path!r} is missing {', '.join(missing)}")
        standardize_mean = arrays["standardize_mean"]
        standardize_std = arrays["standardize_std"]
        sample_weights = arrays["sample_weights"] if "sample_weights" in arrays.files else None
    _check_inference_arrays(
        path, num_features, standardize_mean, standardize_std, sample_weights
    )

    backbone = build_backbone(
        spec["backbone"],
        num_features=num_features,
        config=config.backbone,
        regularizers=config.regularizers,
        binary_outcome=spec["binary_outcome"],
        rng=np.random.default_rng(spec["seed"]),
    )
    try:
        backbone.load_state_dict(state_dict)
    except (KeyError, ValueError) as exc:
        raise ArtifactError(
            f"artifact at {path!r} does not match the registered "
            f"{spec['backbone']!r} backbone: {exc}"
        ) from exc

    trainer = SBRLTrainer(
        backbone,
        framework=spec["framework"],
        config=config,
        use_balance=spec["use_balance"],
        use_independence=spec["use_independence"],
        use_hierarchy=spec["use_hierarchy"],
    )
    trainer.restore_inference_state(
        standardize_mean, standardize_std, sample_weights=sample_weights
    )
    trainer.weights_kind = manifest.get("weights", "live")
    estimator.trainer = trainer
    return estimator
