"""Diagonal-covariance Gaussian mixtures: density evaluation, EM training, persistence."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InsufficientDataError, ModelFormatError, read_text
from .features import FeatureMatrix, per_piece_product

MODEL_FORMAT_VERSION = "gmm-v1"
RNG_ALGORITHM = "numpy-pcg64"

WEIGHT_FLOOR = 1e-8
VARIANCE_FLOOR = 1e-6
WEIGHT_SUM_TOL = 1e-9

DEFAULT_MAX_ITER = 200
DEFAULT_TOL = 1e-5


@dataclass
class GmmModel:
    label: str
    dim: int
    weights: np.ndarray
    means: np.ndarray
    variances: np.ndarray
    feature_fingerprint: str

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float64)
        self.means = np.asarray(self.means, dtype=np.float64)
        self.variances = np.asarray(self.variances, dtype=np.float64)

    @property
    def num_components(self) -> int:
        return len(self.weights)

    def validate(self) -> None:
        m = self.num_components
        if self.means.shape != (m, self.dim) or self.variances.shape != (m, self.dim):
            raise ModelFormatError("model parameter shapes disagree")
        if abs(float(np.sum(self.weights)) - 1.0) > WEIGHT_SUM_TOL:
            raise ModelFormatError("mixture weights must sum to 1")
        if np.any(self.weights < WEIGHT_FLOOR):
            raise ModelFormatError(f"mixture weights must be >= {WEIGHT_FLOOR}")
        if np.any(self.variances < VARIANCE_FLOOR):
            raise ModelFormatError(f"variances must be >= {VARIANCE_FLOOR}")
        if not all(np.all(np.isfinite(a)) for a in (self.weights, self.means, self.variances)):
            raise ModelFormatError("model parameters must be finite")


@dataclass
class TrainingReport:
    iterations: int
    log_likelihood_trace: list = field(default_factory=list)
    converged: bool = False
    seed: int = 0


def logsumexp(values: np.ndarray, axis: int) -> np.ndarray:
    """log(sum(exp(values))) along axis, without overflow."""
    values = np.asarray(values, dtype=np.float64)
    peak = np.max(values, axis=axis, keepdims=True)
    peak = np.where(np.isfinite(peak), peak, 0.0)
    out = np.log(np.sum(np.exp(values - peak), axis=axis, keepdims=True)) + peak
    return np.squeeze(out, axis=axis)


def log_component_densities(
    x: np.ndarray, means: np.ndarray, variances: np.ndarray, bounds=None
) -> np.ndarray:
    """Log Gaussian densities, shape (frames, components), diagonal covariance.

    The Mahalanobis term is expanded into matrix products with precisions
    P = 1/variance: sum (x-mu)^2 P = x^2 . P - 2 x . (mu P) + sum mu^2 P.
    The constants are built once per call; bounds splits the rows of stacked
    pieces for the two products (features.per_piece_product), so each
    piece's densities equal its densities computed alone.
    """
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    dim = x.shape[1]
    if means.shape[1] != dim:
        raise ValueError(f"feature dim {dim} does not match model dim {means.shape[1]}")
    precisions = 1.0 / variances
    log_norm = -0.5 * (dim * np.log(2.0 * np.pi) + np.sum(np.log(variances), axis=1))
    scaled_means = means * precisions
    mahal = (
        per_piece_product(x * x, precisions, bounds)
        - 2.0 * per_piece_product(x, scaled_means, bounds)
        + np.sum(means * scaled_means, axis=1)
    )
    return log_norm - 0.5 * mahal


def log_joint_densities(model: GmmModel, rows: np.ndarray, bounds=None) -> np.ndarray:
    """log(w_j) + log N(x | mean_j, variance_j), shape (frames, components)."""
    return log_component_densities(rows, model.means, model.variances, bounds) + np.log(
        model.weights
    )


def _e_step(model: GmmModel, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Posterior memberships (rows sum to 1) and per-frame log-likelihoods."""
    joint = log_joint_densities(model, rows)
    frame_ll = logsumexp(joint, axis=1)
    return np.exp(joint - frame_ll[:, None]), frame_ll


def _m_step(resp: np.ndarray, x: np.ndarray, x_sq: np.ndarray):
    """Floored weights, means and floored variances under memberships resp (n, k)."""
    counts = resp.sum(axis=0)
    safe_counts = np.maximum(counts, 1e-300)[:, None]
    means = (resp.T @ x) / safe_counts
    # E[x^2] - mu^2 under each component's responsibilities
    variances = (resp.T @ x_sq) / safe_counts - means * means
    weights = np.maximum(counts / len(x), WEIGHT_FLOOR)
    return weights / weights.sum(), means, np.maximum(variances, VARIANCE_FLOOR)


def _kmeans_plusplus(x: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = x.shape[0]
    centers = np.empty((k, x.shape[1]))
    centers[0] = x[rng.integers(n)]
    dist_sq = np.sum((x - centers[0]) ** 2, axis=1)
    for i in range(1, k):
        total = dist_sq.sum()
        if total > 0:
            idx = rng.choice(n, p=dist_sq / total)
        else:
            idx = rng.integers(n)
        centers[i] = x[idx]
        dist_sq = np.minimum(dist_sq, np.sum((x - centers[i]) ** 2, axis=1))
    return centers


def _kmeans(x: np.ndarray, k: int, rng: np.random.Generator, max_iter: int = 100):
    """Lloyd iterations from a k-means++ start; every returned cluster is non-empty."""
    centers = _kmeans_plusplus(x, k, rng)
    x_sq = x * x
    sq_norms = np.sum(x_sq, axis=1)[:, None]
    assignment = np.zeros(x.shape[0], dtype=int)
    for _ in range(max_iter):
        distances = sq_norms - 2.0 * (x @ centers.T) + np.sum(centers * centers, axis=1)
        new_assignment = np.argmin(distances, axis=1)
        # re-seed each empty cluster on its own point, farthest from its center
        # first, never taking the last member of another cluster
        sizes = np.bincount(new_assignment, minlength=k)
        farthest = iter(np.argsort(-np.min(distances, axis=1), kind="stable"))
        for j in np.flatnonzero(sizes == 0):
            i = next(i for i in farthest if sizes[new_assignment[i]] > 1)
            sizes[new_assignment[i]] -= 1
            sizes[j] = 1
            new_assignment[i] = j
        centers = _m_step(np.eye(k)[new_assignment], x, x_sq)[1]
        if np.array_equal(new_assignment, assignment):
            break
        assignment = new_assignment
    return centers, assignment


def train(
    features: FeatureMatrix,
    num_components: int,
    seed: int,
    max_iter: int = DEFAULT_MAX_ITER,
    tol: float = DEFAULT_TOL,
    label: str = "",
) -> tuple[GmmModel, TrainingReport]:
    """Fit a mixture by EM from a seeded k-means++ start.

    Deterministic for a given (data, num_components, seed). Raises
    InsufficientDataError when fewer than 2*num_components frames exist, or
    fewer than max(2, num_components) distinct frames (silence, DC).
    """
    x = features.rows
    num_frames, dim = x.shape
    if num_components < 1:
        raise ValueError("num_components must be >= 1")
    if num_frames < 2 * num_components:
        raise InsufficientDataError(
            f"{num_frames} frames cannot support {num_components} components"
        )
    distinct = len(np.unique(x, axis=0))
    if distinct < max(2, num_components):
        raise InsufficientDataError(
            f"{distinct} distinct feature frames cannot support "
            f"{num_components} components"
        )

    rng = np.random.default_rng(seed)
    _, assignment = _kmeans(x, num_components, rng)
    x_sq = x * x
    # EM starts from the M-step of the one-hot k-means memberships
    start = _m_step(np.eye(num_components)[assignment], x, x_sq)
    model = GmmModel(label, dim, *start, features.config_fingerprint)
    trace: list[float] = []
    converged = False
    for _ in range(max_iter):
        resp, frame_ll = _e_step(model, x)
        trace.append(float(np.sum(frame_ll)))
        if len(trace) >= 2 and abs(trace[-1] - trace[-2]) < tol * abs(trace[-1]):
            converged = True
            break
        model.weights, model.means, model.variances = _m_step(resp, x, x_sq)

    model.validate()
    report = TrainingReport(
        iterations=len(trace),
        log_likelihood_trace=trace,
        converged=converged,
        seed=seed,
    )
    return model, report


def _format_floats(values: np.ndarray) -> str:
    return " ".join(f"{v:.17g}" for v in values)


def save_model(model: GmmModel, path) -> None:
    """Write the versioned structured-text model document."""
    model.validate()
    lines = [
        MODEL_FORMAT_VERSION,
        f"label: {model.label}",
        f"dim: {model.dim}",
        f"components: {model.num_components}",
        f"feature_fingerprint: {model.feature_fingerprint}",
        f"rng: {RNG_ALGORITHM}",
        f"weights: {_format_floats(model.weights)}",
    ]
    for j in range(model.num_components):
        lines.append(f"mean {j}: {_format_floats(model.means[j])}")
        lines.append(f"variance {j}: {_format_floats(model.variances[j])}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _parse_floats(text: str, expected: int, what: str) -> np.ndarray:
    parts = text.split()
    if len(parts) != expected:
        raise ModelFormatError(f"{what}: expected {expected} numbers, got {len(parts)}")
    try:
        return np.array([float(p) for p in parts])
    except ValueError as exc:
        raise ModelFormatError(f"{what}: {exc}") from exc


def load_model(path) -> GmmModel:
    """Read a model document, validating version and every invariant."""
    lines = [line for line in read_text(path, ModelFormatError).split("\n") if line.strip()]
    if not lines or lines[0] != MODEL_FORMAT_VERSION:
        raise ModelFormatError(
            f"{path}: expected version line '{MODEL_FORMAT_VERSION}'"
        )

    fields: dict[str, str] = {}
    for line in lines[1:]:
        if ":" not in line:
            raise ModelFormatError(f"{path}: malformed line {line!r}")
        key, value = line.split(":", 1)
        fields[key.strip()] = value.strip()

    try:
        label = fields["label"]
        dim = int(fields["dim"])
        num_components = int(fields["components"])
        fingerprint = fields["feature_fingerprint"]
        weights = _parse_floats(fields["weights"], num_components, "weights")
        means = np.stack(
            [_parse_floats(fields[f"mean {j}"], dim, f"mean {j}") for j in range(num_components)]
        )
        variances = np.stack(
            [
                _parse_floats(fields[f"variance {j}"], dim, f"variance {j}")
                for j in range(num_components)
            ]
        )
    except KeyError as exc:
        raise ModelFormatError(f"{path}: missing field {exc}") from exc
    except ValueError as exc:
        raise ModelFormatError(f"{path}: {exc}") from exc

    model = GmmModel(label, dim, weights, means, variances, fingerprint)
    model.validate()
    return model
