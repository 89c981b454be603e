"""Diagonal-covariance Gaussian mixtures: density evaluation, EM training, persistence.

Every exponential of training and scoring goes through _exp, which returns
np.exp bit for bit but keeps it on numpy's vector fast path. np.exp leaves
that path for arguments whose results are subnormal or zero, and many
E-step memberships are: a 16-component fit to 24 takes of one word ends
with 36-76% of them 0 and 0.7-2.4% subnormal (4 components: 4-25% and up to
3%). On an AVX-512 host, np.exp of 24,192 values took 31 us at -700, 546 us
at -708 or below, and 5,230 us at -710 (subnormal results). _exp zeroes the
results that round to 0 by multiplying them with a mask in place.

Each train call runs k-means and EM in one workspace of two (frames,
components) buffers (_workspace): k-means' distances and one-hot assignment,
then each E-step's joint densities and memberships. No iteration allocates
a float array of that shape (_exp's boolean masks are the ones left), and
every operation keeps its order. Lloyd iterations compute only the M-step
means; the full M-step runs once, on the final assignment.

Exactness rule: every output stays bit-identical to the plain EM loop kept
in the tests (np.exp, np.max, x*x on every iteration). These shortcuts were
measured and are NOT exact, so they are not used: x @ np.ascontiguousarray(M.T)
(last bits differ under OpenBLAS); one stacked M-step product
resp.T @ [x, x*x] (differs, and is slower); EM laid out components first
(models drift by up to 4.4e-10 relative); flushing subnormal memberships to
zero (it moves the mean of a dead component).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InsufficientDataError, ModelFormatError, read_text
from .features import FeatureMatrix

MODEL_FORMAT_VERSION = "gmm-v1"
RNG_ALGORITHM = "numpy-pcg64"

WEIGHT_FLOOR = 1e-8
VARIANCE_FLOOR = 1e-6
WEIGHT_SUM_TOL = 1e-9

DEFAULT_MAX_ITER = 200
DEFAULT_TOL = 1e-5

# exp of every argument at or above this is a normal number (the smallest
# normal double, 2**-1022, is exp(-708.4)), which np.exp computes on its fast path
EXP_FAST_FLOOR = -700.0
# exp of every argument at or below this rounds to +0.0 (anything under
# log(2**-1075) = -745.13, half the smallest subnormal)
EXP_ZERO_CEILING = -746.0


def check_label(label: str) -> None:
    """Raise ModelFormatError for a label a model file would not load back as written."""
    if label != label.strip() or "\n" in label or "\r" in label:
        raise ModelFormatError(f"label {label!r} would not load back as written")


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
        check_label(self.label)
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


def _exp(values: np.ndarray, out=None) -> np.ndarray:
    """np.exp(values) bit for bit, without np.exp's slow path for tiny results.

    Arguments below EXP_FAST_FLOOR are raised to it for the vector pass;
    the results of those at or below EXP_ZERO_CEILING are then zeroed by
    multiplying them with a mask in place (a masked np.copyto took a third
    of the call), and the few in between are recomputed by np.exp itself.
    NaN and +-inf pass through. out, when given, takes the result, and may
    be values itself: the masks and the arguments in between are read first.
    """
    low = values < EXP_FAST_FLOOR
    if not low.any():
        return np.exp(values, out=out)
    keep = values > EXP_ZERO_CEILING
    between = low & keep  # arguments in (EXP_ZERO_CEILING, EXP_FAST_FLOOR)
    tiny = np.exp(values[between]) if between.any() else None
    out = np.maximum(values, EXP_FAST_FLOOR, out=out)
    np.exp(out, out=out)
    np.multiply(out, keep, out=out)
    if tiny is not None:
        out[between] = tiny
    return out


def logsumexp(values: np.ndarray, shifted=None) -> np.ndarray:
    """log(sum(exp(row))) of each row of a 2-D array, without overflow.

    The row peak is a column-by-column np.maximum, exact in any order and
    several times faster than np.max(axis=1) on a few columns. The row sums
    stay np.sum(axis=1): numpy sums rows of 8 or more pairwise, so a column
    loop would change the last bits. shifted, when given, is a buffer of
    values' shape that takes each row less its peak, then their exponentials.
    """
    values = np.asarray(values, dtype=np.float64)
    peak = values[:, 0].copy()
    for column in values.T[1:]:
        np.maximum(peak, column, out=peak)
    peak = np.where(np.isfinite(peak), peak, 0.0)
    shifted = np.subtract(values, peak[:, None], out=shifted)
    return np.log(np.sum(_exp(shifted, out=shifted), axis=1)) + peak


def density_constants(model: GmmModel) -> tuple:
    """The terms of log_joint_densities that depend on the model alone.

    A caller that scores many blocks against one model builds them once and
    passes them to each call.
    """
    precisions = 1.0 / model.variances
    dim = model.means.shape[1]
    log_norm = -0.5 * (dim * np.log(2.0 * np.pi) + np.sum(np.log(model.variances), axis=1))
    scaled_means = model.means * precisions
    return (
        log_norm, precisions, scaled_means, np.sum(model.means * scaled_means, axis=1),
        np.log(model.weights),
    )


def log_joint_densities(
    model: GmmModel, rows: np.ndarray, squared: np.ndarray, constants=None, out=None, scratch=None
) -> np.ndarray:
    """log(w_j) + log N(x | mean_j, variance_j), shape (frames, components).

    Classification, EM's log-likelihoods and its memberships all score here.
    The Mahalanobis term is expanded into matrix products with precisions
    P = 1/variance: sum (x-mu)^2 P = x^2 . P - 2 x . (mu P) + sum mu^2 P.
    Each of the two products runs once over all rows. squared is rows *
    rows, which the caller squares, and constants are
    density_constants(model), built here when not given; a caller that
    scores the same rows more than once (EM's iterations, several models)
    makes each once and passes it. The products go into out and scratch,
    two (frames, components) buffers made here when not given, and the
    rest of the expression runs in out, term by term in the order above.
    """
    x = np.atleast_2d(np.asarray(rows, dtype=np.float64))
    dim = x.shape[1]
    if model.means.shape[1] != dim:
        raise ValueError(f"feature dim {dim} does not match model dim {model.means.shape[1]}")
    log_norm, precisions, scaled_means, mean_term, log_weights = (
        constants or density_constants(model)
    )
    out = np.matmul(squared, precisions.T, out=out)
    cross = np.matmul(x, scaled_means.T, out=scratch)
    np.multiply(2.0, cross, out=cross)
    np.subtract(out, cross, out=out)
    np.add(out, mean_term, out=out)  # the Mahalanobis term
    np.multiply(0.5, out, out=out)
    np.subtract(log_norm, out, out=out)
    return np.add(out, log_weights, out=out)


def _workspace(frames: int, components: int) -> np.ndarray:
    """The two (frames, components) buffers one fit's k-means and E-steps run in."""
    return np.empty((2, frames, components))


def _e_step(model: GmmModel, x: np.ndarray, x_sq: np.ndarray, work=None):
    """Posterior memberships (rows sum to 1) and per-frame log-likelihoods; x_sq is x * x.

    work is a _workspace, made here when not given; the joint densities
    fill its first buffer and the memberships, returned, its second.
    """
    joint, resp = _workspace(len(x), model.num_components) if work is None else work
    log_joint_densities(model, x, x_sq, out=joint, scratch=resp)
    frame_ll = logsumexp(joint, shifted=resp)
    np.subtract(joint, frame_ll[:, None], out=resp)
    return _exp(resp, out=resp), frame_ll


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
    diff = np.empty_like(x)

    def dist_sq_to(center: np.ndarray) -> np.ndarray:
        np.subtract(x, center, out=diff)
        return np.sum(np.square(diff, out=diff), axis=1)

    centers[0] = x[rng.integers(n)]
    dist_sq = dist_sq_to(centers[0])
    for i in range(1, k):
        total = dist_sq.sum()
        if total > 0:
            idx = rng.choice(n, p=dist_sq / total)
        else:
            idx = rng.integers(n)
        centers[i] = x[idx]
        np.minimum(dist_sq, dist_sq_to(centers[i]), out=dist_sq)
    return centers


def _kmeans(
    x: np.ndarray, x_sq: np.ndarray, k: int, rng: np.random.Generator, max_iter: int = 100,
    work=None,
):
    """Lloyd iterations from a k-means++ start; every returned cluster is non-empty.

    Each iteration moves the centres to the M-step means of the one-hot
    assignment, bit for bit: the same product onehot.T @ x, over the
    cluster sizes, whole numbers equal to the M-step's counts. The full
    M-step runs once, on the final assignment, and is returned (EM's start)
    with that assignment. x_sq is x * x; max_iter is at least 1. work is a
    _workspace, made here when not given: distances fill its first buffer
    and the one-hot assignment its second.
    """
    distances, onehot = _workspace(len(x), k) if work is None else work
    centers = _kmeans_plusplus(x, k, rng)
    sq_norms = np.sum(x_sq, axis=1)[:, None]
    frames = np.arange(len(x))
    assignment = np.zeros(x.shape[0], dtype=int)
    for _ in range(max_iter):
        # sq_norms - 2.0 * (x @ centers.T) + sum(centers^2), term by term
        np.matmul(x, centers.T, out=distances)
        np.multiply(2.0, distances, out=distances)
        np.subtract(sq_norms, distances, out=distances)
        np.add(distances, np.sum(centers * centers, axis=1), out=distances)
        new_assignment = np.argmin(distances, axis=1)
        # re-seed each empty cluster on its own point, farthest from its center
        # first, never taking the last member of another cluster
        sizes = np.bincount(new_assignment, minlength=k)
        empty = np.flatnonzero(sizes == 0)
        if len(empty):
            farthest = iter(np.argsort(-np.min(distances, axis=1), kind="stable"))
            for j in empty:
                i = next(i for i in farthest if sizes[new_assignment[i]] > 1)
                sizes[new_assignment[i]] -= 1
                sizes[j] = 1
                new_assignment[i] = j
        onehot.fill(0.0)
        onehot[frames, new_assignment] = 1.0
        if np.array_equal(new_assignment, assignment):
            break
        centers = (onehot.T @ x) / sizes[:, None]
        assignment = new_assignment
    return _m_step(onehot, x, x_sq), new_assignment


def _count_distinct_rows(x: np.ndarray, enough: int) -> int:
    """Distinct rows of x, counted until enough are seen; -0.0 equals 0.0 as in np.unique."""
    seen = set()
    for row in x:
        seen.add((row + 0.0).tobytes())
        if len(seen) == enough:
            break
    return len(seen)


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
    needed = max(2, num_components)
    distinct = _count_distinct_rows(x, needed)
    if distinct < needed:
        raise InsufficientDataError(
            f"{distinct} distinct feature frames cannot support "
            f"{num_components} components"
        )

    x_sq = x * x
    work = _workspace(num_frames, num_components)
    start, _ = _kmeans(x, x_sq, num_components, np.random.default_rng(seed), work=work)
    model = GmmModel(label, dim, *start, features.config_fingerprint)
    trace: list[float] = []
    converged = False
    for _ in range(max_iter):
        resp, frame_ll = _e_step(model, x, x_sq, work)
        trace.append(float(np.sum(frame_ll)))
        if len(trace) >= 2 and abs(trace[-1] - trace[-2]) < tol * abs(trace[-1]):
            converged = True
            break
        model.weights, model.means, model.variances = _m_step(resp, x, x_sq)

    model.validate()
    return model, TrainingReport(len(trace), trace, converged)


def _format_floats(values: np.ndarray) -> str:
    return " ".join(map("{:.17g}".format, values.tolist()))


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
        key = key.strip()
        if key in fields:
            raise ModelFormatError(f"{path}: repeated key {key!r}")
        fields[key] = value.strip()

    # each key is popped where it is read, so what is left is unknown
    try:
        label = fields.pop("label")
        dim = int(fields.pop("dim"))
        num_components = int(fields.pop("components"))
        fingerprint = fields.pop("feature_fingerprint")
        fields.pop("rng", None)
        weights = _parse_floats(fields.pop("weights"), num_components, "weights")
        means, variances = (
            np.stack(
                [
                    _parse_floats(fields.pop(f"{part} {j}"), dim, f"{part} {j}")
                    for j in range(num_components)
                ]
            )
            for part in ("mean", "variance")
        )
    except KeyError as exc:
        raise ModelFormatError(f"{path}: missing field {exc}") from exc
    except ValueError as exc:
        raise ModelFormatError(f"{path}: {exc}") from exc
    if fields:
        raise ModelFormatError(f"{path}: unknown key {next(iter(fields))!r}")

    model = GmmModel(label, dim, weights, means, variances, fingerprint)
    model.validate()
    return model
