"""Reference computations the tests check the library against (numpy only)."""

import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


# a piece processed in stacked blocks and batches against the piece alone:
# matrix products over matrices of other heights may round apart in the last
# bits, far inside this share of the largest magnitude compared
PIECE_RTOL = 1e-12


def assert_rows_match_alone(got: np.ndarray, alone: np.ndarray) -> None:
    """Feature rows within PIECE_RTOL of alone's largest magnitude."""
    assert got.shape == alone.shape
    np.testing.assert_allclose(got, alone, rtol=0, atol=PIECE_RTOL * np.abs(alone).max())


def assert_results_match_alone(got: list, alone: list) -> None:
    """Tuples ending in (label, score, margin): all else equal, the label too.

    The score is within PIECE_RTOL of itself, and the margin, a difference
    of two scores, within PIECE_RTOL of both scores' magnitudes.
    """
    assert len(got) == len(alone)
    for result, want in zip(got, alone):
        *head, score, margin = result
        *want_head, want_score, want_margin = want
        assert head == want_head, (result, want)
        assert abs(score - want_score) <= PIECE_RTOL * abs(want_score), (result, want)
        scale = abs(want_score) + abs(want_score - want_margin)
        assert abs(margin - want_margin) <= PIECE_RTOL * scale, (result, want)


def padded_frames(samples: np.ndarray, frame_len: int, hop: int) -> np.ndarray:
    """Every frame of samples as rows: frame i is samples i*hop .. i*hop + frame_len - 1.

    The rows are windows on one zero-padded copy, just long enough for
    ceil(max(n - frame_len, 0) / hop) + 1 frames, so the last frame reaches
    the last sample and a buffer shorter than a frame gives one frame.
    """
    count = math.ceil(max(len(samples) - frame_len, 0) / hop) + 1
    padded = np.zeros((count - 1) * hop + frame_len)
    padded[: len(samples)] = samples
    return sliding_window_view(padded, frame_len)[::hop]


def dft_magnitude(frame: np.ndarray, fft_size: int) -> np.ndarray:
    """Magnitudes |X(k)| for k = 0..fft_size-1, zero-padding the frame."""
    frame = np.asarray(frame, dtype=np.float64)
    if frame.shape[-1] > fft_size:
        raise ValueError("frame longer than fft_size")
    return np.abs(np.fft.fft(frame, n=fft_size, axis=-1))


def hamming_window(frame: np.ndarray, a: float) -> np.ndarray:
    """Each frame (last axis) times w(k) = (1-a) - a*cos(2*pi*k/(n-1)), k = 0..n-1."""
    frame = np.asarray(frame, dtype=np.float64)
    n = frame.shape[-1]
    if n == 1:
        return frame * (1.0 - 2.0 * a)
    return frame * ((1.0 - a) - a * np.cos(2.0 * np.pi * np.arange(n) / (n - 1)))


def overlap_add_normalized(rows, row_lo, window, hop, num_frames):
    """Overlap-add rows (hop samples each, from row row_lo on) divided by the window power.

    Row r sums, in frame order, the hop-long piece of the squared window of
    every frame i that reaches it (max(r - pieces + 1, 0) <= i <= r, i below
    num_frames), one row at a time; rows whose power is below 1e-8 are left
    as they are.
    """
    squared = window * window
    pieces = -(-len(window) // hop)
    power = np.zeros(rows.shape)
    for j in range(len(rows)):
        r = row_lo + j
        for i in range(max(r - pieces + 1, 0), min(r + 1, num_frames)):
            piece = squared[(r - i) * hop : (r - i + 1) * hop]
            power[j, : len(piece)] += piece
    return np.divide(rows, power, out=rows.copy(), where=power >= 1e-8)


def subtract_magnitudes(
    magnitudes: np.ndarray, noise: np.ndarray, alpha: float, beta: float
) -> np.ndarray:
    """Oversubtraction with a spectral floor: max(|Y| - alpha*n, beta*|Y|)."""
    return np.maximum(magnitudes - alpha * noise, beta * magnitudes)


def subtraction_shaped(spectra: np.ndarray, noise: np.ndarray, alpha: float, beta: float):
    """Spectra scaled by max(|Y| - alpha*n, beta*|Y|) / |Y|, masking zero magnitudes to gain 0."""
    magnitudes = np.abs(spectra)
    enhanced = subtract_magnitudes(magnitudes, noise, alpha, beta)
    positive = magnitudes > 0
    shaped = spectra.copy()
    shaped *= np.where(positive, enhanced / np.where(positive, magnitudes, 1.0), 0.0)
    return shaped


def wiener_shaped(
    spectra: np.ndarray, noise: np.ndarray, smoothing: float, prior_floor: float, snr_cap: float
):
    """Spectra under the decision-directed Wiener gain xi/(1+xi), one frame at a time.

    Every SNR is power / noise power, capped at snr_cap; a zero-noise bin
    takes the cap through a masked divide. The prior mixes the previous
    frame's enhanced SNR with the current frame's posterior SNR less one,
    floored at prior_floor; the first frame stands in for its predecessor.
    """
    noise_power = noise**2

    def snr(power):
        out = np.full_like(power, snr_cap)
        np.divide(power, noise_power, out=out, where=noise_power > 0)
        return np.minimum(out, snr_cap)

    magnitudes = np.abs(spectra)
    shaped = spectra.copy()
    previous_enhanced = magnitudes[0]
    for t in range(len(spectra)):
        posterior = snr(magnitudes[t] ** 2)
        prior = smoothing * snr(previous_enhanced**2) + (1 - smoothing) * np.maximum(
            posterior - 1.0, 0.0
        )
        prior = np.maximum(prior, prior_floor)
        gain = prior / (1.0 + prior)
        shaped[t] *= gain
        previous_enhanced = gain * magnitudes[t]
    return shaped


def plain_em(x: np.ndarray, k: int, seed: int, max_iter: int = 200, tol: float = 1e-5) -> dict:
    """gmm.train's fit as a plain loop: a k-means++ start, Lloyd iterations, EM.

    Every exponential is np.exp, every row peak np.max(axis=1), x*x is
    recomputed on each iteration, and each Lloyd iteration sorts points by
    distance whether or not a cluster is empty. Besides the model and its
    trace, returns how many empty k-means clusters were re-seeded and the
    share of E-step memberships whose exponent lies below -700 (subnormal
    or zero).
    """
    rng = np.random.default_rng(seed)
    n = len(x)

    def m_step(resp):
        counts = resp.sum(axis=0)
        safe_counts = np.maximum(counts, 1e-300)[:, None]
        means = (resp.T @ x) / safe_counts
        variances = (resp.T @ (x * x)) / safe_counts - means * means
        weights = np.maximum(counts / n, 1e-8)
        return weights / weights.sum(), means, np.maximum(variances, 1e-6)

    centers = np.empty((k, x.shape[1]))
    centers[0] = x[rng.integers(n)]
    dist_sq = np.sum((x - centers[0]) ** 2, axis=1)
    for i in range(1, k):
        total = dist_sq.sum()
        idx = rng.choice(n, p=dist_sq / total) if total > 0 else rng.integers(n)
        centers[i] = x[idx]
        dist_sq = np.minimum(dist_sq, np.sum((x - centers[i]) ** 2, axis=1))

    reseeds = 0
    sq_norms = np.sum(x * x, axis=1)[:, None]
    assignment = np.zeros(n, dtype=int)
    for _ in range(100):
        distances = sq_norms - 2.0 * (x @ centers.T) + np.sum(centers * centers, axis=1)
        new_assignment = np.argmin(distances, axis=1)
        sizes = np.bincount(new_assignment, minlength=k)
        farthest = iter(np.argsort(-np.min(distances, axis=1), kind="stable"))
        for j in np.flatnonzero(sizes == 0):
            i = next(i for i in farthest if sizes[new_assignment[i]] > 1)
            sizes[new_assignment[i]] -= 1
            sizes[j] = 1
            new_assignment[i] = j
            reseeds += 1
        centers = m_step(np.eye(k)[new_assignment])[1]
        if np.array_equal(new_assignment, assignment):
            break
        assignment = new_assignment

    weights, means, variances = m_step(np.eye(k)[assignment])
    trace, tiny, total = [], 0, 0
    converged = False
    for _ in range(max_iter):
        precisions = 1.0 / variances
        log_norm = -0.5 * (x.shape[1] * np.log(2.0 * np.pi) + np.sum(np.log(variances), axis=1))
        scaled_means = means * precisions
        mahal = (
            (x * x) @ precisions.T
            - 2.0 * (x @ scaled_means.T)
            + np.sum(means * scaled_means, axis=1)
        )
        joint = log_norm - 0.5 * mahal + np.log(weights)
        peak = np.max(joint, axis=1, keepdims=True)
        peak = np.where(np.isfinite(peak), peak, 0.0)
        frame_ll = np.squeeze(
            np.log(np.sum(np.exp(joint - peak), axis=1, keepdims=True)) + peak, axis=1
        )
        exponents = joint - frame_ll[:, None]
        tiny += int(np.count_nonzero(exponents < -700.0))
        total += exponents.size
        resp = np.exp(exponents)
        trace.append(float(np.sum(frame_ll)))
        if len(trace) >= 2 and abs(trace[-1] - trace[-2]) < tol * abs(trace[-1]):
            converged = True
            break
        weights, means, variances = m_step(resp)
    return {
        "weights": weights,
        "means": means,
        "variances": variances,
        "trace": trace,
        "iterations": len(trace),
        "converged": converged,
        "reseeds": reseeds,
        "tiny_share": tiny / max(total, 1),
    }
