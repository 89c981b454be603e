"""Reference computations the tests check the library against (numpy only)."""

import numpy as np


def dft_magnitude(frame: np.ndarray, fft_size: int) -> np.ndarray:
    """Magnitudes |X(k)| for k = 0..fft_size-1, zero-padding the frame."""
    frame = np.asarray(frame, dtype=np.float64)
    if frame.shape[-1] > fft_size:
        raise ValueError("frame longer than fft_size")
    return np.abs(np.fft.fft(frame, n=fft_size, axis=-1))


def subtraction_shaped(spectra: np.ndarray, noise: np.ndarray, alpha: float, beta: float):
    """Spectra scaled by max(|Y| - alpha*n, beta*|Y|) / |Y|, masking zero magnitudes to gain 0."""
    magnitudes = np.abs(spectra)
    enhanced = np.maximum(magnitudes - alpha * noise, beta * magnitudes)
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
