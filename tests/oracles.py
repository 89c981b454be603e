"""Reference computations the tests check the library against (numpy only)."""

import numpy as np


def dft_magnitude(frame: np.ndarray, fft_size: int) -> np.ndarray:
    """Magnitudes |X(k)| for k = 0..fft_size-1, zero-padding the frame."""
    frame = np.asarray(frame, dtype=np.float64)
    if frame.shape[-1] > fft_size:
        raise ValueError("frame longer than fft_size")
    return np.abs(np.fft.fft(frame, n=fft_size, axis=-1))
