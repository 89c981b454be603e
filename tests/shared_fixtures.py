"""pytest fixtures built from the conftest signal builders.

Kept apart from conftest.py, which loads this module as a plugin, so that
the builders import without pytest. The module is not named fixtures:
pytest ships a built-in plugin of that name, which would shadow it.
"""

import numpy as np
import pytest

from conftest import build_session, train_vocabulary


@pytest.fixture(scope="session")
def fixture_vocabulary():
    return train_vocabulary(["accept", "reject", "update", "login"])


@pytest.fixture(scope="session")
def fixture_session():
    rng = np.random.default_rng(202)
    return build_session(rng)


@pytest.fixture
def transform_counts(monkeypatch):
    """Count framings, their resolutions at the rate, and the frames analyzed and resynthesized.

    Counts are keyed by the length of the framed buffer, so a whole
    recording's enhancement stays apart from the short pieces extract frames.
    A resolution (FrameSpec.resolve) inside FrameSpec.segment counts for the
    buffer framed; one outside it, such as a config's check at the rate,
    counts under None.
    """
    import collections
    import threading

    from revspeech.audio import FrameSequence
    from revspeech.features import FrameSpec

    counts = collections.defaultdict(
        lambda: dict.fromkeys(("framings", "resolved", "analyzed", "synthesized"), 0)
    )
    framing = threading.local()  # the length of the buffer this thread is framing
    segment, resolve = FrameSpec.segment, FrameSpec.resolve
    spectra, synthesize = FrameSequence.spectra, FrameSequence.synthesize

    def counting_segment(self, buf):
        framing.length = len(buf.samples)
        try:
            frames = segment(self, buf)
        finally:
            framing.length = None
        counts[len(buf.samples)]["framings"] += 1
        return frames

    def counting_resolve(self, sample_rate_hz):
        counts[getattr(framing, "length", None)]["resolved"] += 1
        return resolve(self, sample_rate_hz)

    def counting_spectra(self, rows=slice(None), windowed=None):
        out = spectra(self, rows, windowed)
        counts[self.num_samples]["analyzed"] += len(out)
        return out

    def counting_synthesize(self, block):
        out = synthesize(self, block)
        counts[self.num_samples]["synthesized"] += len(out)
        return out

    monkeypatch.setattr(FrameSpec, "segment", counting_segment)
    monkeypatch.setattr(FrameSpec, "resolve", counting_resolve)
    monkeypatch.setattr(FrameSequence, "spectra", counting_spectra)
    monkeypatch.setattr(FrameSequence, "synthesize", counting_synthesize)
    return counts
