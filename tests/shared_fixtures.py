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
    """Count FrameSpec framings and the frames analyzed and resynthesized.

    Counts are keyed by the length of the framed buffer, so a whole
    recording's enhancement stays apart from the short pieces extract frames.
    """
    import collections

    from revspeech.features import FrameSpec

    counts = collections.defaultdict(lambda: {"framings": 0, "analyzed": 0, "synthesized": 0})
    lengths = {}
    segment, spectra, synthesize = FrameSpec.segment, FrameSpec.spectra, FrameSpec.synthesize

    def counting_segment(self, buf):
        frames = segment(self, buf)
        lengths[id(frames)] = len(buf.samples)
        counts[len(buf.samples)]["framings"] += 1
        return frames

    def counting_spectra(self, frames, rows=slice(None), windowed=None):
        out = spectra(self, frames, rows, windowed)
        counts[lengths[id(frames)]]["analyzed"] += len(out)
        return out

    def counting_synthesize(self, block, frames):
        out = synthesize(self, block, frames)
        counts[lengths[id(frames)]]["synthesized"] += len(out)
        return out

    monkeypatch.setattr(FrameSpec, "segment", counting_segment)
    monkeypatch.setattr(FrameSpec, "spectra", counting_spectra)
    monkeypatch.setattr(FrameSpec, "synthesize", counting_synthesize)
    return counts
