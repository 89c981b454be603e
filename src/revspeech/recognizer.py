"""Isolated-word recognition over per-label GMMs, forward or time-reversed.

Utterances are located by energy endpointing, scored against every model in
the vocabulary by average per-frame log-likelihood, and emitted as ordered
transcript segments. Segments beyond roughly 30 seconds are worth splitting
upstream; the endpointing rules below never enforce a maximum length.
"""

from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field

import numpy as np

from .audio import AudioBuffer, frame_energies, frame_groups, reverse
from .enhance import EnhanceConfig, denoise_spans
from .errors import (
    ConfigError,
    FingerprintMismatchError,
    InsufficientDataError,
    VocabularyError,
)
from .features import FeatureConfig, FeatureMatrix, FrameSpec, extract_all
from .gmm import GmmModel, log_joint_densities, logsumexp

DIRECTIONS = ("forward", "reverse")


@dataclass
class EndpointConfig:
    """Energy endpointing: smoothed energies, percentile threshold, region rules."""

    frame_ms: float = 25.0
    overlap_fraction: float = 0.5
    smooth_frames: int = 5
    energy_ratio: float = 3.0
    merge_gap_ms: float = 200.0
    min_utterance_ms: float = 250.0

    def __post_init__(self):
        FrameSpec(self.frame_ms, self.overlap_fraction)  # validates the framing fields
        if self.smooth_frames < 1:
            raise ConfigError("smooth_frames must be >= 1")
        if self.energy_ratio <= 0:
            raise ConfigError("energy_ratio must be positive")
        if self.merge_gap_ms < 0 or self.min_utterance_ms < 0:
            raise ConfigError("merge_gap_ms and min_utterance_ms must be >= 0")


@dataclass
class Vocabulary:
    entries: dict[str, GmmModel]
    feature_fingerprint: str

    def __post_init__(self):
        if len(self.entries) < 2:
            raise VocabularyError("vocabulary needs at least 2 labels")
        dims = {model.dim for model in self.entries.values()}
        if len(dims) != 1:
            raise VocabularyError("vocabulary models disagree on feature dimension")
        prints = {model.feature_fingerprint for model in self.entries.values()}
        if prints != {self.feature_fingerprint}:
            raise FingerprintMismatchError(
                "vocabulary models carry mixed feature fingerprints"
            )

    @classmethod
    def from_models(cls, models: list[GmmModel]) -> "Vocabulary":
        entries = {}
        for model in models:
            if model.label in entries:
                raise VocabularyError(f"duplicate label {model.label!r}")
            entries[model.label] = model
        return cls(entries, models[0].feature_fingerprint if models else "")


@dataclass
class SegmentHypothesis:
    start_s: float
    end_s: float
    label: str
    score: float
    margin: float
    direction: str

    def __post_init__(self):
        if self.end_s <= self.start_s:
            raise ValueError("segment must have positive duration")
        if self.margin < 0:
            raise ValueError("margin must be nonnegative")


@dataclass
class Transcript:
    segments: list[SegmentHypothesis] = field(default_factory=list)
    direction: str = "forward"
    source_duration_s: float = 0.0


def classify_segment(
    features: FeatureMatrix, vocab: Vocabulary
) -> tuple[str, float, float]:
    """Best label by average per-frame log-likelihood, with runner-up margin.

    Ties break toward the lexicographically smallest label.
    """
    (result,) = classify_segments([features], vocab)
    return result


def classify_segments(
    features: Iterable[FeatureMatrix], vocab: Vocabulary
) -> Iterator[tuple[str, float, float]]:
    """classify_segment of each feature matrix in turn, a batch at a time.

    Consecutive matrices with at most BLOCK_FRAMES frames in all make a batch
    (audio.frame_groups). Each model's density constants are built once per
    batch, its products run per segment (features.per_piece_product), one
    logsumexp covers the batch's rows, and each segment sums its own frames,
    so every result equals the segment scored alone.
    """
    dim = next(iter(vocab.entries.values())).dim
    for batch in frame_groups(features, lambda matrix: matrix.num_frames):
        for matrix in batch:
            if matrix.num_frames == 0:
                raise ValueError("cannot classify an empty feature matrix")
            if matrix.config_fingerprint != vocab.feature_fingerprint:
                raise FingerprintMismatchError(
                    f"features fingerprint {matrix.config_fingerprint} does not match "
                    f"vocabulary fingerprint {vocab.feature_fingerprint}"
                )
            if matrix.dim != dim:
                raise FingerprintMismatchError(
                    f"features have dimension {matrix.dim}, vocabulary models have {dim}"
                )
        rows = np.concatenate([matrix.rows for matrix in batch])
        bounds = np.cumsum([0] + [matrix.num_frames for matrix in batch])
        totals = {}
        for label, model in vocab.entries.items():
            frame_ll = logsumexp(log_joint_densities(model, rows, bounds))
            totals[label] = [np.sum(frame_ll[lo:hi]) for lo, hi in zip(bounds[:-1], bounds[1:])]
        for k, matrix in enumerate(batch):
            scores = {label: float(total[k]) / matrix.num_frames for label, total in totals.items()}
            ranked = sorted(scores.items(), key=lambda item: (-item[1], item[0]))
            (best_label, best_score), (_, runner_up) = ranked[:2]  # a Vocabulary has >= 2 labels
            yield best_label, best_score, best_score - runner_up


def segment_utterances(
    buf: AudioBuffer, cfg: EndpointConfig | None = None
) -> list[tuple[float, float]]:
    """Locate speech-like regions by smoothed frame energy.

    Regions separated by less than merge_gap_ms merge; regions shorter than
    min_utterance_ms drop. When nothing qualifies the whole buffer is
    returned as a single region.

    Raises:
        InsufficientDataError: every frame has the same energy, as in digital
            silence, a constant signal, or a buffer shorter than one frame;
            no region stands out from the rest.
    """
    cfg = cfg or EndpointConfig()
    whole = [(0.0, buf.duration_s)]
    frames = FrameSpec(cfg.frame_ms, cfg.overlap_fraction).segment(buf)
    energies = frame_energies(frames)
    if energies.min() == energies.max():
        raise InsufficientDataError(
            f"all {len(energies)} endpoint frames of the recording have the same "
            "energy; there is no speech to find"
        )
    kernel = np.ones(cfg.smooth_frames)
    offset = (cfg.smooth_frames - 1) // 2
    # full convolutions cut to one centred value per frame; mode="same" would
    # return smooth_frames values when there are fewer frames than that
    window = slice(offset, offset + len(energies))
    smoothed = (
        np.convolve(energies, kernel)[window]
        / np.convolve(np.ones_like(energies), kernel)[window]
    )
    threshold = cfg.energy_ratio * np.percentile(smoothed, 10)

    # contiguous active runs, trimmed back to frames that are loud on their own
    edges = np.diff((smoothed > threshold).astype(np.int8), prepend=0, append=0)
    loud = np.flatnonzero(energies > threshold)
    first = np.searchsorted(loud, np.flatnonzero(edges == 1))
    stop = np.searchsorted(loud, np.flatnonzero(edges == -1) - 1, side="right")
    kept_runs = first < stop
    if not np.any(kept_runs):
        return whole

    sr = buf.sample_rate_hz
    hop, frame_len = frames.hop, frames.frame_len
    lo, hi = loud[first[kept_runs]], loud[stop[kept_runs] - 1]
    starts_s = (lo * hop / sr).tolist()
    ends_s = (np.minimum(hi * hop + frame_len, len(buf.samples)) / sr).tolist()
    regions = list(zip(starts_s, ends_s))

    merged = [regions[0]]
    for start_s, end_s in regions[1:]:
        if start_s - merged[-1][1] < cfg.merge_gap_ms / 1000.0:
            merged[-1] = (merged[-1][0], end_s)
        else:
            merged.append((start_s, end_s))

    kept = [r for r in merged if r[1] - r[0] >= cfg.min_utterance_ms / 1000.0]
    return kept or whole


def transcribe(
    buf: AudioBuffer,
    vocab: Vocabulary,
    direction: str,
    enhance_cfg: EnhanceConfig | None = None,
    feature_cfg: FeatureConfig | None = None,
    endpoint_cfg: EndpointConfig | None = None,
) -> Transcript:
    """Endpoint, enhance, and classify a recording in the given direction.

    direction="reverse" reads the buffer through audio.reverse, a read-only
    view, not a copy; segment times then refer to the reversed timeline
    (forward time is duration minus the mirrored bounds). The noise profile
    comes from the whole recording, but only the endpointed regions are
    denoised, and denoising, features and scoring each batch the regions a
    block of frames at a time, so the input samples are the only
    full-length array held. Each region's result equals extract and
    classify_segment on its slice of the whole recording's enhancement.

    Safe to call from several threads at once (analyze runs one per
    direction): it writes only arrays it creates, and only reads what calls
    share: the input samples, the reversed view, and features' cached
    read-only windows, filterbanks and DCT bases.
    """
    if direction not in DIRECTIONS:
        raise ValueError(f"direction must be one of {DIRECTIONS}")
    if len(buf.samples) == 0:
        raise InsufficientDataError("recording has no samples to transcribe")
    enhance_cfg = enhance_cfg or EnhanceConfig()
    feature_cfg = feature_cfg or FeatureConfig()

    sr = buf.sample_rate_hz
    work = reverse(buf) if direction == "reverse" else buf
    # endpoint on the raw signal: enhancement flattens the silence/speech
    # energy contrast the percentile threshold relies on
    regions = segment_utterances(work, endpoint_cfg)
    spans = [(int(start_s * sr + 0.5), int(end_s * sr + 0.5)) for start_s, end_s in regions]

    # each stage takes its input a block of frames at a time and yields per
    # region, so only a block's regions are held between stages
    cleaned = (AudioBuffer(piece, sr) for piece in denoise_spans(work, enhance_cfg, spans))
    results = classify_segments(extract_all(cleaned, feature_cfg), vocab)
    segments = [
        SegmentHypothesis(start_s, end_s, label, score, margin, direction)
        for (start_s, end_s), (label, score, margin) in zip(regions, results)
    ]
    return Transcript(segments, direction, buf.duration_s)
