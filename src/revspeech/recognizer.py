"""Isolated-word recognition over per-label GMMs, forward or time-reversed.

Utterances are located by energy endpointing, scored against every model in
the vocabulary by average per-frame log-likelihood, and emitted as ordered
transcript segments. Segments beyond MAX_UTTERANCE_S (30 seconds) are worth
splitting upstream; the endpointing rules below never enforce a maximum
length.
"""

from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field

import numpy as np

from .audio import (
    AudioBuffer,
    FrameSequence,
    frame_energies,
    frame_groups,
    reverse,
)
from .enhance import EnhanceConfig, denoise_spans
from .errors import (
    ConfigError,
    FingerprintMismatchError,
    InsufficientDataError,
    VocabularyError,
)
from .features import (
    MAX_UTTERANCE_S,
    FeatureConfig,
    FeatureMatrix,
    FrameSpec,
    extract_batches,
)
from .gmm import GmmModel, density_constants, log_joint_densities, logsumexp

DIRECTIONS = ("forward", "reverse")
# feature blocks per scoring batch: 4,096 rows (1.3 MB of features) at the
# default BLOCK_FRAMES, so each model's per-batch numpy calls run on
# thousands of rows at once
SCORE_BLOCKS = 16


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
        spec = FrameSpec(self.frame_ms, self.overlap_fraction)  # validates the framing fields
        if self.smooth_frames < 1:
            raise ConfigError("smooth_frames must be >= 1")
        # the smoothing follows the energy within an utterance; a wider window
        # would average whole utterances with the silence around them
        widest = spec.frames_within(MAX_UTTERANCE_S)
        if self.smooth_frames > widest:
            raise ConfigError(
                f"smooth_frames must be <= {widest}, the endpoint frames in "
                f"{MAX_UTTERANCE_S:g} s, the longest utterance (MAX_UTTERANCE_S)"
            )
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

    Each matrix is checked against the vocabulary as it is drawn, then
    scored by the scorer transcribe uses (_scored), each matrix one piece:
    consecutive matrices with at most SCORE_BLOCKS * BLOCK_FRAMES rows in
    all are stacked and scored as one batch.
    """

    def checked(matrix: FeatureMatrix) -> tuple[np.ndarray, list[int]]:
        if matrix.num_frames == 0:
            raise ValueError("cannot classify an empty feature matrix")
        _check_features(vocab, matrix.config_fingerprint, matrix.dim)
        return matrix.rows, [0, matrix.num_frames]

    return _scored(map(checked, features), vocab)


def _check_features(vocab: Vocabulary, fingerprint: str, dim: int, source: str = "") -> None:
    """FingerprintMismatchError unless features of this fingerprint and width fit vocab.

    source, when given, names where the features come from in the message.
    """
    if fingerprint != vocab.feature_fingerprint:
        raise FingerprintMismatchError(
            f"vocabulary fingerprint {vocab.feature_fingerprint} does not match "
            f"features fingerprint {fingerprint}{source}"
        )
    vocab_dim = next(iter(vocab.entries.values())).dim
    if dim != vocab_dim:
        raise FingerprintMismatchError(
            f"features{source} have dimension {dim}, vocabulary models have {vocab_dim}"
        )


def _scored(
    batches: Iterable[tuple[np.ndarray, list]], vocab: Vocabulary
) -> Iterator[tuple[str, float, float]]:
    """(label, score, margin) of each piece of each batch, in order.

    A batch is stacked feature rows, already checked against vocab, and the
    offsets where its pieces meet, from 0 to its row count. Consecutive
    batches with at most SCORE_BLOCKS * BLOCK_FRAMES rows in all are
    stacked and scored as one (audio.frame_groups); a longer batch is
    scored alone. Each model's density constants (gmm.density_constants)
    are built once per call and its products run per piece
    (features.per_piece_product). Each model writes its per-frame
    log-likelihoods (one logsumexp over the scoring batch's rows) into its
    row of one (models, rows) array, and each piece then sums every
    model's frames in one np.sum over its columns. That equals np.sum of
    each model's frames alone, bit for bit: each row reduces along its own
    contiguous axis, in np.sum's pairwise order (np.add.reduceat sums in
    plain order and differs in the last bits). So every result equals the
    piece scored alone.
    """
    labels, models = list(vocab.entries), list(vocab.entries.values())
    constants = [density_constants(model) for model in models]
    for group in frame_groups(batches, lambda batch: len(batch[0]), SCORE_BLOCKS):
        yield from _scored_group(group, labels, models, constants)


def _scored_group(
    group: list, labels: list, models: list, constants: list
) -> Iterator[tuple[str, float, float]]:
    """_scored of one scoring batch, made of the batches in group.

    The group's rows are stacked, then the group is emptied, so only the
    stacked copy stays held; and everything this holds is let go when its
    last result is taken, before the next group's batches are drawn.
    """
    rows = group[0][0] if len(group) == 1 else np.concatenate([part for part, _ in group])
    bounds, offset = [0], 0
    for part, edges in group:
        bounds += [offset + edge for edge in edges[1:]]
        offset += len(part)
    group.clear()
    frame_ll = np.empty((len(models), len(rows)))
    for ll, model, model_constants in zip(frame_ll, models, constants):
        ll[:] = logsumexp(log_joint_densities(model, rows, bounds, model_constants))
    for lo, hi in zip(bounds, bounds[1:]):
        scores = [total / (hi - lo) for total in np.sum(frame_ll[:, lo:hi], axis=1).tolist()]
        ranked = sorted(zip(labels, scores), key=lambda item: (-item[1], item[0]))
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
    frames = FrameSpec(cfg.frame_ms, cfg.overlap_fraction).segment(buf)
    return _find_regions(frames, frame_energies(frames), cfg)


def _find_regions(
    frames: FrameSequence, energies: np.ndarray, cfg: EndpointConfig
) -> list[tuple[float, float]]:
    """segment_utterances of the framed buffer, from its frame_energies."""
    num_samples, sr = frames.num_samples, frames.sample_rate_hz
    whole = [(0.0, num_samples / sr)]
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

    hop, frame_len = frames.hop, frames.frame_len
    lo, hi = loud[first[kept_runs]], loud[stop[kept_runs] - 1]
    starts_s = (lo * hop / sr).tolist()
    ends_s = (np.minimum(hi * hop + frame_len, num_samples) / sr).tolist()
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
    (forward time is duration minus the mirrored bounds). The feature
    fingerprint at the buffer's rate and the feature width are checked
    against the vocabulary first, before any signal work. The noise profile
    comes from the whole recording, but only the endpointed regions are
    denoised, and denoising and features each batch the regions a block of
    frames at a time. Scoring takes the feature batches as they come
    (features.extract_batches: stacked rows and piece bounds, no matrix per
    region) and scores up to SCORE_BLOCKS of them at once (_scored), so
    the input samples are the only full-length array held. Each region's
    result equals extract and classify_segment on its slice of the whole
    recording's enhancement, bit for bit.
    Endpointing and enhancement each frame the recording; when their frames
    have the same length and hop (as they do by default), the one pass of
    frame energies that endpointing takes also selects the noise frames
    (enhance.denoise_spans), and otherwise enhancement takes its own.

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
    endpoint_cfg = endpoint_cfg or EndpointConfig()

    sr = buf.sample_rate_hz
    # refuse models of another config, rate or width before any signal work
    _check_features(vocab, feature_cfg.fingerprint(sr), 3 * feature_cfg.num_ceps,
                    f" of the {sr} Hz recording")
    work = reverse(buf) if direction == "reverse" else buf
    # endpoint on the raw signal: enhancement flattens the silence/speech
    # energy contrast the percentile threshold relies on
    endpoint_spec = FrameSpec(endpoint_cfg.frame_ms, endpoint_cfg.overlap_fraction)
    endpoint_frames = endpoint_spec.segment(work)
    energies = frame_energies(endpoint_frames)
    regions = _find_regions(endpoint_frames, energies, endpoint_cfg)
    spans = [(int(start_s * sr + 0.5), int(end_s * sr + 0.5)) for start_s, end_s in regions]
    frames = enhance_cfg.frame.segment(work)
    # noise selection reuses the endpoint energies when both frame alike
    alike = (frames.frame_len, frames.hop) == (endpoint_frames.frame_len, endpoint_frames.hop)

    # denoising and features take their input a block of frames at a time,
    # so only a block's regions are held between them; scoring holds up to
    # SCORE_BLOCKS blocks' feature rows
    pieces = denoise_spans(frames, enhance_cfg, spans, energies if alike else None)
    cleaned = (AudioBuffer(piece, sr) for piece in pieces)
    batches = extract_batches(cleaned, feature_cfg)
    results = _scored(((batch.rows, bounds.tolist()) for batch, bounds in batches), vocab)
    segments = [
        SegmentHypothesis(start_s, end_s, label, score, margin, direction)
        for (start_s, end_s), (label, score, margin) in zip(regions, results)
    ]
    return Transcript(segments, direction, buf.duration_s)
