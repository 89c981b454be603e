"""Isolated-word recognition over per-label GMMs, forward or time-reversed.

Utterances are located by energy endpointing, scored against every model in
the vocabulary by average per-frame log-likelihood, and emitted as ordered
transcript segments. Segments beyond MAX_UTTERANCE_S (30 seconds) are worth
splitting upstream; the endpointing rules below never enforce a maximum
length.
"""

import itertools
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field

import numpy as np

from . import audio
from .audio import (
    MAX_UTTERANCE_S,
    AudioBuffer,
    FrameSequence,
    FrameSpec,
    frame_energies,
    framing,
    reverse,
)
from .enhance import EnhanceConfig, denoise_spans
from .errors import (
    ConfigError,
    FingerprintMismatchError,
    InsufficientDataError,
    VocabularyError,
    check_ranges,
    ranged,
)
from .features import FeatureConfig, FeatureMatrix, extract_batches
from .gmm import GmmModel, density_constants, log_joint_densities, logsumexp

DIRECTIONS = ("forward", "reverse")


@dataclass
class EndpointConfig:
    """Energy endpointing: smoothed energies, percentile threshold, region rules."""

    frame_ms: float = framing("frame_ms")
    overlap_fraction: float = framing("overlap_fraction")
    smooth_frames: int = ranged(5, "[1, inf)")
    energy_ratio: float = ranged(3.0, "(0, inf)")
    merge_gap_ms: float = ranged(200.0, "[0, inf)")
    min_utterance_ms: float = ranged(250.0, "[0, inf)")

    def __post_init__(self):
        check_ranges(self, "endpoint")
        self.check()

    @property
    def frame(self) -> FrameSpec:
        return FrameSpec(self.frame_ms, self.overlap_fraction, section="endpoint")

    def check(self, frames: FrameSequence | None = None) -> None:
        """ConfigError unless smooth_frames fits in MAX_UTTERANCE_S of frames (at the frames' hop).

        The smoothing follows the energy within an utterance; a wider window
        would average whole utterances with the silence around them. Given
        the frames this config's framing cut (FrameSpec.segment, which
        resolved it at their rate), the frames are counted at their hop.
        """
        hop_at = None if frames is None else (frames.hop, frames.sample_rate_hz)
        widest = self.frame.frames_within(MAX_UTTERANCE_S, hop_at)
        if self.smooth_frames > widest:
            at = "" if frames is None else f" at {frames.sample_rate_hz} Hz"
            raise ConfigError(
                f"endpoint.smooth_frames must be <= {widest}{at}, the endpoint frames in "
                f"{MAX_UTTERANCE_S:g} s, the longest utterance (MAX_UTTERANCE_S)"
            )


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

    Ties break toward the lexicographically smallest label. The matrix is
    checked against the vocabulary, then scored as one batch of one piece
    by the scorer transcribe uses (_scored).
    """
    if features.num_frames == 0:
        raise ValueError("cannot classify an empty feature matrix")
    _check_features(vocab, features.config_fingerprint, features.dim)
    (result,) = _scored([(features.rows, [0, features.num_frames])], vocab)
    return result


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
    offsets where its pieces meet, from 0 to its row count. Density
    constants are built once per call and the rows, zero-padded to a whole
    number of SCORE_BLOCKS * BLOCK_FRAMES rows, squared once per batch;
    each model takes one product pair over them and one logsumexp over the
    batch, into its row of one (models, rows) array, and each piece sums
    every model's frames in one np.sum over its columns. That equals np.sum
    of each model's frames alone, bit for bit (np.add.reduceat would not:
    it sums in plain, not pairwise, order). A piece meets products of the
    same shape alone and in any batch, so its score equals the piece
    scored alone within 1e-12 relative, and bit for bit where the BLAS
    computes a shape's rows alike (see the features module). A batch is
    let go when its last result is taken, before the next is drawn.
    """
    labels, models = list(vocab.entries), list(vocab.entries.values())
    constants = [density_constants(model) for model in models]

    def scored(rows: np.ndarray, bounds: list) -> Iterator[tuple[str, float, float]]:
        # the products run on a whole number of scoring batches' rows,
        # zero-padded, which is the shape a piece meets alone or in a batch
        n, height = len(rows), audio.SCORE_BLOCKS * audio.BLOCK_FRAMES
        padded = np.zeros((-(-n // height) * height, rows.shape[1]))
        padded[:n] = rows
        squared = padded * padded
        frame_ll = np.empty((len(models), n))
        for ll, model, model_constants in zip(frame_ll, models, constants):
            ll[:] = logsumexp(log_joint_densities(model, padded, squared, model_constants)[:n])
        for lo, hi in zip(bounds, bounds[1:]):
            scores = [total / (hi - lo) for total in np.sum(frame_ll[:, lo:hi], axis=1).tolist()]
            ranked = sorted(zip(labels, scores), key=lambda item: (-item[1], item[0]))
            (best_label, best_score), (_, runner_up) = ranked[:2]  # a Vocabulary has >= 2 labels
            yield best_label, best_score, best_score - runner_up

    return itertools.chain.from_iterable(itertools.starmap(scored, batches))


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
    frames = cfg.frame.segment(buf)
    cfg.check(frames)
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
    (forward time is duration minus the mirrored bounds). Before any signal
    work the configs are checked at the buffer's rate (the endpoint
    framing as FrameSpec.segment cuts it, EndpointConfig.check of those
    frames, FeatureConfig.check, then the enhancement framing), then the
    feature fingerprint at that rate and the feature width against the
    vocabulary. The noise profile
    comes from the whole recording, but only the endpointed regions are
    denoised, and denoising and features each batch the regions a block of
    frames at a time. Scoring takes the feature batches of up to
    SCORE_BLOCKS blocks' rows as they come (features.extract_batches) and
    scores each as it stands (_scored), so the input samples are the only
    full-length array held. Each region gets the label extract and
    classify_segment give its slice of the whole recording's enhancement,
    and their scores within 1e-12 relative.
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
    work = reverse(buf) if direction == "reverse" else buf
    # refuse configs unfit for this rate, then models of another config,
    # rate or width, before any signal work
    endpoint_frames = endpoint_cfg.frame.segment(work)
    endpoint_cfg.check(endpoint_frames)
    feature_cfg.check(sr)
    frames = enhance_cfg.frame.segment(work)
    _check_features(vocab, feature_cfg.fingerprint(sr), 3 * feature_cfg.num_ceps,
                    f" of the {sr} Hz recording")
    # endpoint on the raw signal: enhancement flattens the silence/speech
    # energy contrast the percentile threshold relies on
    energies = frame_energies(endpoint_frames)
    regions = _find_regions(endpoint_frames, energies, endpoint_cfg)
    spans = [(int(start_s * sr + 0.5), int(end_s * sr + 0.5)) for start_s, end_s in regions]
    # noise selection reuses the endpoint energies when both frame alike
    alike = (frames.frame_len, frames.hop) == (endpoint_frames.frame_len, endpoint_frames.hop)

    # denoising and features take their input a block of frames at a time,
    # so only a block's regions are held between them; scoring holds up to
    # SCORE_BLOCKS blocks' feature rows
    pieces = denoise_spans(frames, enhance_cfg, spans, energies if alike else None)
    cleaned = (AudioBuffer(piece, sr) for piece in pieces)
    # map, unlike a generator expression, keeps no batch while the next is made
    batches = map(lambda batch: (batch[0].rows, batch[1]), extract_batches(cleaned, feature_cfg))
    results = _scored(batches, vocab)
    segments = [
        SegmentHypothesis(start_s, end_s, label, score, margin, direction)
        for (start_s, end_s), (label, score, margin) in zip(regions, results)
    ]
    return Transcript(segments, direction, buf.duration_s)
