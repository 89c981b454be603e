"""Batch speech-analysis toolkit.

Enhances noisy recordings, extracts cepstral features, recognizes isolated
words on forward and time-reversed audio with per-word Gaussian mixture
models, and assembles a requirements report that pairs forward transcripts
with reversed-audio transcripts and flags inconsistencies.
"""

from .audio import AudioBuffer, FrameSpec, read_wav, reverse, write_wav
from .enhance import EnhanceConfig, NoiseProfile, denoise, estimate_and_denoise, estimate_noise
from .features import FeatureConfig, FeatureMatrix, extract
from .gmm import GmmModel, TrainingReport, load_model, save_model, train
from .recognizer import (
    EndpointConfig,
    SegmentHypothesis,
    Transcript,
    Vocabulary,
    classify_segment,
    segment_utterances,
    transcribe,
)
from .srsdoc import (
    Lexicon,
    ReversalPair,
    SrsReport,
    analyze,
    build_report,
    parse_report,
    render,
)

__version__ = "0.1.0"

__all__ = [
    "AudioBuffer",
    "EndpointConfig",
    "EnhanceConfig",
    "FeatureConfig",
    "FeatureMatrix",
    "FrameSpec",
    "GmmModel",
    "Lexicon",
    "NoiseProfile",
    "ReversalPair",
    "SegmentHypothesis",
    "SrsReport",
    "Transcript",
    "TrainingReport",
    "Vocabulary",
    "analyze",
    "build_report",
    "classify_segment",
    "denoise",
    "estimate_and_denoise",
    "estimate_noise",
    "extract",
    "load_model",
    "parse_report",
    "read_wav",
    "render",
    "reverse",
    "save_model",
    "segment_utterances",
    "train",
    "transcribe",
    "write_wav",
]
