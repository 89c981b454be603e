"""Exception types shared across the toolkit, and the text reader that raises them."""


def read_text(path, error: type) -> str:
    """The UTF-8 text of a file; raise error when it does not decode."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 text ({exc})") from exc


class RevspeechError(Exception):
    """Base class for all toolkit errors."""


class WavFormatError(RevspeechError):
    """A WAV file is structurally malformed (bad magic, inconsistent sizes)."""


class UnsupportedWavError(RevspeechError):
    """A WAV file uses an encoding the toolkit does not read (float, 24-bit, ...)."""


class ConfigError(RevspeechError):
    """A configuration value is invalid or inconsistent with the data."""


class ModelFormatError(RevspeechError):
    """A model file failed to parse or violates model invariants."""


class FingerprintMismatchError(RevspeechError):
    """Features and models were produced under different configurations."""


class InsufficientDataError(RevspeechError):
    """Input holds too little data: too few training frames, or no samples."""


class VocabularyError(RevspeechError):
    """Word models cannot form a vocabulary (too few, duplicate labels, mixed dims)."""


class LexiconFormatError(RevspeechError):
    """A lexicon file could not be parsed."""


class ReportFormatError(RevspeechError):
    """A structured report document could not be parsed."""
