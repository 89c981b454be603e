"""Exception types shared across the toolkit, the text reader and the config range check."""

import functools
from dataclasses import field, fields


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


class Range:
    """Values a config field allows, written as an interval: "[0, 1)", "(1, inf)"."""

    def __init__(self, text: str):
        self.text = text
        self.lo, self.hi = (float(end) for end in text[1:-1].split(","))
        self.lo_open, self.hi_open = text[0] == "(", text[-1] == ")"

    def __contains__(self, value) -> bool:
        above = self.lo < value if self.lo_open else self.lo <= value
        return above and (value < self.hi if self.hi_open else value <= self.hi)

    def __str__(self) -> str:
        return self.text


def ranged(default, allowed):
    """A dataclass field whose values, None aside, lie in allowed: a Range, its text or choices."""
    allowed = Range(allowed) if isinstance(allowed, str) else allowed
    return field(default=default, metadata={"range": allowed})


@functools.cache
def _declared(cls) -> tuple:
    """(field name, allowed values) of each ranged field of cls, gathered once per class."""
    return tuple((f.name, f.metadata["range"]) for f in fields(cls) if "range" in f.metadata)


def check_ranges(obj, section: str = "") -> None:
    """ConfigError naming the config key (section.field) of a field of obj outside its range."""
    for name, allowed in _declared(type(obj)):
        value = getattr(obj, name)
        if value is not None and value not in allowed:
            key = f"{section}.{name}" if section else name
            raise ConfigError(f"{key} must be in {allowed}, got {value!r}")
