"""Tool-wide configuration: defaults, config-file parsing, fingerprinting.

Config files are flat key-value text with section prefixes:

    # comment
    enhance.method = wiener
    features.num_ceps = 13
    endpoint.min_utterance_ms = 250
    report.lexicon = lexicon.csv
    seed = 7

Keys are the config dataclasses' fields: one table built from them drives
parsing and dumping. None is written "auto" (derive it at use time), or
"none" for report.lexicon. Each field declares the values it allows (its
range, which excludes nan and inf), and its dataclass checks them. Precedence
everywhere is: built-in defaults, then config file, then command-line flags.
"""

import hashlib
from dataclasses import dataclass, field, fields, is_dataclass, replace
from typing import get_args

from .enhance import EnhanceConfig
from .errors import ConfigError, check_ranges, ranged, read_text
from .features import FeatureConfig
from .recognizer import EndpointConfig


@dataclass
class ToolConfig:
    enhance: EnhanceConfig = field(default_factory=EnhanceConfig)
    features: FeatureConfig = field(default_factory=FeatureConfig)
    endpoint: EndpointConfig = field(default_factory=EndpointConfig)
    lexicon_path: str | None = field(
        default=None, metadata={"key": "report.lexicon", "none": "none"}
    )
    seed: int = ranged(0, "[0, inf)")

    def __post_init__(self):
        check_ranges(self)


def _keys(cls, section: str | None = None):
    """(key, entry) for each field of cls, descending into section dataclasses."""
    for f in fields(cls):
        if is_dataclass(f.type):
            yield from _keys(f.type, f.name)
            continue
        args = get_args(f.type)
        kind = next((a for a in args if a is not type(None)), f.type)
        none_word = f.metadata.get("none", "auto") if type(None) in args else None
        key = f"{section}.{f.name}" if section else f.metadata.get("key", f.name)
        yield key, (section, f.name, kind, none_word, f.metadata.get("range"))


# key -> (ToolConfig section or None, field name, type, word for None or None,
# declared range or None): the one table parsing, dumping and the tests read
_KEYS = dict(_keys(ToolConfig))


def _parse_value(key: str, raw: str):
    _, _, kind, none_word, _ = _KEYS[key]
    if none_word is not None and raw == none_word:
        return None
    try:
        value = kind(raw)
    except ValueError as exc:
        raise ConfigError(f"{key}: {exc}") from exc
    return value


def parse_config(text: str, base: ToolConfig | None = None) -> ToolConfig:
    """Apply a config document's key-value overrides, each key once, onto a base config."""
    base = base or ToolConfig()
    # every section is rebuilt, so the result shares no object with base
    changes = {section: {} for section, *_ in _KEYS.values()}
    lines_of = {}  # key -> the line that set it
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _KEYS:
            raise ConfigError(f"line {lineno}: unknown configuration key {key!r}")
        if lines_of.setdefault(key, lineno) != lineno:
            raise ConfigError(f"line {lineno}: key {key!r} is already set on line {lines_of[key]}")
        section, name, *_ = _KEYS[key]
        changes[section][name] = _parse_value(key, value)
    top = changes.pop(None)
    for section, values in changes.items():
        top[section] = replace(getattr(base, section), **values)
    return replace(base, **top)


def load_config(path, base: ToolConfig | None = None) -> ToolConfig:
    return parse_config(read_text(path, ConfigError), base)


def _format_value(value, none_word: str | None) -> str:
    if value is None:
        return none_word
    return repr(value) if isinstance(value, float) else str(value)


def dump_config(cfg: ToolConfig) -> str:
    """Render the effective configuration; parse_config inverts it exactly."""
    lines = []
    for key, (section, name, _, none_word, _) in _KEYS.items():
        value = getattr(getattr(cfg, section) if section else cfg, name)
        lines.append(f"{key} = {_format_value(value, none_word)}")
    return "\n".join(lines) + "\n"


def config_fingerprint(cfg: ToolConfig) -> str:
    """Short hash of the effective configuration, for report headers."""
    return hashlib.sha256(dump_config(cfg).encode()).hexdigest()[:16]
