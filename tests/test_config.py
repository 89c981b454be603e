"""Config file parsing, dumping, and precedence."""

import math
import re
from collections import Counter
from dataclasses import fields

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from revspeech.audio import MAX_UTTERANCE_S, FrameSpec
from revspeech.config import (
    _KEYS,
    ToolConfig,
    config_fingerprint,
    dump_config,
    load_config,
    parse_config,
)
from revspeech.enhance import EnhanceConfig
from revspeech.errors import ConfigError
from revspeech.features import FeatureConfig
from revspeech.recognizer import EndpointConfig

# key -> (type, declared range) of every key that declares one
RANGES = {key: (kind, allowed) for key, (_, _, kind, _, allowed) in _KEYS.items() if allowed}


def _edges(kind, allowed):
    """(accepted, refused) value pairs at each finite end of a declared range.

    A tuple of choices accepts each choice and refuses a word outside them.
    """
    if isinstance(allowed, tuple):
        return [(choice, "none_of_these") for choice in allowed]
    pairs = []
    for end, is_open, outward in ((allowed.lo, allowed.lo_open, -1.0),
                                  (allowed.hi, allowed.hi_open, 1.0)):
        if math.isinf(end):
            continue
        if kind is int:
            inside = int(end) - int(outward) * is_open
            pairs.append((inside, inside + int(outward)))
        else:
            inward = math.nextafter(end, -outward * math.inf)
            outside = math.nextafter(end, outward * math.inf)
            pairs.append((inward, end) if is_open else (end, outside))
    return pairs


class TestParseConfig:
    def test_defaults_when_empty(self):
        cfg = parse_config("")
        assert cfg.enhance.method == "spectral_subtraction"
        assert cfg.features.num_ceps == 13
        assert cfg.seed == 0

    def test_key_given_twice_is_an_error(self):
        # the last line must not win unnoticed
        text = "enhance.method = wiener\nseed = 3\nenhance.method = spectral_subtraction\n"
        message = "line 3: key 'enhance.method' is already set on line 1"
        with pytest.raises(ConfigError, match=message):
            parse_config(text)

    def test_section_overrides(self):
        text = """
        # tuning for a noisier room
        enhance.method = wiener
        enhance.alpha = 3.5
        features.num_ceps = 10
        endpoint.min_utterance_ms = 300
        report.lexicon = words.csv
        seed = 42
        """
        cfg = parse_config(text)
        assert cfg.enhance.method == "wiener"
        assert cfg.enhance.alpha == 3.5
        assert cfg.features.num_ceps == 10
        assert cfg.endpoint.min_utterance_ms == 300
        assert cfg.lexicon_path == "words.csv"
        assert cfg.seed == 42

    def test_auto_values(self):
        cfg = parse_config("features.fft_size = auto\nfeatures.high_freq_hz = auto\n")
        assert cfg.features.fft_size is None
        assert cfg.features.high_freq_hz is None
        cfg = parse_config("features.fft_size = 1024\nfeatures.high_freq_hz = 7000\n")
        assert cfg.features.fft_size == 1024
        assert cfg.features.high_freq_hz == 7000.0

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("features.banana = 3\n")
        with pytest.raises(ConfigError):
            parse_config("dessert.flavor = 3\n")
        with pytest.raises(ConfigError):
            parse_config("standalone = 3\n")

    def test_malformed_line_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("features.num_ceps 13\n")

    def test_bad_value_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("features.num_ceps = lots\n")

    def test_invalid_combination_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("enhance.alpha = 0.1\n")

    # every float key: their declared ranges hold only finite numbers
    @pytest.mark.parametrize("key", [key for key, entry in _KEYS.items() if entry[2] is float])
    @pytest.mark.parametrize("word", ["nan", "inf", "-inf", "NaN", "infinity"])
    def test_non_finite_float_rejected(self, key, word):
        with pytest.raises(ConfigError, match=key):
            parse_config(f"{key} = {word}\n")

    @pytest.mark.parametrize("line", [
        "endpoint.frame_ms = 0",
        "endpoint.frame_ms = -5",
        "endpoint.overlap_fraction = 1.5",
        "endpoint.overlap_fraction = -0.1",
        "endpoint.smooth_frames = 0",
        "endpoint.energy_ratio = 0",
        "endpoint.energy_ratio = -1",
        "endpoint.merge_gap_ms = -1",
        "endpoint.min_utterance_ms = -0.5",
    ])
    def test_invalid_endpoint_rejected(self, line):
        with pytest.raises(ConfigError):
            parse_config(line + "\n")

    @pytest.mark.parametrize("build, key, widest", [
        # 2,401 endpoint frames start within 30 s at a 12.5 ms hop, 1,201 at 25 ms
        pytest.param(lambda n, ms: EndpointConfig(frame_ms=ms, smooth_frames=n),
                     "smooth_frames", {25.0: 2401, 50.0: 1201}, id="smooth_frames"),
        # 2 * 1,200 + 1 feature frames fit in those, and 2 * 600 + 1
        pytest.param(lambda n, ms: FeatureConfig(frame_ms=ms, delta_window=n),
                     "delta_window", {25.0: 1200, 50.0: 600}, id="delta_window"),
    ])
    def test_windows_fit_in_the_longest_utterance(self, build, key, widest):
        # the bound counts frames, so frames twice as long halve it
        for frame_ms, n in widest.items():
            build(n, frame_ms)
            for too_wide in (n + 1, 10**12):
                with pytest.raises(ConfigError, match=f"{key} must be <= {n}"):
                    build(too_wide, frame_ms)

    @pytest.mark.parametrize("rate, hop", [(16000, 1), (8000, 1), (44100, 1)])
    def test_windows_bounded_again_at_the_real_hop(self, rate, hop):
        # at an overlap this close to 1 the nominal hop is 2.5 ns, so the
        # rate-free bounds admit about 1.2e10 frames; the hop frame_geometry
        # gives is at least one sample, which bounds both windows at a rate
        frames = int(30.0 * rate / hop) + 1
        endpoint = EndpointConfig(overlap_fraction=0.9999999, smooth_frames=10**10)
        feature = FeatureConfig(overlap_fraction=0.9999999, delta_window=10**9)
        with pytest.raises(ConfigError, match=f"smooth_frames must be <= {frames} at {rate} Hz"):
            endpoint.check(rate)
        with pytest.raises(ConfigError, match=f"delta_window must be <= {(frames - 1) // 2} at"):
            feature.check(rate)
        EndpointConfig(overlap_fraction=0.9999999, smooth_frames=frames).check(rate)
        FeatureConfig(overlap_fraction=0.9999999, delta_window=(frames - 1) // 2).check(rate)

    def test_endpoint_edge_values_accepted(self):
        cfg = parse_config(
            "endpoint.smooth_frames = 1\nendpoint.merge_gap_ms = 0\n"
            "endpoint.min_utterance_ms = 0\nendpoint.overlap_fraction = 0\n"
        )
        assert cfg.endpoint.smooth_frames == 1
        assert cfg.endpoint.merge_gap_ms == 0.0

    @pytest.mark.parametrize("key, accepted, refused", [
        pytest.param(key, accepted, refused, id=f"{key}={accepted!r}|{refused!r}")
        for key, (kind, allowed) in RANGES.items()
        for accepted, refused in _edges(kind, allowed)
    ])
    def test_declared_range_edges(self, key, accepted, refused):
        # each range's edge is accepted and the value just past it refused,
        # under the key; the base lets every other field take its own edges
        base = parse_config(
            "features.num_ceps = 1\nfeatures.delta_window = 1\nendpoint.smooth_frames = 1\n"
        )
        assert key + f" = {accepted}\n" in dump_config(parse_config(f"{key} = {accepted}\n", base))
        with pytest.raises(ConfigError, match=re.escape(f"{key} must be in {RANGES[key][1]}, got ")):
            parse_config(f"{key} = {refused}\n", base)

    @pytest.mark.parametrize("build, message", [
        (lambda: FeatureConfig(num_filters=12), "features.num_ceps must be <= features.num_filters"),
        (lambda: FeatureConfig(low_freq_hz=300.0, high_freq_hz=300.0),
         "features.low_freq_hz must be below features.high_freq_hz"),
        (lambda: EnhanceConfig(fft_size=500), "enhance.fft_size must be a power of two, got 500"),
        (lambda: FeatureConfig(fft_size=500), "features.fft_size must be a power of two, got 500"),
    ])
    def test_rules_across_fields_name_every_key(self, build, message):
        with pytest.raises(ConfigError, match=re.escape(message)):
            build()

    def test_result_shares_no_section_with_base(self):
        base = ToolConfig()
        cfg = parse_config("seed = 3\n", base)
        assert cfg.enhance == base.enhance and cfg.enhance is not base.enhance
        assert cfg.endpoint is not base.endpoint


def _values(key, hi=None):
    """Values in key's declared range (RANGES), an integer one cut at hi if given."""
    kind, allowed = RANGES[key]
    if isinstance(allowed, tuple):
        return st.sampled_from(allowed)
    lo, top = (None if math.isinf(end) else kind(end) for end in (allowed.lo, allowed.hi))
    if kind is int:
        values = st.integers(lo, top if hi is None else hi)
    else:
        values = st.floats(lo, top, allow_nan=False, allow_infinity=False)
    return values.filter(allowed.__contains__)  # leaves out an open end


@st.composite
def tool_configs(draw):
    """Valid ToolConfigs, with and without the None ("auto"/"none") fields.

    Each field is drawn from its declared range, narrowed only by the rules
    across fields: num_ceps <= num_filters, low_freq_hz < high_freq_hz, an
    FFT size that is a power of two, and windows that fit in the longest
    utterance.
    """
    def section(name, cls, *later):
        """The fields of cls but those drawn later, each from its range or auto (None)."""
        values = {f.name: draw(_values(f"{name}.{f.name}"))
                  for f in fields(cls) if f.name not in later}
        for auto in ("fft_size", "high_freq_hz"):
            if auto in values and draw(st.booleans()):
                values[auto] = None
        if values.get("fft_size"):  # the largest power of two up to the drawn size
            values["fft_size"] = 1 << (values["fft_size"].bit_length() - 1)
        return values

    enhance = EnhanceConfig(**section("enhance", EnhanceConfig))
    features = section("features", FeatureConfig, "num_ceps", "delta_window")
    features["num_ceps"] = draw(_values("features.num_ceps", hi=features["num_filters"]))
    if features["high_freq_hz"] is not None:
        # both ranges run to inf, so the sorted pair stays in them
        band = sorted((features["low_freq_hz"], features["high_freq_hz"]))
        assume(band[0] < band[1])
        features["low_freq_hz"], features["high_freq_hz"] = band
    spec = FrameSpec(features["frame_ms"], features["overlap_fraction"])
    widest = (spec.frames_within(MAX_UTTERANCE_S) - 1) // 2
    assume(widest >= 1)
    features["delta_window"] = draw(_values("features.delta_window", hi=widest))
    endpoint = section("endpoint", EndpointConfig, "smooth_frames")
    spec = FrameSpec(endpoint["frame_ms"], endpoint["overlap_fraction"])
    endpoint["smooth_frames"] = draw(_values("endpoint.smooth_frames",
                                             hi=spec.frames_within(MAX_UTTERANCE_S)))
    path = st.text("abcxyz0123456789._/-", min_size=1, max_size=12)
    return ToolConfig(
        enhance=enhance,
        features=FeatureConfig(**features),
        endpoint=EndpointConfig(**endpoint),
        lexicon_path=draw(st.none() | path.filter(lambda p: p != "none")),
        seed=draw(_values("seed")),
    )


class TestDumpConfig:
    def test_round_trip_is_lossless(self):
        cfg = parse_config(
            "enhance.method = wiener\nenhance.beta = 0.02\n"
            "features.num_ceps = 12\nfeatures.fft_size = 1024\nseed = 9\n"
        )
        again = parse_config(dump_config(cfg))
        assert again == cfg
        assert dump_config(again) == dump_config(cfg)

    def test_default_round_trip(self):
        cfg = ToolConfig()
        assert parse_config(dump_config(cfg)) == cfg

    def test_lexicon_none_round_trip(self):
        cfg = parse_config("report.lexicon = words.csv\n")
        assert "report.lexicon = words.csv\n" in dump_config(cfg)
        cleared = parse_config("report.lexicon = none\n", cfg)
        assert cleared.lexicon_path is None
        assert "report.lexicon = none\n" in dump_config(cleared)

    def test_every_field_dumped_once_in_declaration_order(self):
        keys = [line.split(" = ", 1)[0] for line in dump_config(ToolConfig()).splitlines()]
        expected = [
            f"{section}.{f.name}"
            for section, cls in (("enhance", EnhanceConfig),
                                 ("features", FeatureConfig),
                                 ("endpoint", EndpointConfig))
            for f in fields(cls)
        ] + ["report.lexicon", "seed"]
        assert keys == expected
        assert set(Counter(keys).values()) == {1}

    @given(cfg=tool_configs())
    def test_generated_configs_round_trip(self, cfg):
        text = dump_config(cfg)
        assert parse_config(text) == cfg
        assert dump_config(parse_config(text)) == text

    def test_fingerprint_tracks_changes(self):
        base = ToolConfig()
        changed = parse_config("features.num_ceps = 10\n")
        assert config_fingerprint(base) != config_fingerprint(changed)
        assert config_fingerprint(base) == config_fingerprint(ToolConfig())


class TestLoadConfig:
    def test_reads_file(self, tmp_path):
        path = tmp_path / "tool.cfg"
        path.write_text("seed = 77\n")
        assert load_config(path).seed == 77
