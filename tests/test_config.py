"""Config file parsing, dumping, and precedence."""

from collections import Counter
from dataclasses import fields

import pytest
from hypothesis import given
from hypothesis import strategies as st

from revspeech.config import (
    ToolConfig,
    config_fingerprint,
    dump_config,
    load_config,
    parse_config,
)
from revspeech.enhance import METHODS, EnhanceConfig
from revspeech.errors import ConfigError
from revspeech.features import FeatureConfig
from revspeech.recognizer import EndpointConfig


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

    @pytest.mark.parametrize("key", ["enhance.alpha", "enhance.frame_ms",
                                     "features.frame_ms", "features.high_freq_hz",
                                     "endpoint.energy_ratio"])
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

    def test_endpoint_edge_values_accepted(self):
        cfg = parse_config(
            "endpoint.smooth_frames = 1\nendpoint.merge_gap_ms = 0\n"
            "endpoint.min_utterance_ms = 0\nendpoint.overlap_fraction = 0\n"
        )
        assert cfg.endpoint.smooth_frames == 1
        assert cfg.endpoint.merge_gap_ms == 0.0

    def test_result_shares_no_section_with_base(self):
        base = ToolConfig()
        cfg = parse_config("seed = 3\n", base)
        assert cfg.enhance == base.enhance and cfg.enhance is not base.enhance
        assert cfg.endpoint is not base.endpoint


def _floats(lo, hi, **kw):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False, **kw)


@st.composite
def tool_configs(draw):
    """Valid ToolConfigs, with and without the None ("auto"/"none") fields."""
    fft_size = st.none() | st.sampled_from([256, 512, 1024, 2048])
    frame_ms = _floats(1.0, 100.0)
    overlap = _floats(0.0, 1.0, exclude_max=True)
    enhance = EnhanceConfig(
        method=draw(st.sampled_from(METHODS)),
        alpha=draw(_floats(1.0, 10.0)),
        beta=draw(_floats(0.0, 1.0, exclude_max=True)),
        fft_size=draw(fft_size),
        frame_ms=draw(frame_ms),
        overlap_fraction=draw(overlap),
        window_a=draw(_floats(0.0, 0.5)),
        vad_energy_ratio=draw(_floats(1.0, 10.0, exclude_min=True)),
    )
    num_filters = draw(st.integers(1, 64))
    low = draw(_floats(0.0, 4000.0))
    features = FeatureConfig(
        preemphasis_a=draw(_floats(0.0, 1.0, exclude_max=True)),
        frame_ms=draw(frame_ms),
        overlap_fraction=draw(overlap),
        window_a=draw(_floats(0.0, 0.5)),
        fft_size=draw(fft_size),
        num_filters=num_filters,
        num_ceps=draw(st.integers(1, num_filters)),
        delta_window=draw(st.integers(1, 5)),
        low_freq_hz=low,
        high_freq_hz=draw(st.none() | _floats(low + 1.0, 8000.0)),
    )
    endpoint = EndpointConfig(
        frame_ms=draw(frame_ms),
        overlap_fraction=draw(overlap),
        smooth_frames=draw(st.integers(1, 20)),
        energy_ratio=draw(_floats(0.0, 10.0, exclude_min=True)),
        merge_gap_ms=draw(_floats(0.0, 1000.0)),
        min_utterance_ms=draw(_floats(0.0, 1000.0)),
    )
    path = st.text("abcxyz0123456789._/-", min_size=1, max_size=12)
    return ToolConfig(
        enhance=enhance,
        features=features,
        endpoint=endpoint,
        lexicon_path=draw(st.none() | path.filter(lambda p: p != "none")),
        seed=draw(st.integers(0, 2**63)),
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
