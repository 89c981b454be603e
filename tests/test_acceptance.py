"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside the pytest verdicts.
"""

from dataclasses import replace

import numpy as np

from conftest import (
    SR,
    build_session,
    segmental_snr,
    tone,
    train_vocabulary,
    utterance,
    white_noise,
)
from oracles import dft_magnitude
from revspeech import (
    AudioBuffer,
    EnhanceConfig,
    FeatureConfig,
    FeatureMatrix,
    Lexicon,
    NoiseProfile,
    build_report,
    denoise,
    estimate_noise,
    extract,
    read_wav,
    render,
    reverse,
    train,
    transcribe,
    write_wav,
)
from revspeech.cli import run
from revspeech.features import hz_to_mel


def report(number, description, ok):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {description}")
    assert ok, f"criterion {number} failed: {description}"


class TestAcceptance:
    def test_01_feature_dimension(self):
        rng = np.random.default_rng(1)
        buf = AudioBuffer(rng.uniform(-0.5, 0.5, size=SR), SR)
        matrix = extract(buf, FeatureConfig())
        report(1, "default extraction yields 39 columns per frame",
               matrix.rows.shape[1] == 39)

    def test_02_dft_oracle_and_parseval(self):
        rng = np.random.default_rng(2)
        ok = True
        sizes = (64, 256, 1024)
        for i in range(100):
            n = sizes[i % len(sizes)]
            frame = rng.uniform(-1, 1, size=n)
            mags = dft_magnitude(frame, n)
            dft_matrix = np.exp(
                -2j * np.pi * np.outer(np.arange(n), np.arange(n)) / n
            )
            direct = np.abs(dft_matrix @ frame)
            ok &= np.max(np.abs(mags - direct)) / np.max(direct) < 1e-9
            time_energy = float(np.sum(frame**2))
            freq_energy = float(np.sum(mags**2) / n)
            ok &= abs(time_energy - freq_energy) / time_energy < 1e-9
        report(2, "DFT matches direct summation and Parseval within 1e-9", ok)

    def test_03_mel_formula(self):
        # frozen from a 50-digit Decimal evaluation of 2595*log10(1 + f/700)
        mel_700 = 781.17283874803120157965243181
        mel_1000 = 999.98553713962436886353968473
        ok = (
            hz_to_mel(0.0) == 0.0
            and abs(hz_to_mel(700.0) - mel_700) < 1e-9
            and abs(hz_to_mel(1000.0) - mel_1000) < 1e-9
        )
        report(3, "mel warp exact at 0 Hz and within 1e-9 at 700/1000 Hz", ok)

    def test_04_reversal_involution(self, tmp_path):
        rng = np.random.default_rng(4)
        ok = True
        for _ in range(1000):
            samples = rng.uniform(-1, 1, size=int(rng.integers(1, 500)))
            buf = AudioBuffer(samples, SR)
            ok &= np.array_equal(reverse(reverse(buf)).samples, samples)
        # and through the WAV round trip, within one quantization step
        for trial in range(20):
            samples = rng.uniform(-1, 1, size=400)
            path = tmp_path / f"rt{trial}.wav"
            write_wav(reverse(AudioBuffer(samples, SR)), path)
            back = reverse(read_wav(path))
            ok &= bool(np.max(np.abs(back.samples - samples)) <= 1.0 / 32767)
        report(4, "reverse is a bit-exact involution, WAV round trip within 1 step", ok)

    def test_05_enhancement_gain(self):
        cfg = EnhanceConfig()
        rng = np.random.default_rng(1234)
        clean = tone(440, 3.0)
        noise = white_noise(rng, 3.0, sigma=0.3 / np.sqrt(2))  # 0 dB SNR
        noisy = clean + noise
        profile = estimate_noise(AudioBuffer(noise, SR), cfg)

        base = segmental_snr(clean, noisy)
        subtraction = replace(cfg, method="spectral_subtraction")
        wiener = replace(cfg, method="wiener")
        gain_ss = segmental_snr(
            clean, denoise(AudioBuffer(noisy, SR), profile, subtraction).samples
        ) - base
        gain_wi = segmental_snr(
            clean, denoise(AudioBuffer(noisy, SR), profile, wiener).samples
        ) - base

        zero = NoiseProfile(np.zeros(257), 1)
        identity = denoise(AudioBuffer(noisy, SR), zero, subtraction)
        rel = np.linalg.norm(identity.samples - noisy) / np.linalg.norm(noisy)

        ok = gain_ss >= 5.0 and gain_wi >= 5.0 and rel < 1e-6
        report(
            5,
            f"segmental SNR gain >= 5 dB (subtraction {gain_ss:.1f}, wiener "
            f"{gain_wi:.1f}), identity reconstruction {rel:.2e}",
            ok,
        )

    def test_06_em_correctness(self):
        ok = True
        for seed in range(20):
            rng = np.random.default_rng(500 + seed)
            rows = np.concatenate(
                [
                    rng.normal(-1.5, 0.8, size=(100, 3)),
                    rng.normal(1.0, 1.2, size=(100, 3)),
                    rng.uniform(-3, 3, size=(50, 3)),
                ]
            )
            matrix = FeatureMatrix(rows, len(rows), "synthetic")
            _, training = train(matrix, 3, seed=seed)
            diffs = np.diff(training.log_likelihood_trace)
            ok &= bool(np.min(diffs, initial=0.0) >= -1e-8)

        rng = np.random.default_rng(6)
        rows = np.concatenate(
            [rng.normal(0.0, 1.0, size=500), rng.normal(10.0, 1.0, size=500)]
        )[:, None]
        model, _ = train(FeatureMatrix(rows, 1000, "synthetic"), 2, seed=3)
        means = np.sort(model.means[:, 0])
        ok &= abs(means[0]) < 0.2 and abs(means[1] - 10.0) < 0.2
        ok &= bool(np.all(np.abs(model.weights - 0.5) < 0.05))
        report(6, "EM log-likelihood monotone over 20 seeds; two-cluster fit "
                  "recovers means within 0.2 and weights within 0.05", ok)

    def test_07_recognition_accuracy(self):
        words = ("update", "login")  # disjoint stationary bands
        vocab = train_vocabulary(words, seed=11, utterances=50, components=2)
        rng = np.random.default_rng(900)
        correct_fwd = correct_rev = total = 0
        for word in words:
            for _ in range(20):
                take = utterance(word, rng)
                fwd = transcribe(take, vocab, "forward")
                rev = transcribe(take, vocab, "reverse")
                best_fwd = max(fwd.segments, key=lambda s: s.score)
                best_rev = max(rev.segments, key=lambda s: s.score)
                correct_fwd += best_fwd.label == word
                correct_rev += best_rev.label == word
                total += 1
        acc_fwd = correct_fwd / total
        acc_rev = correct_rev / total
        report(
            7,
            f"two-word held-out accuracy >= 90% (forward {acc_fwd:.0%}, "
            f"reversed {acc_rev:.0%})",
            acc_fwd >= 0.9 and acc_rev >= 0.9,
        )

    def test_08_end_to_end_fixture(self, fixture_vocabulary):
        buf, spans = build_session(np.random.default_rng(202))
        lexicon = Lexicon([("accept", "antonym-of", "reject")])
        meta = {
            "source_file": "fixture-session",
            "tool_config_fingerprint": "fixture",
            "timestamp": "",
        }

        def analyze() -> str:
            fwd = transcribe(buf, fixture_vocabulary, "forward")
            rev = transcribe(buf, fixture_vocabulary, "reverse")
            return render(build_report(fwd, rev, lexicon, meta), "structured")

        first = analyze()
        second = analyze()

        from revspeech import parse_report

        parsed = parse_report(first)
        ok = (
            [r.text for r in parsed.requirements] == ["accept", "update", "login"]
            and len(parsed.flagged) == 1
            and parsed.flagged[0].reverse_segment.label == "reject"
            and first == second
        )
        report(8, "fixture session gives 3 requirements, exactly 1 flagged pair, "
                  "byte-identical structured output", ok)

    def test_09_cli_determinism(self, tmp_path):
        rng = np.random.default_rng(77)
        take_paths = []
        for i in range(6):
            path = tmp_path / f"take{i}.wav"
            write_wav(utterance("update", rng), path)
            take_paths.append(str(path))
        other_paths = []
        for i in range(6):
            path = tmp_path / f"other{i}.wav"
            write_wav(utterance("login", rng), path)
            other_paths.append(str(path))

        def train_cli(label, paths, out):
            argv = ["train", "--label", label, "--components", "2", "--seed", "5",
                    "--out", str(out)]
            for p in paths:
                argv += ["--in", p]
            assert run(argv) == 0

        m1a, m1b = tmp_path / "m1a.gmm", tmp_path / "m1b.gmm"
        train_cli("update", take_paths, m1a)
        train_cli("update", take_paths, m1b)
        models_equal = m1a.read_bytes() == m1b.read_bytes()

        m2 = tmp_path / "m2.gmm"
        train_cli("login", other_paths, m2)

        session, _ = build_session(np.random.default_rng(202), words=("update", "login"))
        session_path = tmp_path / "session.wav"
        write_wav(session, session_path)
        out1, out2 = tmp_path / "a1", tmp_path / "a2"
        base = ["analyze", "--in", str(session_path), "--model", str(m1a),
                "--model", str(m2), "--seed", "5"]
        assert run(base + ["--out-dir", str(out1)]) == 0
        assert run(base + ["--out-dir", str(out2)]) == 0
        analyze_equal = (
            (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()
            and (out1 / "report.md").read_bytes() == (out2 / "report.md").read_bytes()
        )
        report(9, "train and analyze are byte-identical across consecutive runs",
               models_equal and analyze_equal)
