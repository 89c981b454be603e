"""Mixture density, EM training, and model persistence checks."""

import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import utterance
from oracles import plain_em
from revspeech import (
    FeatureConfig,
    FeatureMatrix,
    GmmModel,
    extract,
    load_model,
    save_model,
    train,
)
from revspeech.errors import InsufficientDataError, ModelFormatError
from revspeech import gmm
from revspeech.gmm import (
    _e_step,
    _kmeans,
    log_joint_densities,
    logsumexp,
)


def matrix(rows, fingerprint="synthetic"):
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    return FeatureMatrix(rows, rows.shape[0], fingerprint)


def one_component(mean, variance):
    """A single diagonal Gaussian as a one-component mixture."""
    mean, variance = np.atleast_2d(mean), np.atleast_2d(variance)
    return GmmModel("one", mean.shape[1], [1.0], mean, variance, "synthetic")


def component_density(x, mean, variance):
    """One diagonal Gaussian's density at x, from the log-density routine."""
    x = np.atleast_2d(x)
    return float(np.exp(log_joint_densities(one_component(mean, variance), x, x * x)[0, 0]))


def log_likelihood(model, features):
    """Total log p(x | model) over the frames, from the joint log-densities."""
    rows = features.rows
    return float(np.sum(logsumexp(log_joint_densities(model, rows, rows * rows))))


def naive_mixture_loglik(model, rows):
    """Direct arithmetic, no log-sum-exp; valid at moderate magnitudes."""
    total = 0.0
    for x in rows:
        p = 0.0
        for w, mu, var in zip(model.weights, model.means, model.variances):
            norm = 1.0
            quad = 0.0
            for d in range(model.dim):
                norm *= 1.0 / math.sqrt(2 * math.pi * var[d])
                quad += (x[d] - mu[d]) ** 2 / var[d]
            p += w * norm * math.exp(-0.5 * quad)
        total += math.log(p)
    return total


def centred_log_densities(x, means, variances):
    """The (frames, components, dim) broadcast form of the log densities."""
    diff = x[:, None, :] - means[None, :, :]
    mahal = np.sum(diff * diff / variances[None, :, :], axis=2)
    log_norm = -0.5 * (x.shape[1] * np.log(2 * np.pi) + np.sum(np.log(variances), axis=1))
    return log_norm[None, :] - 0.5 * mahal


@pytest.fixture(scope="module")
def mfcc_rows():
    """Real 39-dim front-end output: c0 near -65 with variance near 400."""
    rng = np.random.default_rng(3)
    return np.vstack(
        [
            extract(utterance(word, rng), FeatureConfig()).rows
            for word in ("accept", "reject", "update", "login")
            for _ in range(3)
        ]
    )


class TestComponentDensity:
    def test_standard_normal_peak(self):
        value = component_density(np.array([0.0]), np.array([0.0]), np.array([1.0]))
        assert value == pytest.approx(1.0 / math.sqrt(2 * math.pi), rel=1e-12)

    def test_bivariate_identity_peak(self):
        value = component_density(np.zeros(2), np.zeros(2), np.ones(2))
        assert value == pytest.approx(1.0 / (2 * math.pi), rel=1e-12)

    def test_integrates_to_one(self):
        grid = np.linspace(-8.0, 8.0, 3201)
        density = np.array(
            [
                component_density(np.array([x]), np.array([0.5]), np.array([1.0]))
                for x in grid
            ]
        )
        integral = float(np.sum((density[1:] + density[:-1]) / 2 * np.diff(grid)))
        assert integral == pytest.approx(1.0, abs=1e-3)

    def test_log_space_matches_naive_arithmetic(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            x = rng.uniform(-3, 3, size=4)
            mu = rng.uniform(-3, 3, size=4)
            var = rng.uniform(0.5, 2.0, size=4)
            fast = component_density(x, mu, var)
            naive = np.prod(
                np.exp(-0.5 * (x - mu) ** 2 / var) / np.sqrt(2 * np.pi * var)
            )
            assert fast == pytest.approx(naive, rel=1e-9)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            component_density(np.zeros(3), np.zeros(2), np.ones(2))

    def test_variance_floor_enforced(self):
        with pytest.raises(ModelFormatError):
            GmmModel("a", 1, [1.0], np.zeros((1, 1)), np.array([[1e-9]]), "synthetic").validate()


class TestQuadraticForm:
    def test_matches_centred_form_at_mfcc_scale(self, mfcc_rows):
        rng = np.random.default_rng(11)
        k, dim = 16, mfcc_rows.shape[1]
        scale = np.full(dim, 10.0)
        scale[0] = 70.0
        means = rng.uniform(-1.0, 1.0, size=(k, dim)) * scale
        variances = np.exp(rng.uniform(np.log(0.04), np.log(400.0), size=(k, dim)))
        near = means[rng.integers(k, size=200)] + np.sqrt(0.04) * rng.standard_normal(
            (200, dim)
        )
        model = GmmModel("q", dim, np.full(k, 1.0 / k), means, variances, "synthetic")
        for x in (mfcc_rows, near):
            np.testing.assert_allclose(
                log_joint_densities(model, x, x * x),
                centred_log_densities(x, means, variances) + np.log(model.weights),
                rtol=1e-10,
            )

    def test_m_step_variances_match_centred_form(self, mfcc_rows):
        x = mfcc_rows
        rows = matrix(x)
        # max_iter=1 returns the model after one M-step, max_iter=2 after two
        before, _ = train(rows, 4, seed=0, max_iter=1)
        after, _ = train(rows, 4, seed=0, max_iter=2)
        resp, _ = _e_step(before, x, x * x)
        counts = resp.sum(axis=0)
        means = (resp.T @ x) / counts[:, None]
        centred = np.stack(
            [resp[:, j] @ (x - means[j]) ** 2 / counts[j] for j in range(4)]
        )
        np.testing.assert_allclose(after.means, means, rtol=1e-12)
        np.testing.assert_allclose(
            after.variances, np.maximum(centred, 1e-6), rtol=1e-10
        )

    def test_kmeans_assignment_is_exact_argmin(self):
        rng = np.random.default_rng(12)
        truth = rng.uniform(20.0, 120.0, size=(5, 6))
        labels = np.repeat(np.arange(5), 40)
        x = truth[labels] + rng.standard_normal((200, 6))
        (_, centers, _), assignment = _kmeans(x, x * x, 5, np.random.default_rng(0))
        exact = np.sum((x[:, None, :] - centers[None, :, :]) ** 2, axis=2)
        np.testing.assert_array_equal(assignment, np.argmin(exact, axis=1))
        # each recovered cluster is one planted cluster
        for j in range(5):
            assert len(set(labels[assignment == j])) == 1
        assert len(set(assignment)) == 5


class TestKmeans:
    def test_one_m_step_per_fit(self, mfcc_rows, monkeypatch):
        # Lloyd iterations move the centres to the cluster means alone; the
        # full M-step, variances included, runs once, on the final assignment
        m_step, calls = gmm._m_step, []

        def spy(resp, x, x_sq):
            calls.append(resp.copy())
            return m_step(resp, x, x_sq)

        monkeypatch.setattr(gmm, "_m_step", spy)
        x = mfcc_rows
        _, assignment = _kmeans(x, x * x, 16, np.random.default_rng(3))
        assert len(calls) == 1
        np.testing.assert_array_equal(calls[0], np.eye(16)[assignment])

    def test_lloyd_distances_to_the_m_step_means(self, mfcc_rows):
        # the Lloyd centres show only through argmin; the distances the
        # second iteration leaves in the workspace are, bit for bit, the
        # plain expression's to the M-step means of the first assignment
        x, k = mfcc_rows, 16
        _, first = _kmeans(x, x * x, k, np.random.default_rng(3), max_iter=1)
        work = gmm._workspace(len(x), k)
        _kmeans(x, x * x, k, np.random.default_rng(3), max_iter=2, work=work)
        resp = np.eye(k)[first]
        centers = (resp.T @ x) / np.maximum(resp.sum(axis=0), 1e-300)[:, None]
        want = (
            np.sum(x * x, axis=1)[:, None] - 2.0 * (x @ centers.T)
            + np.sum(centers * centers, axis=1)
        )
        np.testing.assert_array_equal(work[0].view(np.int64), want.view(np.int64))

    def test_two_clusters_emptied_at_once_reseed_on_distinct_points(self, monkeypatch):
        rng = np.random.default_rng(13)
        x = np.vstack([rng.normal(0.0, 0.1, (30, 2)), rng.normal(10.0, 0.1, (30, 2))])
        # the second and third start centers are nearest to no frame at all
        start = np.array([[5.0, 5.0], [1e3, 1e3], [-1e3, 1e3]])
        monkeypatch.setattr(gmm, "_kmeans_plusplus", lambda x, k, rng: start.copy())
        (_, centers, _), assignment = _kmeans(x, x * x, 3, rng, max_iter=1)
        assert np.array_equal(np.bincount(assignment, minlength=3), [58, 1, 1])
        assert not np.array_equal(centers[1], centers[2])
        _, assignment = _kmeans(x, x * x, 3, rng)
        assert np.all(np.bincount(assignment, minlength=3) > 0)

    def test_reseed_never_takes_the_last_member_of_a_cluster(self, monkeypatch):
        rng = np.random.default_rng(14)
        x = np.vstack([rng.normal(0.0, 0.1, (30, 2)), [[100.0, 0.0]]])
        # the outlier, farthest of all from its center, is its cluster's only member
        start = np.array([[0.0, 0.0], [50.0, 0.0], [-1e3, -1e3]])
        monkeypatch.setattr(gmm, "_kmeans_plusplus", lambda x, k, rng: start.copy())
        _, assignment = _kmeans(x, x * x, 3, rng, max_iter=1)
        assert assignment[-1] == 1
        assert np.array_equal(np.bincount(assignment, minlength=3), [29, 1, 1])


class TestLogsumexp:
    def test_matches_naive_small_values(self):
        values = np.array([[0.1, 0.7, -0.3], [1.0, 1.0, 1.0]])
        expected = np.log(np.sum(np.exp(values), axis=1))
        np.testing.assert_allclose(logsumexp(values), expected, rtol=1e-12)

    def test_stable_at_large_magnitudes(self):
        values = np.array([[-1000.0, -1000.0], [-np.inf, -np.inf], [np.nan, 0.0]])
        with np.errstate(divide="ignore", invalid="ignore"):
            out = logsumexp(values)
        assert out[0] == pytest.approx(-1000.0 + math.log(2))
        assert out[1] == -np.inf
        assert np.isnan(out[2])


_EXP_EDGES = [
    edge
    for bound in (gmm.EXP_FAST_FLOOR, gmm.EXP_ZERO_CEILING)
    for edge in (np.nextafter(bound, -np.inf), bound, np.nextafter(bound, np.inf))
]
_exp_arguments = st.one_of(
    st.sampled_from([np.nan, -np.nan, np.inf, -np.inf, -0.0, 0.0, -708.4, -745.1332, *_EXP_EDGES]),
    st.floats(gmm.EXP_ZERO_CEILING, gmm.EXP_FAST_FLOOR, exclude_min=True, exclude_max=True),
    st.floats(-800.0, 1.0),
    st.floats(allow_nan=True, allow_infinity=True),
)


@given(st.lists(_exp_arguments, min_size=1, max_size=40))
@example([np.nan, -np.inf, np.inf, -0.0, -700.0, -720.0, -745.5, -746.0])
def test_exp_is_np_exp_bit_for_bit(arguments):
    # up to 40 arguments span several SIMD vectors, each mixing every range;
    # the result is the same made by _exp, written into a buffer, or written
    # over the arguments themselves
    values = np.array(arguments)
    buf = np.full_like(values, 7.0)
    in_place = values.copy()
    with np.errstate(over="ignore", invalid="ignore"):
        expected = np.exp(values)
        made = gmm._exp(values)
        assert gmm._exp(values, out=buf) is buf
        assert gmm._exp(in_place, out=in_place) is in_place
    for got in (made, buf, in_place):
        np.testing.assert_array_equal(got.view(np.int64), expected.view(np.int64))


class TestLogLikelihood:
    def model(self):
        return GmmModel(
            label="a",
            dim=2,
            weights=np.array([0.6, 0.4]),
            means=np.array([[0.0, 0.0], [2.0, 1.0]]),
            variances=np.array([[1.0, 0.5], [0.7, 1.2]]),
            feature_fingerprint="synthetic",
        )

    def test_single_component_reduces_to_gaussian_sum(self):
        rng = np.random.default_rng(1)
        rows = rng.uniform(-2, 2, size=(40, 2))
        model = GmmModel(
            "a", 2, np.array([1.0]), np.zeros((1, 2)), np.ones((1, 2)), "synthetic"
        )
        expected = float(np.sum(log_joint_densities(model, rows, rows * rows)[:, 0]))
        assert log_likelihood(model, matrix(rows)) == pytest.approx(expected, rel=1e-12)

    def test_duplicated_rows_double_the_value(self):
        rng = np.random.default_rng(2)
        rows = rng.uniform(-2, 2, size=(25, 2))
        model = self.model()
        single = log_likelihood(model, matrix(rows))
        double = log_likelihood(model, matrix(np.vstack([rows, rows])))
        assert double == pytest.approx(2 * single, rel=1e-12)

    def test_matches_naive_arithmetic(self):
        rng = np.random.default_rng(3)
        rows = rng.uniform(-2, 3, size=(15, 2))
        model = self.model()
        assert log_likelihood(model, matrix(rows)) == pytest.approx(
            naive_mixture_loglik(model, rows), rel=1e-9
        )

    def test_weight_rescaling_preserves_value(self):
        rng = np.random.default_rng(4)
        rows = rng.uniform(-2, 2, size=(10, 2))
        model = self.model()
        scaled = GmmModel(
            model.label,
            model.dim,
            5.0 * model.weights / np.sum(5.0 * model.weights),
            model.means,
            model.variances,
            model.feature_fingerprint,
        )
        assert log_likelihood(scaled, matrix(rows)) == pytest.approx(
            log_likelihood(model, matrix(rows)), rel=1e-12
        )

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            log_likelihood(self.model(), matrix(np.zeros((5, 3))))

    def test_finite_for_outlier_frames(self):
        rows = np.full((3, 2), 1e3)
        assert np.isfinite(log_likelihood(self.model(), matrix(rows)))


class TestTrain:
    def test_single_component_closed_form(self):
        rng = np.random.default_rng(5)
        rows = rng.normal(3.0, 2.0, size=(100, 3))
        model, report = train(matrix(rows), 1, seed=0)
        np.testing.assert_allclose(model.means[0], rows.mean(axis=0), rtol=1e-12)
        np.testing.assert_allclose(
            model.variances[0], np.maximum(rows.var(axis=0), 1e-6), rtol=1e-12
        )
        assert model.weights[0] == 1.0
        assert report.converged

    def test_em_starts_from_centred_cluster_moments(self, mfcc_rows):
        x = mfcc_rows
        # max_iter=0 returns the start model; the same seed replays its k-means
        start, report = train(matrix(x), 4, seed=3, max_iter=0)
        _, assignment = _kmeans(x, x * x, 4, np.random.default_rng(3))
        assert report.iterations == 0
        for j in range(4):
            members = x[assignment == j]
            assert start.weights[j] == pytest.approx(len(members) / len(x), rel=1e-12)
            np.testing.assert_allclose(start.means[j], members.mean(axis=0), rtol=1e-10)
            np.testing.assert_allclose(
                start.variances[j], np.maximum(members.var(axis=0), 1e-6), rtol=1e-10
            )

    def test_two_separated_clusters_recovered(self):
        rng = np.random.default_rng(6)
        rows = np.concatenate(
            [rng.normal(0.0, 1.0, size=500), rng.normal(10.0, 1.0, size=500)]
        )[:, None]
        model, _ = train(matrix(rows), 2, seed=1)
        means = np.sort(model.means[:, 0])
        assert abs(means[0] - 0.0) < 0.2
        assert abs(means[1] - 10.0) < 0.2
        assert np.all(np.abs(model.weights - 0.5) < 0.05)

    def test_log_likelihood_trace_non_decreasing(self):
        for seed in range(6):
            rng = np.random.default_rng(100 + seed)
            rows = np.concatenate(
                [
                    rng.normal(-2, 1.0, size=(120, 4)),
                    rng.normal(1, 0.5, size=(120, 4)),
                    rng.uniform(-4, 4, size=(60, 4)),
                ]
            )
            _, report = train(matrix(rows), 3, seed=seed)
            diffs = np.diff(report.log_likelihood_trace)
            assert np.min(diffs, initial=0.0) >= -1e-8

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(7)
        rows = rng.normal(size=(80, 2))
        first, _ = train(matrix(rows), 2, seed=9)
        second, _ = train(matrix(rows), 2, seed=9)
        np.testing.assert_array_equal(first.weights, second.weights)
        np.testing.assert_array_equal(first.means, second.means)
        np.testing.assert_array_equal(first.variances, second.variances)

    def test_invariants_hold_on_output(self):
        rng = np.random.default_rng(8)
        rows = rng.normal(size=(60, 2))
        model, _ = train(matrix(rows), 4, seed=2)
        assert np.sum(model.weights) == pytest.approx(1.0, abs=1e-9)
        assert np.all(model.weights >= 1e-8)
        assert np.all(model.variances >= 1e-6)

    def test_responsibilities_sum_to_one(self):
        rng = np.random.default_rng(9)
        rows = rng.normal(size=(50, 2))
        model, _ = train(matrix(rows), 3, seed=3)
        resp, _ = _e_step(model, rows, rows * rows)
        np.testing.assert_allclose(resp.sum(axis=1), np.ones(50), atol=1e-12)

    def test_joint_density_serves_likelihood_and_responsibilities(self):
        rng = np.random.default_rng(19)
        rows = rng.standard_normal((40, 3))
        model, _ = train(matrix(rows), 3, seed=2)
        joint = log_joint_densities(model, rows, rows * rows)
        np.testing.assert_allclose(
            joint,
            centred_log_densities(rows, model.means, model.variances) + np.log(model.weights),
            rtol=1e-10,
        )
        frame_ll = logsumexp(joint)
        resp, e_step_ll = _e_step(model, rows, rows * rows)
        np.testing.assert_array_equal(resp, np.exp(joint - frame_ll[:, None]))
        np.testing.assert_array_equal(e_step_ll, frame_ll)

    def test_workspace_calls_equal_the_allocating_ones(self, mfcc_rows):
        # buffers filled with NaN first, so a value left unwritten shows; the
        # references are the expressions EM evaluated before it had buffers
        x, k = mfcc_rows, 16
        model, _ = train(matrix(x), k, seed=3, max_iter=3)
        log_norm, precisions, scaled_means, mean_term, log_weights = gmm.density_constants(model)
        joint = (
            log_norm
            - 0.5 * ((x * x) @ precisions.T - 2.0 * (x @ scaled_means.T) + mean_term)
            + log_weights
        )
        frame_ll = logsumexp(joint)
        resp = np.exp(joint - frame_ll[:, None])
        assert np.mean(joint - frame_ll[:, None] < gmm.EXP_FAST_FLOOR) > 0.3
        out, scratch = np.full((2, len(x), k), np.nan)
        assert log_joint_densities(model, x, x * x, out=out, scratch=scratch) is out
        work = np.full((2, len(x), k), np.nan)
        got_resp, got_ll = _e_step(model, x, x * x, work)
        assert np.shares_memory(got_resp, work)
        for got, want in [
            (out, joint), (log_joint_densities(model, x, x * x), joint),
            (got_resp, resp), (got_ll, frame_ll),
            *zip(_e_step(model, x, x * x), (resp, frame_ll)),
        ]:
            np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))

    def test_insufficient_data_rejected(self):
        rows = np.zeros((5, 2))
        with pytest.raises(InsufficientDataError):
            train(matrix(rows), 3, seed=0)

    @pytest.mark.parametrize("components, distinct", [(1, 1), (4, 1), (4, 3)])
    def test_too_few_distinct_frames_rejected(self, components, distinct):
        rows = np.arange(distinct * 3.0).reshape(distinct, 3)[np.arange(80) % distinct]
        with pytest.raises(InsufficientDataError, match=f"^{distinct} distinct"):
            train(matrix(rows), components, seed=0)

    def test_rows_differing_in_the_sign_of_zero_are_one_frame(self):
        # np.unique(axis=0) counts these 4 rows as 2; so does training
        rows = np.array([[0.0, 1.0], [-0.0, 1.0], [2.0, -0.0], [2.0, 0.0]])
        with pytest.raises(InsufficientDataError, match="^2 distinct"):
            train(matrix(rows[np.arange(40) % 4]), 3, seed=0)
        model, _ = train(matrix(rows[np.arange(40) % 4]), 2, seed=0)
        np.testing.assert_array_equal(np.sort(model.means[:, 0]), [0.0, 2.0])

    def test_two_distinct_frames_train_one_component(self):
        rows = np.array([[0.0, 1.0], [2.0, 3.0]])[np.arange(40) % 2]
        model, _ = train(matrix(rows), 1, seed=0)
        np.testing.assert_allclose(model.means[0], [1.0, 2.0])


class TestAgainstPlainEm:
    """train against oracles.plain_em, bit for bit, trace and iteration count included."""

    def assert_same_fit(self, x, k, seed):
        model, report = train(matrix(x), k, seed=seed)
        ref = plain_em(x, k, seed)
        for name in ("weights", "means", "variances"):
            np.testing.assert_array_equal(
                getattr(model, name).view(np.int64), ref[name].view(np.int64)
            )
        assert report.log_likelihood_trace == ref["trace"]
        assert (report.iterations, report.converged) == (ref["iterations"], ref["converged"])
        return ref

    @pytest.mark.parametrize("k, tiny_share", [(4, 0.4), (16, 0.5)])
    def test_word_features(self, mfcc_rows, k, tiny_share):
        # most memberships are exp of an exponent below -700: 0 or subnormal
        ref = self.assert_same_fit(mfcc_rows, k, seed=3)
        assert ref["tiny_share"] >= tiny_share
        assert ref["iterations"] > 10

    def test_soft_memberships(self):
        # 16 overlapping components: each row sums many comparable terms,
        # whose rounding depends on numpy's pairwise summation order
        x = np.random.default_rng(20).standard_normal((400, 3))
        self.assert_same_fit(x, 16, seed=0)

    def test_kmeans_reseeds_an_empty_cluster(self):
        # 5e7 from the origin, expanded distances round by about 1, so a
        # point can land nearer another center than its own and empty it
        x = 5e7 + np.random.default_rng(1).standard_normal((40, 2))
        ref = self.assert_same_fit(x, 4, seed=1)
        assert ref["reseeds"] > 0


class TestPersistence:
    def trained(self, tmp_path):
        rng = np.random.default_rng(10)
        rows = rng.normal(size=(60, 3))
        model, _ = train(matrix(rows, "fp-abc"), 2, seed=4, label="word")
        path = tmp_path / "word.gmm"
        save_model(model, path)
        return model, path

    def test_round_trip_is_exact(self, tmp_path):
        model, path = self.trained(tmp_path)
        loaded = load_model(path)
        assert loaded.label == model.label
        assert loaded.dim == model.dim
        assert loaded.feature_fingerprint == "fp-abc"
        np.testing.assert_array_equal(loaded.weights, model.weights)
        np.testing.assert_array_equal(loaded.means, model.means)
        np.testing.assert_array_equal(loaded.variances, model.variances)

    def test_tampered_weights_rejected(self, tmp_path):
        _, path = self.trained(tmp_path)
        lines = path.read_text().splitlines()
        for i, line in enumerate(lines):
            if line.startswith("weights:"):
                values = [0.9 * float(v) for v in line.split(":")[1].split()]
                lines[i] = "weights: " + " ".join(repr(v) for v in values)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ModelFormatError):
            load_model(path)

    def test_version_mismatch_rejected(self, tmp_path):
        _, path = self.trained(tmp_path)
        text = path.read_text().replace("gmm-v1", "gmm-v2", 1)
        path.write_text(text)
        with pytest.raises(ModelFormatError):
            load_model(path)

    def test_malformed_document_rejected(self, tmp_path):
        path = tmp_path / "bad.gmm"
        path.write_text("gmm-v1\nlabel: x\ndim: zzz\n")
        with pytest.raises(ModelFormatError):
            load_model(path)

    @pytest.mark.parametrize(
        "extra, key",
        [
            ("weights: 0.5 0.5", "weights"),
            ("label: other", "label"),
            ("bogus: 1", "bogus"),
            ("mean 2: 0 0 0", "mean 2"),
            ("variance 2: 1 1 1", "variance 2"),
        ],
    )
    def test_repeated_or_unknown_key_rejected(self, tmp_path, extra, key):
        # the two-component model has mean 0, mean 1, variance 0, variance 1
        _, path = self.trained(tmp_path)
        path.write_text(path.read_text() + extra + "\n")
        with pytest.raises(ModelFormatError, match=f"'{key}'"):
            load_model(path)

    def test_rng_line_is_optional(self, tmp_path):
        model, path = self.trained(tmp_path)
        lines = [line for line in path.read_text().splitlines() if not line.startswith("rng:")]
        path.write_text("\n".join(lines) + "\n")
        np.testing.assert_array_equal(load_model(path).means, model.means)

    @pytest.mark.parametrize("label", [" word", "word ", "wo\nrd", "word\r"])
    def test_label_that_would_not_load_back_is_never_written(self, tmp_path, label):
        model, _ = self.trained(tmp_path)
        model.label = label
        path = tmp_path / "bad-label.gmm"
        with pytest.raises(ModelFormatError, match="would not load back"):
            save_model(model, path)
        assert not path.exists()

    def test_negative_variance_rejected(self, tmp_path):
        _, path = self.trained(tmp_path)
        lines = path.read_text().splitlines()
        for i, line in enumerate(lines):
            if line.startswith("variance 0:"):
                count = len(line.split(":")[1].split())
                lines[i] = "variance 0: " + " ".join(["-1.0"] * count)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ModelFormatError):
            load_model(path)


_finite = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def gmm_models(draw):
    k = draw(st.integers(1, 4))
    dim = draw(st.integers(1, 5))
    raw = np.array(draw(st.lists(st.floats(1e-3, 1.0), min_size=k, max_size=k)))
    values = st.lists(_finite, min_size=k * dim, max_size=k * dim)
    variances = st.lists(st.floats(1e-6, 1e300), min_size=k * dim, max_size=k * dim)
    name = st.text("abcxyz019_-", min_size=1, max_size=12)
    return GmmModel(
        draw(name),
        dim,
        raw / raw.sum(),
        np.reshape(draw(values), (k, dim)),
        np.reshape(draw(variances), (k, dim)),
        draw(name),
    )


@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=40))
@example([-0.0, 0.0, 5e-324, -2.225073858507201e-308, 2.2250738585072014e-308,
          0.1, 1 / 3, -123456.78901234567, 9007199254740993.0, 1.7976931348623157e308,
          gmm.WEIGHT_FLOOR, gmm.VARIANCE_FLOOR, gmm.WEIGHT_SUM_TOL])
def test_format_floats_is_the_per_value_format(values):
    # -0.0, subnormals, 17-digit values and the floors: the bytes of a .gmm
    # file are those each value's f-string gave
    values = np.array(values, dtype=np.float64)
    assert gmm._format_floats(values) == " ".join(f"{v:.17g}" for v in values)


@given(gmm_models())
def test_save_load_round_trip_is_exact(model):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.gmm"
        save_model(model, path)
        loaded = load_model(path)
    assert (loaded.label, loaded.dim, loaded.feature_fingerprint) == (
        model.label,
        model.dim,
        model.feature_fingerprint,
    )
    for name in ("weights", "means", "variances"):
        np.testing.assert_array_equal(getattr(loaded, name), getattr(model, name))
