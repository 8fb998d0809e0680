"""Sampling models, the k-NN estimator, and the verification harness.

Claims:
    - samples have the documented moments and exact block independence
    - Gaussian blocks reject a covariance that is not symmetric positive
      definite when they are built, the upper triangle included, and
      mixture blocks reject a variance that is not finite and positive
    - closed-form entropies match textbook values; the two-component
      mixture's radial quadrature is within 1e-12 of an mpmath reference
      in dimensions 1 to 9, with variances up to 400 apart, and within
      1e-12 (1 + |h|) up to dimension 400, consistent with a large-sample k-NN
      estimate, and exact in the empirical objective in any dimension;
      its nodes are built once per process, on first use
    - under the mixture model an image of dimension <= 2 is a Gaussian
      mixture whose entropy is a quadrature: within 1e-12 of mpmath in
      1-D and of the Gaussian entropy for one component, unmoved beyond
      1e-10 by other rules, within 3 k-NN standard errors of the k-NN
      estimate on the benchmark data, inside its rounding floor where
      F = M for every law, and drawn without samples
    - the k-NN estimator is calibrated on known densities, translation
      invariant, scale equivariant, and survives duplicate samples
    - the empirical objective reproduces hand values for the entropy
      power datum and is consistent with the exact Gaussian objective
    - verification passes where the inequality holds and fails on a
      deliberately corrupted reference
"""

import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import blepi
from blepi.datum import Datum, Partition
from blepi.estimate import (
    GaussianBlock,
    LaplaceBlock,
    SampleModel,
    TwoGaussianMixBlock,
    UniformBoxBlock,
    empirical_f,
    empirical_f_detailed,
    exact_entropy,
    gaussian_model,
    knn_entropy,
    laplace_model,
    mixture_model,
    sample,
    uniform_model,
    verify_inequality,
)
from blepi.estimate import (
    _angle_rule,
    _image_components,
    _kth_neighbor_distances,
    _mixture_entropy,
    _quadrature_entropy,
    _radial_rule,
)
from blepi.gauss import BlockCovariance, gaussian_entropy, objective

N_FAST = 20_000

# the default mixture's entropy in one and two dimensions, bit for bit
PIN_1D = 1.5116719148710889
PIN_2D = 3.011192417315935


def _mpmath_mixture_entropy(weight, var_a, var_b, dim):
    """-S_{dim-1} int_0^inf rho^(dim-1) f log f, at 30 digits."""
    with mpmath.workdps(30):
        half = mpmath.mpf(dim) / 2
        w = mpmath.mpf(weight)
        comps = [(w, mpmath.mpf(var_a)), (1 - w, mpmath.mpf(var_b))]

        def f(r):
            return sum(
                c * (2 * mpmath.pi * v) ** -half * mpmath.exp(-r * r / (2 * v)) for c, v in comps
            )

        sphere = 2 * mpmath.pi**half / mpmath.gamma(half)
        integral = mpmath.quad(
            lambda r: r ** (dim - 1) * f(r) * mpmath.log(f(r)), [0, 1, 2, 4, 8, 16, 32, mpmath.inf]
        )
        return float(-sphere * integral)


def _verify_data(seed):
    """The benchmark's ``verify_items(seed)``: coupled sums, a 2-D entropy
    power datum and Zamir-Feder 5x2, each with its closed-form optimum."""
    rng = np.random.default_rng([seed, 4])
    lam = float(rng.uniform(0.2, 0.8))
    delta = rng.uniform(0.3, 1.0)
    beta = rng.uniform(0.1, min(0.9, 1.9 * delta))
    alpha = 1.0 + delta - beta / 2.0
    Q, _ = np.linalg.qr(rng.standard_normal((5, 2)))
    return [
        (blepi.make_coupled_sums_datum(alpha, beta, delta, delta),
         blepi.coupled_sums_constant(alpha, beta, delta)[0]),
        (blepi.make_epi_datum(lam, 2), blepi.epi_mg(lam, 2)),
        (blepi.make_zamir_feder_datum(Q.T), 0.0),
    ]


def _cli_rng():
    """The generator ``blepi verify`` samples from at its default seed."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(0, spawn_key=(1,))))


class TestSampling:
    def test_uniform_box_moments(self, rng):
        model = uniform_model(Partition((1,)))
        x = sample(model, 100_000, rng)
        assert x.var() == pytest.approx(1.0 / 12.0, abs=3 * 0.004)
        assert abs(x.mean()) < 0.005

    def test_gaussian_second_moment(self, rng):
        model = gaussian_model(Partition((1,)))
        x = sample(model, 100_000, rng)
        assert (x**2).mean() == pytest.approx(1.0, abs=0.02)

    def test_cross_block_independence(self, rng):
        model = laplace_model(Partition((1, 1)))
        x = sample(model, 100_000, rng)
        corr = np.corrcoef(x.T)[0, 1]
        assert abs(corr) < 0.01


# np.linalg.cholesky reads only the lower triangle, so it accepts this
_UPPER_ONLY = [[1.0, 5.0], [0.0, 1.0]]


class TestBlockCovariances:
    @pytest.mark.parametrize(
        "cov, match",
        [(_UPPER_ONLY, "not symmetric"), ([[1.0, 2.0], [2.0, 1.0]], "not positive definite")],
    )
    def test_gaussian_block_rejects_a_non_spd_covariance(self, cov, match):
        with pytest.raises(ValueError, match=match):
            GaussianBlock(cov)

    @pytest.mark.parametrize("which", ["first", "second"])
    def test_mixture_block_rejects_a_bad_variance(self, which):
        name = {"first": "var_a", "second": "var_b"}[which]
        for bad in (0.0, -1.0, np.inf, np.nan):
            variances = {"var_a": 0.5, "var_b": 2.0, name: bad}
            with pytest.raises(ValueError, match=f"^mixture variance {name} must be finite"):
                TwoGaussianMixBlock(0.5, dim=2, **variances)


class TestExactEntropy:
    def test_uniform(self):
        model = SampleModel("u", (UniformBoxBlock(np.array([1.0])),))
        assert exact_entropy(model, 0) == 0.0

    def test_laplace(self):
        model = SampleModel("l", (LaplaceBlock(np.array([1.0])),))
        assert exact_entropy(model, 0) == pytest.approx(1.0 + math.log(2.0), abs=1e-12)

    def test_gaussian(self):
        model = SampleModel("g", (GaussianBlock(np.eye(1)),))
        assert exact_entropy(model, 0) == pytest.approx(1.4189385332046727, abs=1e-12)

    @pytest.mark.scipy
    def test_mixture_quadrature_against_knn(self, rng):
        block = TwoGaussianMixBlock(0.5, 0.5, 2.0, 1)
        model = SampleModel("m", (block,))
        exact = exact_entropy(model, 0)
        est = knn_entropy(sample(model, 50_000, rng), k=3)
        assert est.value == pytest.approx(exact, abs=0.02)

    @pytest.mark.parametrize("dim, value", [(1, PIN_1D), (2, PIN_2D)], ids=["1d", "2d"])
    def test_mixture_quadrature_is_pinned(self, dim, value):
        assert TwoGaussianMixBlock(0.5, 0.5, 2.0, dim).entropy() == value

    @pytest.mark.parametrize(
        "weight, var_a, var_b, dim",
        [(*mix, dim) for mix in [(0.5, 0.5, 2.0), (0.3, 0.1, 5.0)] for dim in (1, 2, 3, 5)]
        # variances far apart in high dimension, where one panel over
        # [0, 12 sqrt(max var)] was off by 8.4e-11, 5.4e-10 and 3.3e-9
        + [(0.3, 0.1, 5.0, 9), (0.5, 0.01, 1.0, 8), (0.1, 0.01, 4.0, 5)],
    )
    def test_mixture_quadrature_matches_mpmath(self, weight, var_a, var_b, dim):
        value = TwoGaussianMixBlock(weight, var_a, var_b, dim).entropy()
        assert abs(value - _mpmath_mixture_entropy(weight, var_a, var_b, dim)) <= 1e-12

    @pytest.mark.parametrize("dim", [30, 60, 100, 200, 400])
    def test_high_dimensional_mixture_matches_mpmath(self, dim):
        """Past dimension 10 the radial panels reach past the chi bulk at
        sqrt(dim - 1) s, where 12 s lost 5.3e-7 at 60 and 166 nats at 200,
        and rho^(dim-1) no longer overflows (at 400); a RuntimeWarning
        fails the run."""
        value = TwoGaussianMixBlock(0.5, 0.5, 2.0, dim).entropy()
        reference = _mpmath_mixture_entropy(0.5, 0.5, 2.0, dim)
        assert abs(value - reference) <= 1e-12 * (1.0 + abs(reference))

    def test_degenerate_mixture_matches_gaussian(self):
        block = TwoGaussianMixBlock(0.5, 1.0, 1.0, 2)
        model = SampleModel("m", (block,))
        assert exact_entropy(model, 0) == pytest.approx(2 * 1.4189385332046727, abs=1e-8)

    def test_high_dimensional_mixture_term_is_closed_form(self, rng):
        d = Datum(
            partition=Partition((3,)),
            maps=(np.eye(3)[:2], np.eye(3)[2:]),
            c=np.array([1.0, 1.0]),
            d=np.array([1.0]),
        )
        block = TwoGaussianMixBlock(0.5, 0.5, 2.0, 3)
        _, terms = empirical_f_detailed(d, SampleModel("m", (block,)), 2_000, 3, rng)
        assert terms[0].term == "h(block[0])"
        assert terms[0].estimate.method == "closed_form"
        assert terms[0].estimate.value == block.entropy()
        assert [t.estimate.method for t in terms[1:]] == ["quadrature", "quadrature"]
        # a coordinate projection of the block is the same mixture in 2-D and 1-D
        for t, dim in zip(terms[1:], (2, 1)):
            assert abs(t.estimate.value - TwoGaussianMixBlock(0.5, 0.5, 2.0, dim).entropy()) <= 1e-12

    def test_radial_nodes_are_built_once_on_first_use(self):
        _radial_rule.cache_clear()
        for dim in (1, 2, 3):
            TwoGaussianMixBlock(0.5, 0.5, 2.0, dim).entropy()
        info = _radial_rule.cache_info()
        assert (info.misses, info.hits) == (1, 2)


def _mpmath_scalar_image_entropy(row, blocks):
    """h(row . X) for scalar two-Gaussian mixture blocks, at 30 digits."""
    with mpmath.workdps(30):
        comps = [(mpmath.mpf(1), mpmath.mpf(0))]
        for a, b in zip(row, blocks):
            a2 = mpmath.mpf(a) ** 2
            w = mpmath.mpf(b.weight)
            comps = [
                (cw * pw, cv + a2 * v)
                for cw, cv in comps
                for pw, v in ((w, b.var_a), (1 - w, b.var_b))
            ]

        def f(x):
            return sum(w * mpmath.exp(-x * x / (2 * v)) / mpmath.sqrt(2 * mpmath.pi * v) for w, v in comps)

        cuts = [0, 0.5, 1, 2, 4, 8, 16, 32, 64, mpmath.inf]
        return float(-2 * mpmath.quad(lambda x: f(x) * mpmath.log(f(x)), cuts))


class TestImageQuadrature:
    @pytest.mark.parametrize(
        "row, mixes",
        [
            ((0.8, -1.3), [(0.5, 0.5, 2.0)] * 2),
            ((0.3, 2.0), [(0.1, 0.01, 4.0), (0.7, 0.05, 20.0)]),
        ],
    )
    def test_scalar_image_matches_mpmath(self, row, mixes):
        blocks = tuple(TwoGaussianMixBlock(*mix, 1) for mix in mixes)
        est = _quadrature_entropy(SampleModel("m", blocks), np.array([row]))
        assert est.method == "quadrature" and (est.n_samples, est.k_neighbors) == (0, 0)
        assert abs(est.value - _mpmath_scalar_image_entropy(row, blocks)) <= 1e-12

    @pytest.mark.parametrize("cov", [[[2.0]], [[2.0, 0.3], [0.3, 0.7]], [[1.0, 0.999], [0.999, 1.0]]])
    def test_one_component_is_the_gaussian_entropy(self, cov):
        cov = np.array(cov)
        assert abs(_mixture_entropy(np.ones(1), cov[None]) - gaussian_entropy(cov)) <= 1e-12

    def test_equal_covariances_are_merged(self):
        # lam = 0.5: the two mixed picks give one covariance, 1.25 I
        weights, covs = _image_components(mixture_model(Partition((2, 2))).blocks,
                                          blepi.make_epi_datum(0.5, 2).maps[0])
        assert len(covs) == 3 and sorted(weights) == [0.25, 0.25, 0.5]

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_other_rules_agree_on_the_benchmark_images(self, seed):
        for datum, _ in _verify_data(seed):
            blocks = mixture_model(datum.partition).blocks
            for A in datum.maps:
                parts = _image_components(blocks, A)
                value = _mixture_entropy(*parts)
                for rule in [(32, 40), (64, 80), (256, 320)]:
                    assert abs(_mixture_entropy(*parts, rule=rule) - value) <= 1e-10
                assert _quadrature_entropy(SampleModel("m", blocks), A).std_error <= 1e-10

    def test_benchmark_margins(self):
        margins = [
            empirical_f(datum, mixture_model(datum.partition)).value - mg
            for datum, mg in _verify_data(1)
        ]
        assert [round(m, 4) for m in margins] == [-0.1685, -0.0359, -0.0276]

    @pytest.mark.scipy
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_exact_margins_lie_within_3_se_of_knn(self, seed):
        for datum, mg in _verify_data(seed):
            model = mixture_model(datum.partition)
            exact = empirical_f(datum, model)
            X = sample(model, 50_000, _cli_rng())
            knn = [knn_entropy(X @ A.T, k=3) for A in datum.maps]
            blocks = sum(di * exact_entropy(model, i) for i, di in enumerate(datum.d))
            value = blocks - sum(cj * e.value for cj, e in zip(datum.c, knn))
            se = math.sqrt(sum((cj * e.std_error) ** 2 for cj, e in zip(datum.c, knn)))
            assert abs(exact.value - value) <= 3 * se

    @pytest.mark.parametrize(
        "maps, blocks",
        [
            ((np.diag([2.0, 3.0]),), (1, 1)),
            ((np.eye(2),), (1, 1)),
            ((np.array([[2.0, 1.0], [0.5, 3.0]]),), (2,)),
        ],
        ids=["diag", "identity", "one-block"],
    )
    def test_identity_in_law_passes_within_the_rounding_floor(self, maps, blocks):
        """F = M for every law on these data (h(A X) = h(X) + log |det A|),
        so the margin is rounding; it stays inside one error bar."""
        d = Datum(partition=Partition(blocks), maps=maps, c=np.array([1.0]), d=np.ones(len(blocks)))
        mg = blepi.solve_mg(d).mg_value
        [report] = verify_inequality(d, [mixture_model(d.partition)], mg)
        assert report.empirical_f.method == "quadrature"
        assert report.passed and report.z_score <= 1.0

    def test_an_exact_model_draws_no_samples(self):
        d = blepi.make_coupled_sums_datum(1.25, 0.5, 0.5, 0.5)
        rng = np.random.default_rng(3)
        before = rng.bit_generator.state
        est, terms = empirical_f_detailed(d, mixture_model(d.partition), rng=rng)
        assert rng.bit_generator.state == before
        assert (est.method, est.n_samples, est.k_neighbors) == ("quadrature", 0, 0)
        assert {t.estimate.method for t in terms[2:]} == {"quadrature"}

    @pytest.mark.scipy
    def test_a_wide_image_or_many_components_go_to_knn(self, rng):
        # a 3-D image, and a generic row over ten scalar blocks (2^10 components)
        d = Datum(
            partition=Partition((1,) * 10),
            maps=(np.eye(10)[:3], np.random.default_rng(0).standard_normal((1, 10)), np.eye(10)[3:5]),
            c=np.array([1.0, 1.0, 1.0]),
            d=np.ones(10),
        )
        est, terms = empirical_f_detailed(d, mixture_model(d.partition), 2_000, 3, rng)
        assert [t.estimate.method for t in terms[10:]] == ["knn", "knn", "quadrature"]
        assert (est.method, est.n_samples) == ("knn", 2_000)

    def test_rules_are_built_once_on_first_use(self):
        _angle_rule.cache_clear()
        _radial_rule.cache_clear()
        # the 2-D image of coupled sums is not isotropic, so it takes the angle rule
        d = blepi.make_coupled_sums_datum(1.25, 0.5, 0.5, 0.5)
        for _ in range(3):
            empirical_f(d, mixture_model(d.partition))
        # 128 and 64 angles; 160 (blocks and images) and 80 radial nodes
        assert (_angle_rule.cache_info().misses, _radial_rule.cache_info().misses) == (2, 2)

    @pytest.mark.parametrize("lam", [0.3, 0.5])
    def test_an_isotropic_image_takes_one_ray(self, lam):
        # every component of the entropy power image is a multiple of I
        _angle_rule.cache_clear()
        d = blepi.make_epi_datum(lam, 2)
        parts = _image_components(mixture_model(d.partition).blocks, d.maps[0])
        value = _mixture_entropy(*parts)
        assert _angle_rule.cache_info().misses == 0
        # the 2-D angle rule on the same components agrees
        weights, covs = parts
        tilted = covs.copy()
        tilted[:, 0, 1] = tilted[:, 1, 0] = 1e-300
        assert abs(_mixture_entropy(weights, tilted) - value) <= 1e-13
        assert _angle_rule.cache_info().misses == 1


class TestKnnEntropy:
    @pytest.mark.scipy
    def test_translation_invariance(self, rng):
        x = rng.standard_normal((5_000, 2))
        a = knn_entropy(x, k=3)
        b = knn_entropy(x + 7.0, k=3)
        assert b.value == pytest.approx(a.value, abs=1e-9)

    @pytest.mark.scipy
    def test_scale_equivariance(self, rng):
        x = rng.standard_normal((5_000, 2))
        a = knn_entropy(x, k=3)
        b = knn_entropy(2.0 * x, k=3)  # power of two: distances scale exactly
        assert b.value == pytest.approx(a.value + 2 * math.log(2.0), abs=1e-10)

    @pytest.mark.scipy
    def test_duplicates_jittered_with_warning(self, rng):
        x = np.repeat(rng.standard_normal((500, 1)), 4, axis=0)
        with pytest.warns(RuntimeWarning, match="jitter"):
            est = knn_entropy(x, k=3, rng=rng)
        assert math.isfinite(est.value)

    @pytest.mark.scipy
    def test_jitter_survives_rounding_at_large_offset(self, rng):
        # one ulp of 1e6 is 1.2e-10: a jitter of 1e-12 times the standard
        # deviation (0.014) would vanish in rounding and leave zero distances
        x = 1e6 + np.repeat(np.arange(50.0), 6)[:, None] * 1e-3
        with pytest.warns(RuntimeWarning, match="jitter"):
            est = knn_entropy(x, k=3, rng=rng)
        assert math.isfinite(est.value) and math.isfinite(est.std_error)

    def test_duplicates_left_after_jitter_rejected(self):
        class NoJitter:
            def normal(self, loc, scale, size):
                return np.zeros(size)

        x = np.repeat(np.arange(20.0), 4)[:, None]
        with pytest.warns(RuntimeWarning, match="jitter"):
            with pytest.raises(ValueError, match="after jitter"):
                knn_entropy(x, k=3, rng=NoJitter())

    @pytest.mark.scipy
    def test_high_dimension_warns(self, rng):
        x = rng.standard_normal((300, 9))
        with pytest.warns(RuntimeWarning, match="dimension"):
            knn_entropy(x, k=3)

    def test_needs_enough_samples(self, rng):
        # n < 10 used to leave empty batches and a NaN standard error
        for n, k in [(3, 3), (8, 3), (9, 1), (9, 8), (10, 10), (50, 0), (50, -2)]:
            with pytest.raises(ValueError, match="need"):
                knn_entropy(rng.standard_normal((n, 1)), k=k)

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_samples_rejected(self, rng, d, bad):
        x = rng.standard_normal((50, d))
        x[3, 0] = bad
        with pytest.raises(ValueError, match="finite"):
            knn_entropy(x, k=3)

    @pytest.mark.scipy
    @pytest.mark.parametrize("n, k", [(10, 1), (10, 9)])
    def test_smallest_sample_is_estimated(self, rng, n, k):
        est = knn_entropy(rng.standard_normal((n, 1)), k=k)
        assert math.isfinite(est.value) and math.isfinite(est.std_error)

    @pytest.mark.scipy
    @settings(max_examples=300, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        d=st.sampled_from([1, 2]),
        k=st.integers(1, 8),
        n=st.integers(9, 300),
        kind=st.sampled_from(["continuous", "integer_ties", "duplicates"]),
        scale=st.one_of(
            st.integers(-8, 8).map(lambda e: 10.0**e), st.sampled_from([1e-160, 1e155])
        ),
        offset=st.sampled_from([0.0, 1e6]),
    )
    def test_kth_distances_match_tree(self, seed, d, k, n, kind, scale, offset):
        from scipy.spatial import cKDTree

        g = np.random.default_rng(seed)
        if kind == "continuous":
            x = g.standard_normal((n, d))
        elif kind == "integer_ties":
            x = g.integers(-5, 6, (n, d)).astype(float)
        else:
            x = g.standard_normal((max(1, n // 3), d))[g.integers(0, max(1, n // 3), n)]
        x = offset + scale * x
        reference = cKDTree(x).query(x, k=k + 1)[0][:, k]
        assert np.array_equal(_kth_neighbor_distances(x, k), reference)

    @pytest.mark.scipy
    def test_batch_standard_error_scale(self, rng):
        est = knn_entropy(rng.standard_normal((N_FAST, 1)), k=3)
        assert 0.0 < est.std_error < 0.05
        assert est.method == "knn" and est.n_samples == N_FAST and est.k_neighbors == 3


class TestEmpiricalF:
    @pytest.mark.scipy
    def test_epi_uniform_blocks(self, rng):
        d = blepi.make_epi_datum(0.5, 1)
        est = empirical_f(d, uniform_model(d.partition), N_FAST, 3, rng)
        expected = -(0.5 - 0.5 * math.log(2.0))  # minus the triangular entropy
        assert est.value == pytest.approx(expected, abs=0.03)
        assert est.std_error > 0

    @pytest.mark.scipy
    def test_epi_gaussian_blocks_are_extremal(self, rng):
        d = blepi.make_epi_datum(0.5, 1)
        est = empirical_f(d, gaussian_model(d.partition), N_FAST, 3, rng)
        assert est.value == pytest.approx(0.0, abs=0.03)

    @pytest.mark.scipy
    def test_correlated_gaussian_block(self, rng):
        d = Datum(
            partition=Partition((2,)),
            maps=(np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]])),
            c=np.array([1.0, 1.0]),
            d=np.array([1.0]),
        )
        cov = np.array([[1.0, 0.8], [0.8, 1.0]])
        model = SampleModel("corr", (GaussianBlock(cov),))
        est = empirical_f(d, model, N_FAST, 3, rng)
        assert est.value == pytest.approx(0.5 * math.log(0.36), abs=0.03)

    @pytest.mark.scipy
    def test_consistent_with_gaussian_objective(self, rng):
        d = blepi.make_coupled_sums_datum(1.0, 1.0, 0.5, 0.5)
        cov = BlockCovariance((np.array([[1.0, 0.2], [0.2, 1.5]]), np.array([[0.8]])))
        model = SampleModel("g", tuple(GaussianBlock(S) for S in cov.blocks))
        est = empirical_f(d, model, 50_000, 3, rng)
        assert est.value == pytest.approx(objective(d, cov), abs=max(3 * est.std_error, 0.03))

    def test_partition_mismatch_rejected(self, rng):
        d = blepi.make_epi_datum(0.5, 2)
        with pytest.raises(ValueError):
            empirical_f(d, uniform_model(Partition((1, 1))), 1000, 3, rng)


@pytest.mark.scipy
class TestVerifyInequality:
    def test_epi_families_pass(self, rng):
        d = blepi.make_epi_datum(0.5, 1)
        models = [uniform_model(d.partition), laplace_model(d.partition), mixture_model(d.partition)]
        reports = verify_inequality(d, models, mg=0.0, n_samples=N_FAST, rng=rng)
        assert [r.model for r in reports] == ["uniform", "laplace", "mixture"]
        assert all(r.passed for r in reports)
        assert all(r.margin < 0 for r in reports)  # strictly inside for these families

    def test_corrupted_reference_fails(self, rng):
        d = blepi.make_epi_datum(0.5, 1)
        reports = verify_inequality(
            d, [gaussian_model(d.partition)], mg=-1.0, n_samples=N_FAST, rng=rng
        )
        assert not reports[0].passed
        assert reports[0].margin == pytest.approx(1.0, abs=0.05)
        assert reports[0].z_score > 3.0

    def test_gaussian_models_never_fail_with_true_reference(self, rng):
        d = blepi.make_epi_datum(0.3, 1)
        res = blepi.solve_mg(d)
        assert res.converged
        reports = verify_inequality(
            d, [gaussian_model(d.partition)], res.mg_value, n_samples=N_FAST, rng=rng
        )
        assert reports[0].passed

    def test_dimension_warning_is_recorded(self, rng):
        d = Datum(
            partition=Partition((9,)),
            maps=(np.eye(9),),
            c=np.array([1.0]),
            d=np.array([1.0]),
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            reports = verify_inequality(
                d, [uniform_model(d.partition)], 0.0, n_samples=2_000, rng=rng
            )
        assert any("dimension" in w for w in reports[0].warnings)
        assert reports[0].terms  # per-term breakdown is exposed for CSV export
