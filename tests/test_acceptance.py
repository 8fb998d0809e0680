"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line.  Criteria:

     1. the entropy power optimum is zero to 1e-6 across lambda and dim
     2. Zamir-Feder suite over 1000 random (A, Lambda): nonnegativity,
        Cauchy-Binet, coefficient sum, derivative identity
     3. coupled-sums three-way agreement (formula / brute force / solver)
        to 1e-4 on 20 feasible samples
     4. finiteness verdicts with exact residuals, named conditions, and
        re-checkable subspace witnesses; finite cases solve convergent
     5. split certificate for the coupled-sums critical subspace; the
        solved constant splits exactly across it, to 1e-9
     6. analytic gradient vs central differences to 1e-5 relative
     7. exact log-scale homogeneity to 1e-9
     8. perturbed objective converges as the noise vanishes
     9. two-copy rotation identity to 1e-9; involution to 1e-12
    10. Monte Carlo verification at N = 50000 with a 3-sigma gate, plus
        the corrupted-reference self-test
    11. k-NN estimator calibration to 0.02 nats on known densities
    12. byte-identical reports for identical seeds
"""

import math
from contextlib import contextmanager

import numpy as np
import pytest

import blepi
from blepi.cli import main as cli_main
from blepi.closed_forms import (
    cauchy_binet_check,
    coupled_sums_bruteforce,
    coupled_sums_constant,
    coupled_sums_feasible,
    CoupledSumsParams,
    zf_coefficients,
    zf_F,
)
from blepi.datum import Datum, Partition
from blepi.estimate import (
    gaussian_model,
    knn_entropy,
    laplace_model,
    mixture_model,
    uniform_model,
    verify_inequality,
)
from blepi.finiteness import (
    FINITE,
    INFINITE,
    ScalingResidual,
    ViolatingSubspace,
    check_finiteness,
    scaling_residual,
    split_datum,
)
from blepi.gauss import (
    PerturbationParams,
    SolverOptions,
    objective,
    objective_perturbed,
    pair_s,
    rotate_pair,
    solve_mg,
)
from blepi.subspace import ProductSubspace, SearchBudget, find_violating_subspace, slack
from conftest import random_block_covariance, random_datum, random_pair
from test_gauss import fd_gradient


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:2d} FAIL - {description}")
        raise
    print(f"ACCEPTANCE {number:2d} PASS - {description}")


def coordinate_projection_datum():
    return Datum(
        partition=Partition((2,)),
        maps=(np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]])),
        c=np.array([1.0, 1.0]),
        d=np.array([1.0]),
    )


def feasible_samples(rng, count):
    """Interior-feasible (alpha, beta, delta) tuples: balance exact,
    0 < beta < 1 and beta strictly below 2 delta."""
    out = []
    while len(out) < count:
        delta = rng.uniform(0.3, 1.0)
        beta = rng.uniform(0.1, min(0.9, 1.9 * delta))
        alpha = 1.0 + delta - beta / 2.0
        out.append((alpha, beta, delta))
    return out


def test_criterion_1_epi_optimum():
    with criterion(1, "EPI optimum is zero to 1e-6"):
        for lam in (0.1, 0.5, 0.9):
            for dim in (1, 2, 3):
                res = solve_mg(blepi.make_epi_datum(lam, dim))
                assert res.converged and not res.unbounded
                assert abs(res.mg_value) <= 1e-6, (lam, dim, res.mg_value)


def test_criterion_2_zamir_feder_suite():
    with criterion(2, "Zamir-Feder randomized suite (1000 draws)"):
        rng = np.random.default_rng(2)
        h = 1e-6
        for _ in range(1000):
            k = int(rng.integers(1, 4))
            n = int(rng.integers(k, 7))
            Q, _ = np.linalg.qr(rng.standard_normal((n, k)))
            A = Q[:, :k].T
            lam = rng.uniform(0.05, 20.0, n)

            alpha_sq = zf_coefficients(A)
            assert abs(alpha_sq.sum() - k) <= 1e-9

            assert zf_F(A, lam) >= -1e-9

            B = A @ np.diag(np.sqrt(lam))
            lhs, rhs = cauchy_binet_check(B)
            assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(lhs))

            for j in range(n):
                up = np.ones(n)
                dn = np.ones(n)
                up[j] = math.exp(h)
                dn[j] = math.exp(-h)
                fd = (
                    np.linalg.slogdet(A @ np.diag(up) @ A.T)[1]
                    - np.linalg.slogdet(A @ np.diag(dn) @ A.T)[1]
                ) / (2 * h)
                assert abs(fd - alpha_sq[j]) <= 1e-6


def test_criterion_3_coupled_sums_three_way():
    with criterion(3, "coupled-sums formula = brute force = solver (1e-4)"):
        rng = np.random.default_rng(3)
        for alpha, beta, delta in feasible_samples(rng, 20):
            assert coupled_sums_feasible(CoupledSumsParams(alpha, beta, delta, delta)).feasible
            C, D = coupled_sums_constant(alpha, beta, delta)
            assert D == C
            bf = coupled_sums_bruteforce(alpha, beta, delta)
            res = solve_mg(blepi.make_coupled_sums_datum(alpha, beta, delta, delta))
            assert res.converged and not res.unbounded
            mg = res.mg_value
            params = (alpha, beta, delta)
            assert abs(C - bf) <= 1e-4, (params, C, bf)
            assert abs(C - mg) <= 1e-4, (params, C, mg)
            assert abs(bf - mg) <= 1e-4, (params, bf, mg)


def test_criterion_4_finiteness_verdicts():
    with criterion(4, "finiteness: exact residuals, named conditions, witnesses"):
        rng = np.random.default_rng(4)

        half = Datum(
            partition=Partition((1,)),
            maps=(np.array([[1.0]]),),
            c=np.array([0.5]),
            d=np.array([1.0]),
        )
        v = check_finiteness(half, rng=rng)
        assert v.status == INFINITE and isinstance(v.witness, ScalingResidual)
        assert v.witness.value == 0.5  # exact

        unbalanced = blepi.make_coupled_sums_datum(1.0, 1.0, 0.0, 0.0)
        v = check_finiteness(unbalanced, rng=rng)
        assert v.status == INFINITE and isinstance(v.witness, ScalingResidual)
        assert v.witness.value == pytest.approx(1.0, abs=1e-12)

        # infeasible parameter sets: the specific condition is flagged and,
        # where the balance still holds, a slack-positive subspace witness
        cases = {
            (1.0, 1.2, 0.6, 0.6): (2,),
            (1.3, 0.4, 0.2, 0.8): (3,),
            (0.9, 0.6, 0.2, 0.2): (4,),
            (0.9, 1.0, 0.35, 0.35): (1, 4),
        }
        for params, failed in cases.items():
            feas = coupled_sums_feasible(CoupledSumsParams(*params))
            assert feas.failed_conditions() == failed, params
            datum = blepi.make_coupled_sums_datum(*params)
            v = check_finiteness(datum, rng=np.random.default_rng(40))
            assert v.status == INFINITE, params
            if 1 in failed:
                assert isinstance(v.witness, ScalingResidual)
                assert v.witness.value == pytest.approx(scaling_residual(datum))
            else:
                assert isinstance(v.witness, ViolatingSubspace)
                recomputed = slack(datum, v.witness.subspace).slack
                assert recomputed > 1e-7
                assert recomputed == pytest.approx(v.witness.slack)

        # finite verdicts corroborated by a convergent, bounded solve
        for datum, tol in (
            (blepi.make_epi_datum(0.5, 1), 1e-8),
            (blepi.make_coupled_sums_datum(1.25, 0.5, 0.5, 0.5), 1e-8),
        ):
            v = check_finiteness(datum, rng=np.random.default_rng(41))
            assert v.status == FINITE
            res = solve_mg(datum, SolverOptions(tol=tol))
            assert res.converged and not res.unbounded


def test_criterion_5_split_certificate():
    with criterion(5, "critical-subspace split: child conditions + exact additivity"):
        datum = blepi.make_coupled_sums_datum(1.0, 1.0, 0.5, 0.5)
        U = ProductSubspace.from_spans(
            datum.partition, [np.array([[1.0], [1.0]]), np.array([[1.0]])]
        )
        assert abs(slack(datum, U).slack) <= 1e-12
        child_u, child_perp = split_datum(datum, U)
        for child in (child_u, child_perp):
            assert abs(scaling_residual(child)) <= 1e-9
            assert (
                find_violating_subspace(child, SearchBudget(), np.random.default_rng(50))
                is None
            )
        # the constant splits exactly along a critical subspace
        parent = solve_mg(datum)
        left = solve_mg(child_u)
        right = solve_mg(child_perp)
        for res in (parent, left, right):
            assert res.converged and not res.unbounded
        assert abs(parent.mg_value - (left.mg_value + right.mg_value)) <= 1e-9


def test_criterion_6_gradient_correctness():
    with criterion(6, "analytic gradient vs central differences (1e-5)"):
        rng = np.random.default_rng(6)
        worst = 0.0
        for _ in range(50):
            datum = random_datum(rng, max_n=6)
            sigma = random_block_covariance(rng, datum.partition)
            analytic = blepi.gradient(datum, sigma)
            numeric = fd_gradient(datum, sigma)
            scale = max(1.0, max(np.abs(G).max() for G in analytic))
            err = max(np.abs(A - N).max() for A, N in zip(analytic, numeric)) / scale
            worst = max(worst, err)
        assert worst <= 1e-5, worst


def test_criterion_7_homogeneity_identity():
    with criterion(7, "log-scale homogeneity identity (1e-9)"):
        rng = np.random.default_rng(7)
        for _ in range(20):
            datum = random_datum(rng, max_n=6)
            sigma = random_block_covariance(rng, datum.partition)
            base = objective(datum, sigma)
            res = scaling_residual(datum)
            for t in (0.1, 7.0, 100.0):
                lhs = objective(datum, sigma.scaled(t))
                assert abs(lhs - base - 0.5 * res * math.log(t)) <= 1e-9


def test_criterion_8_perturbation_convergence():
    with criterion(8, "perturbed objective converges (gap <= 1e-6 at 1e-8 noise)"):
        rng = np.random.default_rng(8)
        instances = [
            (blepi.make_epi_datum(0.5, 1), None),
            (blepi.make_coupled_sums_datum(1.25, 0.5, 0.5, 0.5), None),
        ]
        instances += [(random_datum(rng, max_n=5), None) for _ in range(3)]
        for datum, _ in instances:
            sigma = random_block_covariance(rng, datum.partition)
            base = objective(datum, sigma)
            prev = -math.inf
            # nonincreasing in epsilon at fixed delta
            for eps in (0.1, 0.01, 0.001):
                val = objective_perturbed(datum, sigma, PerturbationParams(eps, 0.01))
                assert val >= prev - 1e-12
                prev = val
            gaps = [
                abs(
                    objective_perturbed(
                        datum, sigma, PerturbationParams(10.0**-t, 10.0**-t)
                    )
                    - base
                )
                for t in range(1, 9)
            ]
            assert gaps[-1] <= 1e-6, gaps[-1]


def test_criterion_9_rotation_identity():
    with criterion(9, "two-copy rotation identity (1e-9) and involution (1e-12)"):
        rng = np.random.default_rng(9)
        for _ in range(100):
            datum = random_datum(rng, max_n=5)
            pair = random_pair(rng, datum.partition)
            p = PerturbationParams(rng.uniform(0, 0.3), rng.uniform(0, 0.3))
            assert abs(pair_s(datum, pair, p) - pair_s(datum, rotate_pair(pair), p)) <= 1e-9
            twice = rotate_pair(rotate_pair(pair))
            assert max(np.abs(A - B).max() for A, B in zip(twice.blocks, pair.blocks)) <= 1e-12


@pytest.mark.scipy
def test_criterion_10_monte_carlo_verification():
    with criterion(10, "Monte Carlo verification at N=50000, 3-sigma gate"):
        rng = np.random.default_rng(10)
        cases = [
            blepi.make_epi_datum(0.5, 1),
            coordinate_projection_datum(),
            # boundary supremum, attained only in a degenerate limit
            blepi.make_coupled_sums_datum(1.0, 1.0, 0.5, 0.5),
        ]
        for datum in cases:
            res = solve_mg(datum)
            assert res.converged and not res.unbounded
            models = [
                uniform_model(datum.partition),
                laplace_model(datum.partition),
                mixture_model(datum.partition),
            ]
            reports = verify_inequality(
                datum, models, res.mg_value, n_samples=50_000, k=3, rng=rng
            )
            for rep in reports:
                assert rep.passed, (datum.metadata, rep.model, rep.margin, rep.z_score)

        # corrupted-reference self-test at the Gaussian extremizer
        epi = blepi.make_epi_datum(0.5, 1)
        res = solve_mg(epi)
        corrupted = verify_inequality(
            epi,
            [gaussian_model(epi.partition)],
            res.mg_value - 1.0,
            n_samples=50_000,
            k=3,
            rng=rng,
        )
        assert not corrupted[0].passed
        assert corrupted[0].margin == pytest.approx(1.0, abs=0.05)


@pytest.mark.scipy
def test_criterion_11_estimator_calibration():
    with criterion(11, "k-NN calibration within 0.02 nats at N=50000"):
        rng = np.random.default_rng(11)
        n = 50_000

        est = knn_entropy(rng.uniform(0.0, 1.0, (n, 1)), k=3)
        assert abs(est.value - 0.0) <= 0.02

        est = knn_entropy(rng.standard_normal((n, 1)), k=3)
        assert abs(est.value - 1.4189385332046727) <= 0.02

        # scaled sum of two uniforms: triangular density; quadrature oracle
        # confirms the analytic value 1/2 - log(2)/2
        import scipy.integrate

        def tri_density(x):
            s = x * math.sqrt(2.0)
            f = s if s <= 1.0 else 2.0 - s
            return max(f, 0.0) * math.sqrt(2.0)

        oracle, _ = scipy.integrate.quad(
            lambda x: -tri_density(x) * math.log(tri_density(x)) if tri_density(x) > 0 else 0.0,
            0.0,
            math.sqrt(2.0),
            limit=400,
        )
        analytic = 0.5 - 0.5 * math.log(2.0)
        assert oracle == pytest.approx(analytic, abs=1e-9)
        tri = (rng.uniform(0, 1, n) + rng.uniform(0, 1, n)) / math.sqrt(2.0)
        est = knn_entropy(tri[:, None], k=3)
        assert abs(est.value - analytic) <= 0.02


@pytest.mark.scipy
def test_criterion_12_determinism(tmp_path, capsys):
    with criterion(12, "byte-identical reports under identical seeds"):
        path = tmp_path / "epi.json"
        blepi.save(blepi.make_epi_datum(0.5, 1), path)
        for command in (
            ["check", str(path)],
            ["solve", str(path)],
            ["verify", str(path), "--samples", "5000", "--seed", "19"],
        ):
            outputs = []
            for run in range(2):
                out_file = tmp_path / f"out_{command[0]}_{run}.json"
                code = cli_main([*command, "--out", str(out_file)])
                capsys.readouterr()
                assert code == 0
                outputs.append(out_file.read_bytes())
            assert outputs[0] == outputs[1], command[0]
