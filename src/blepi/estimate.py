"""Sampling models, entropy estimation, and Monte Carlo verification.

Verifies the inequality

    sum_i d_i h(X_i) - sum_j c_j h(A_j X)  <=  M_g

statistically for non-Gaussian product-form inputs: draw samples from a
per-block model, use closed-form block entropies where available and the
Kozachenko-Leonenko k-nearest-neighbor estimator otherwise (always for
the transformed images A_j X), and compare the empirical combination to
a reference optimum with batch-means error bars.  A failing report flags
a statistical counterexample candidate; it is never a proof.

scipy is imported inside the three calls that use it: the 1-D mixture
entropy quadrature (``scipy.integrate.quad``), the k-d tree behind k-NN
distances in dimension d > 1 and the digamma/log-gamma constants of
``knn_entropy``.  Importing the module loads numpy only.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .datum import Datum, Partition
from .gauss import _check_spd, gaussian_entropy

__all__ = [
    "GaussianBlock",
    "UniformBoxBlock",
    "LaplaceBlock",
    "TwoGaussianMixBlock",
    "SampleModel",
    "EntropyEstimate",
    "TermEstimate",
    "VerificationReport",
    "NoClosedFormError",
    "sample",
    "exact_entropy",
    "knn_entropy",
    "check_knn_size",
    "empirical_f",
    "empirical_f_detailed",
    "verify_inequality",
    "uniform_model",
    "laplace_model",
    "mixture_model",
    "gaussian_model",
]

KNN_DIM_WARN = 8


class NoClosedFormError(ValueError):
    """The requested block entropy has no closed form (nor cheap quadrature)."""


# ---------------------------------------------------------------------------
# per-block distribution families (all centered, finite variance, bounded
# densities, blocks independent by construction)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GaussianBlock:
    cov: np.ndarray

    def __post_init__(self):
        cov = np.atleast_2d(np.array(self.cov, dtype=float))
        _check_spd(cov, "covariance")
        cov.setflags(write=False)
        object.__setattr__(self, "cov", cov)

    @property
    def dim(self) -> int:
        return self.cov.shape[0]

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        L = np.linalg.cholesky(self.cov)
        return rng.standard_normal((n, self.dim)) @ L.T

    def entropy(self) -> float:
        return gaussian_entropy(self.cov)


@dataclass(frozen=True)
class UniformBoxBlock:
    """Product of centered uniforms, coordinate l on [-w_l/2, w_l/2]."""

    widths: np.ndarray

    def __post_init__(self):
        w = np.atleast_1d(np.array(self.widths, dtype=float))
        if np.any(w <= 0):
            raise ValueError("box widths must be positive")
        w.setflags(write=False)
        object.__setattr__(self, "widths", w)

    @property
    def dim(self) -> int:
        return len(self.widths)

    def sample(self, n, rng):
        return rng.uniform(-0.5, 0.5, (n, self.dim)) * self.widths

    def entropy(self) -> float:
        return float(np.sum(np.log(self.widths)))


@dataclass(frozen=True)
class LaplaceBlock:
    scales: np.ndarray

    def __post_init__(self):
        b = np.atleast_1d(np.array(self.scales, dtype=float))
        if np.any(b <= 0):
            raise ValueError("scales must be positive")
        b.setflags(write=False)
        object.__setattr__(self, "scales", b)

    @property
    def dim(self) -> int:
        return len(self.scales)

    def sample(self, n, rng):
        return rng.laplace(0.0, 1.0, (n, self.dim)) * self.scales

    def entropy(self) -> float:
        return float(np.sum(1.0 + np.log(2.0 * self.scales)))


@dataclass(frozen=True)
class TwoGaussianMixBlock:
    """Two-component mixture of centered Gaussians; entropy by quadrature
    (available for dim <= 2)."""

    weight: float
    cov_a: np.ndarray
    cov_b: np.ndarray
    _components: tuple = field(init=False, repr=False, compare=False)
    _entropy: Optional[float] = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if not 0.0 < self.weight < 1.0:
            raise ValueError("mixture weight must lie in (0, 1)")
        ca = np.atleast_2d(np.array(self.cov_a, dtype=float))
        cb = np.atleast_2d(np.array(self.cov_b, dtype=float))
        _check_spd(ca, "first component covariance")
        _check_spd(cb, "second component covariance")
        if ca.shape != cb.shape:
            raise ValueError("mixture components must share a dimension")
        ca.setflags(write=False)
        cb.setflags(write=False)
        object.__setattr__(self, "cov_a", ca)
        object.__setattr__(self, "cov_b", cb)
        # (weight, inverse covariance, log normalizer) of each component,
        # computed once for the quadrature's many density evaluations
        components = []
        for w, cov in ((self.weight, ca), (1.0 - self.weight, cb)):
            _, logdet = np.linalg.slogdet(cov)
            log_norm = 0.5 * (self.dim * math.log(2 * math.pi) + logdet)
            components.append((w, np.linalg.inv(cov), log_norm))
        object.__setattr__(self, "_components", tuple(components))

    @property
    def dim(self) -> int:
        return self.cov_a.shape[0]

    def sample(self, n, rng):
        z = rng.standard_normal((n, self.dim))
        pick_a = rng.random(n) < self.weight
        la = np.linalg.cholesky(self.cov_a)
        lb = np.linalg.cholesky(self.cov_b)
        return np.where(pick_a[:, None], z @ la.T, z @ lb.T)

    def _pdf(self, pts: np.ndarray) -> np.ndarray:
        out = np.zeros(pts.shape[0])
        for w, inv, log_norm in self._components:
            quad = np.einsum("ni,ij,nj->n", pts, inv, pts)
            out += w * np.exp(-0.5 * quad - log_norm)
        return out

    def entropy(self) -> float:
        """The quadrature below, computed on first use and kept."""
        if self._entropy is None:
            object.__setattr__(self, "_entropy", self._quadrature())
        return self._entropy

    def _quadrature(self) -> float:
        if self.dim == 1:
            import scipy.integrate

            smax = math.sqrt(max(self.cov_a[0, 0], self.cov_b[0, 0]))
            L = 12.0 * smax

            def integrand(x):
                f = self._pdf(np.array([[x]]))[0]
                return -f * math.log(f) if f > 0 else 0.0

            val, _ = scipy.integrate.quad(integrand, -L, L, limit=400, epsabs=1e-12)
            return float(val)
        if self.dim == 2:
            smax = math.sqrt(
                max(np.linalg.eigvalsh(self.cov_a).max(), np.linalg.eigvalsh(self.cov_b).max())
            )
            L = 12.0 * smax
            nodes, wts = np.polynomial.legendre.leggauss(240)
            x = L * nodes
            w = L * wts
            X, Y = np.meshgrid(x, x, indexing="ij")
            pts = np.column_stack([X.ravel(), Y.ravel()])
            f = self._pdf(pts)
            g = np.where(f > 0, -f * np.log(np.where(f > 0, f, 1.0)), 0.0)
            return float(w @ g.reshape(len(x), len(x)) @ w)
        raise NoClosedFormError("mixture entropy quadrature only implemented for dim <= 2")


@dataclass(frozen=True)
class SampleModel:
    """Independent per-block distributions forming a product law on R^n."""

    name: str
    blocks: tuple

    @property
    def partition(self) -> Partition:
        return Partition(tuple(b.dim for b in self.blocks))


def sample(model: SampleModel, n: int, rng: np.random.Generator) -> np.ndarray:
    """n i.i.d. rows from the model; blocks are independent by construction."""
    if n < 1:
        raise ValueError("need at least one sample")
    return np.hstack([b.sample(n, rng) for b in model.blocks])


def exact_entropy(model: SampleModel, block_index: int) -> float:
    """Closed-form (or quadrature) entropy of one block, in nats.

    Raises :class:`NoClosedFormError` for families without one.
    """
    return model.blocks[block_index].entropy()


# ---------------------------------------------------------------------------
# Kozachenko-Leonenko estimator
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EntropyEstimate:
    value: float
    std_error: float
    method: str  # "closed_form" | "knn"
    n_samples: int
    k_neighbors: int

    def to_dict(self) -> dict:
        return {
            "value": self.value,
            "std_error": self.std_error,
            "method": self.method,
            "n_samples": self.n_samples,
            "k_neighbors": self.k_neighbors,
        }


def _closed_form_estimate(value: float) -> EntropyEstimate:
    return EntropyEstimate(float(value), 0.0, "closed_form", 0, 0)


_N_BATCHES = 10


def check_knn_size(n: int, k: int) -> None:
    """Raise ValueError unless k >= 1 and n >= max(k + 1, 10) samples: each
    sample needs k other samples, and each of the 10 batches behind the
    standard error needs at least one sample."""
    if k < 1:
        raise ValueError(f"need k >= 1 neighbors, got {k}")
    need = max(k + 1, _N_BATCHES)
    if n < need:
        raise ValueError(f"need at least max(k+1, {_N_BATCHES}) = {need} samples, got {n}")


def _kth_neighbor_distances(X: np.ndarray, k: int) -> np.ndarray:
    """Distance from each row of X to its k-th nearest other row; equal, bit
    for bit, to ``cKDTree(X).query(X, k=k + 1)[0][:, k]``.

    In one dimension the k + 1 nearest points of s_i (itself included) are
    a window s_a..s_{a+k} of the sorted order with i - k <= a <= i, so the
    distance is the least over those windows of the farther end.  Rounded
    differences keep the order of exact ones, so the window picks the
    tree's neighbours.  Otherwise a k-d tree answers on all cores; tree
    shape and thread count change neither the neighbours nor their
    distances.
    """
    n, d = X.shape
    if d > 1:
        from scipy.spatial import cKDTree

        tree = cKDTree(X, balanced_tree=False, compact_nodes=False)
        return tree.query(X, k=[k + 1], workers=-1)[0][:, 0]
    order = np.argsort(X[:, 0])
    s = X[order, 0]
    pad = np.concatenate([np.full(k, -np.inf), s, np.full(k, np.inf)])
    far = np.full(n, np.inf)
    for j in range(k + 1):
        np.minimum(far, np.maximum(s - pad[j : j + n], pad[k + j : k + j + n] - s), out=far)
    out = np.empty(n)
    with np.errstate(over="ignore"):
        # the tree's arithmetic, sqrt of the squared difference: equal to
        # the difference unless the square under- or overflows
        out[order] = np.sqrt(far * far)
    return out


def knn_entropy(samples, k: int = 3, rng: Optional[np.random.Generator] = None) -> EntropyEstimate:
    """k-nearest-neighbor entropy estimate (Euclidean metric), in nats:

        h_hat = psi(N) - psi(k) + log V_d + (d / N) sum_i log eps_i(k),

    where eps_i(k) is the distance from sample i to its k-th neighbor and
    V_d the unit-ball volume.  The standard error comes from 10 batch
    means of the per-sample terms, so N must be at least max(k + 1, 10);
    samples must be finite.  Coincident samples (zero distance) are
    jittered at 1e-12 of the largest magnitude and reported via a
    warning; a zero distance left after the jitter raises ValueError.
    """
    X = np.array(np.asarray(samples, dtype=float), copy=True)
    if X.ndim != 2:
        raise ValueError("samples must be an N x d matrix")
    n, d = X.shape
    if d < 1:
        raise ValueError("need at least one dimension")
    if not np.all(np.isfinite(X)):
        raise ValueError("samples must be finite")
    check_knn_size(n, k)
    if d > KNN_DIM_WARN:
        warnings.warn(
            f"k-NN entropy in dimension {d} > {KNN_DIM_WARN} is strongly biased "
            "at desk-scale sample sizes",
            RuntimeWarning,
            stacklevel=2,
        )
    eps = _kth_neighbor_distances(X, k)
    if np.any(eps <= 0.0):
        warnings.warn(
            "duplicate samples detected; applying 1e-12-scale jitter",
            RuntimeWarning,
            stacklevel=2,
        )
        jrng = rng if rng is not None else np.random.default_rng(0)
        X = X + jrng.normal(0.0, 1e-12 * max(1.0, float(np.max(np.abs(X)))), X.shape)
        eps = _kth_neighbor_distances(X, k)
        if np.any(eps <= 0.0):
            raise ValueError("duplicate samples remain after jitter")
    from scipy.special import digamma, gammaln

    const = float(digamma(n) - digamma(k)) + 0.5 * d * math.log(math.pi) - float(
        gammaln(0.5 * d + 1.0)
    )
    xi = d * np.log(eps)
    value = const + float(np.mean(xi))
    batch_means = np.array([b.mean() for b in np.array_split(xi, _N_BATCHES)])
    se = float(np.std(batch_means, ddof=1) / math.sqrt(_N_BATCHES))
    return EntropyEstimate(value, se, "knn", n, k)


# ---------------------------------------------------------------------------
# the empirical objective and the verification harness
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TermEstimate:
    term: str
    weight: float
    estimate: EntropyEstimate

    def to_dict(self) -> dict:
        return {"term": self.term, "weight": self.weight, **self.estimate.to_dict()}


def empirical_f_detailed(
    datum: Datum,
    model: SampleModel,
    n_samples: int = 50_000,
    k: int = 3,
    rng: Optional[np.random.Generator] = None,
):
    """Empirical objective with its per-term entropy breakdown.

    Block entropies use closed forms where the family provides one and
    k-NN otherwise; image entropies h(A_j X) always go through k-NN on
    the transformed samples.  Standard errors combine as an independent
    sum, which is conservative for the difference.
    """
    if model.partition != datum.partition:
        raise ValueError("model blocks do not match the datum partition")
    if rng is None:
        rng = np.random.default_rng(0)
    X = sample(model, n_samples, rng)
    terms: list[TermEstimate] = []
    total = 0.0
    var = 0.0
    for i, ((start, stop), di) in enumerate(zip(datum.partition.offsets(), datum.d)):
        try:
            est = _closed_form_estimate(exact_entropy(model, i))
        except NoClosedFormError:
            est = knn_entropy(X[:, start:stop], k=k, rng=rng)
        terms.append(TermEstimate(f"h(block[{i}])", float(di), est))
        total += di * est.value
        var += (di * est.std_error) ** 2
    for j, (cj, A) in enumerate(zip(datum.c, datum.maps)):
        est = knn_entropy(X @ A.T, k=k, rng=rng)
        terms.append(TermEstimate(f"h(map[{j}] X)", -float(cj), est))
        total -= cj * est.value
        var += (cj * est.std_error) ** 2
    se = math.sqrt(var)
    method = "knn" if se > 0 else "closed_form"
    return EntropyEstimate(float(total), se, method, n_samples, k), tuple(terms)


def empirical_f(
    datum: Datum,
    model: SampleModel,
    n_samples: int = 50_000,
    k: int = 3,
    rng: Optional[np.random.Generator] = None,
) -> EntropyEstimate:
    est, _ = empirical_f_detailed(datum, model, n_samples, k, rng)
    return est


@dataclass(frozen=True)
class VerificationReport:
    model: str
    empirical_f: EntropyEstimate
    mg_reference: float
    margin: float
    z_score: float
    passed: bool
    warnings: tuple[str, ...] = ()
    terms: tuple[TermEstimate, ...] = field(default=(), compare=False)

    def to_dict(self) -> dict:
        return {
            "model": self.model,
            "empirical_f": self.empirical_f.to_dict(),
            "mg_reference": self.mg_reference,
            "margin": self.margin,
            "z_score": self.z_score,
            "passed": self.passed,
            "warnings": list(self.warnings),
            "terms": [t.to_dict() for t in self.terms],
        }


def verify_inequality(
    datum: Datum,
    models,
    mg: float,
    n_samples: int = 50_000,
    k: int = 3,
    z_crit: float = 3.0,
    rng: Optional[np.random.Generator] = None,
) -> list[VerificationReport]:
    """One report per model; pass iff margin <= z_crit * SE (one-sided).

    The margin is the empirical objective minus the reference optimum mg
    (which must come from a converged solve).  A failure is a flag for a
    statistical counterexample at the configured confidence, never a
    proof.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    reports = []
    for model in models:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            est, terms = empirical_f_detailed(datum, model, n_samples, k, rng)
        margin = est.value - mg
        if est.std_error > 0:
            z = margin / est.std_error
        else:
            z = 0.0 if margin <= 0 else math.inf
        reports.append(
            VerificationReport(
                model=model.name,
                empirical_f=est,
                mg_reference=float(mg),
                margin=float(margin),
                z_score=float(z),
                passed=bool(margin <= z_crit * est.std_error),
                warnings=tuple(str(w.message) for w in caught),
                terms=terms,
            )
        )
    return reports


# ---------------------------------------------------------------------------
# preset model builders matching a datum's partition
# ---------------------------------------------------------------------------


def uniform_model(partition: Partition, width: float = 1.0) -> SampleModel:
    return SampleModel(
        "uniform",
        tuple(UniformBoxBlock(np.full(r, float(width))) for r in partition.blocks),
    )


def laplace_model(partition: Partition, scale: float = 1.0) -> SampleModel:
    return SampleModel(
        "laplace",
        tuple(LaplaceBlock(np.full(r, float(scale))) for r in partition.blocks),
    )


def mixture_model(
    partition: Partition, weight: float = 0.5, var_a: float = 0.5, var_b: float = 2.0
) -> SampleModel:
    # one block per width, so each quadrature entropy is computed once
    by_width = {
        r: TwoGaussianMixBlock(float(weight), var_a * np.eye(r), var_b * np.eye(r))
        for r in set(partition.blocks)
    }
    return SampleModel("mixture", tuple(by_width[r] for r in partition.blocks))


def gaussian_model(partition: Partition, variance: float = 1.0) -> SampleModel:
    return SampleModel(
        "gaussian",
        tuple(GaussianBlock(variance * np.eye(r)) for r in partition.blocks),
    )
