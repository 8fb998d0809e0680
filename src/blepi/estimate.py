"""Sampling models, entropy estimation, and Monte Carlo verification.

Verifies the inequality

    sum_i d_i h(X_i) - sum_j c_j h(A_j X)  <=  M_g

for non-Gaussian product-form inputs: take every block entropy h(X_i)
exactly, and compare the combination with the image entropies h(A_j X)
to a reference optimum.  One kernel, ``_mixture_entropy``, integrates
the entropy of a centered Gaussian mixture: a two-Gaussian mixture block
in any dimension (the other blocks have closed forms), and, under a model
whose blocks are all such mixtures, an image of dimension <= 2, which is
a Gaussian mixture with a known law; an image's error bar is the
difference against a coarser rule.  Every other image entropy is
estimated from samples of the model with the Kozachenko-Leonenko
k-nearest-neighbor estimator and batch-means error bars; the samples are
drawn only when some image needs them.  Only the image terms carry error.
A failing report flags a counterexample candidate (statistical, where a
term is k-NN); it is never a proof.

scipy is imported inside the two calls that use it: the k-d tree behind
k-NN distances in dimension d > 1 and the digamma/log-gamma constants of
``knn_entropy``.  Importing the module, and a verification with no k-NN
term, load numpy only.
"""

from __future__ import annotations

import functools
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
        if not np.all(np.isfinite(w) & (w > 0)):
            raise ValueError(f"box widths must be finite and positive, got {w}")
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
        if not np.all(np.isfinite(b) & (b > 0)):
            raise ValueError(f"scales must be finite and positive, got {b}")
        b.setflags(write=False)
        object.__setattr__(self, "scales", b)

    @property
    def dim(self) -> int:
        return len(self.scales)

    def sample(self, n, rng):
        return rng.laplace(0.0, 1.0, (n, self.dim)) * self.scales

    def entropy(self) -> float:
        return float(np.sum(1.0 + np.log(2.0 * self.scales)))


@functools.lru_cache(maxsize=None)
def _radial_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n-node Gauss-Legendre rule on [-1, 1], built on first use."""
    return np.polynomial.legendre.leggauss(n)


@functools.lru_cache(maxsize=None)
def _angle_rule(n: int) -> np.ndarray:
    """Unit vectors at the angles k pi / n, k < n, built on first use: the
    trapezoid rule over [0, pi), which converges geometrically on the
    smooth pi-periodic angular integrand of a centered density."""
    t = np.arange(n) * (math.pi / n)
    return np.stack([np.cos(t), np.sin(t)], axis=1)


@dataclass(frozen=True)
class TwoGaussianMixBlock:
    """Mixture ``weight N(0, var_a I) + (1 - weight) N(0, var_b I)`` on R^dim.

    Its entropy is ``_mixture_entropy`` of its two components: both are
    multiples of I, so one radial integral carries the whole sphere in
    any dimension.  Against a 30-digit mpmath reference it is within
    5e-14 on the ``mixture_model`` block in dimensions 1 to 9, and with
    weights 0.1 to 0.5 and variances up to 400 apart in dimension <= 9;
    on that block it is within 1e-12 (1 + |h|) in dimensions 30, 60,
    100, 200 and 400 (3.2e-13 (1 + |h|) at 400).
    """

    weight: float
    var_a: float
    var_b: float
    dim: int

    def __post_init__(self):
        if not 0.0 < self.weight < 1.0:
            raise ValueError("mixture weight must lie in (0, 1)")
        for name in ("var_a", "var_b"):
            v = float(getattr(self, name))
            if not (math.isfinite(v) and v > 0.0):
                raise ValueError(f"mixture variance {name} must be finite and positive, got {v}")
            object.__setattr__(self, name, v)
        dim = int(self.dim)
        if dim != self.dim or dim < 1:
            raise ValueError(f"mixture dimension must be a positive integer, got {self.dim}")
        object.__setattr__(self, "weight", float(self.weight))
        object.__setattr__(self, "dim", dim)

    def sample(self, n, rng):
        z = rng.standard_normal((n, self.dim))
        pick_a = rng.random(n) < self.weight
        scale = np.where(pick_a, math.sqrt(self.var_a), math.sqrt(self.var_b))
        return z * scale[:, None]

    def entropy(self) -> float:
        weights = np.array([self.weight, 1.0 - self.weight])
        covs = np.multiply.outer([self.var_a, self.var_b], np.eye(self.dim))
        return _mixture_entropy(weights, covs)


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
    """Exact entropy of one block, in nats: a closed form, or for a mixture
    block its radial quadrature (``_mixture_entropy``)."""
    return model.blocks[block_index].entropy()


# ---------------------------------------------------------------------------
# image entropies of a two-Gaussian mixture model, by quadrature
# ---------------------------------------------------------------------------

# (angles over [0, pi), Gauss-Legendre nodes per radial panel)
_IMAGE_RULE = (128, 160)
_CHECK_RULE = (64, 80)
_IMAGE_ROUNDING = 1e-12
# past this many distinct components an image goes to k-NN instead
_MAX_COMPONENTS = 512


def _image_components(blocks, A: np.ndarray) -> Optional[tuple[np.ndarray, np.ndarray]]:
    """Weights and covariances of the Gaussian mixture that ``A X`` is when
    every block of X is a ``TwoGaussianMixBlock``, or None past
    ``_MAX_COMPONENTS``.

    Component b in {a, b}^blocks is N(0, sum_i var_{b_i} A_i A_i^T), A_i
    the columns of block i, with the product of the picked weights.
    Components with equal covariances are merged block by block.
    """
    m = A.shape[0]
    weights = np.ones(1)
    covs = np.zeros((1, m, m))
    start = 0
    for block in blocks:
        Ai = A[:, start : start + block.dim]
        start += block.dim
        G = Ai @ Ai.T
        weights = np.concatenate([weights * block.weight, weights * (1.0 - block.weight)])
        covs = np.concatenate([covs + block.var_a * G, covs + block.var_b * G])
        covs, merged = np.unique(covs.reshape(len(covs), -1), axis=0, return_inverse=True)
        weights = np.bincount(merged.ravel(), weights=weights)
        covs = covs.reshape(-1, m, m)
        if len(covs) > _MAX_COMPONENTS:
            return None
    return weights, covs


def _mixture_entropy(weights: np.ndarray, covs: np.ndarray, rule=_IMAGE_RULE) -> float:
    """Entropy, in nats, of sum_m weights[m] N(0, covs[m]) on R^dim.

    The density is first whitened by the mixture's covariance S (h grows
    by log det S / 2), so every component is within its variance spread of
    the identity whatever the map.  Then, with f(-x) = f(x),

        h = -int_{S^(dim-1)} int_0^inf rho^(dim-1) f(rho u) log f(rho u) d rho du.

    When every component is a multiple of S (after whitening, of I) f is
    radial, and one ray carries the whole sphere, of area
    2 pi^(dim/2) / Gamma(dim/2): every mixture block, every 1-D image and
    an isotropic 2-D one.  Otherwise dim must be 2, and the angle runs
    over [0, pi) on ``rule[0]`` trapezoid points.  The radial integral is
    summed on ``rule[1]`` Gauss-Legendre nodes over [0, R s_min] and over
    [R s_min, R s_max], s the scales at which the components decay along
    the rays and R = max(12, sqrt(dim - 1) + 9), past each component's
    chi bulk at sqrt(dim - 1) s.  log f is a running max / log-sum-exp
    over the components, accumulated on one rays x radii array, and the
    ray's measure rho^(dim-1) dS joins it in the exponent.
    """
    n_angles, n_radial = rule
    dim = covs.shape[1]
    mean = np.einsum("m,mij->ij", weights, covs)
    L = np.linalg.cholesky(mean)
    # each component a multiple of the mean, compared exactly
    radial = np.array_equal(covs * mean[0, 0], mean * covs[:, :1, :1])
    rays = (np.eye(dim)[:1] if radial else _angle_rule(n_angles)) @ L.T
    # precision of each component along each whitened ray
    prec = np.einsum("ki,mij,kj->mk", rays, np.linalg.inv(covs), rays)
    log_det_mean = np.linalg.slogdet(mean)[1]
    log_c = np.log(weights) - 0.5 * (
        dim * math.log(2.0 * math.pi) + np.linalg.slogdet(covs)[1] - log_det_mean
    )
    scale = 1.0 / np.sqrt(prec)
    # past the chi bulk at sqrt(dim - 1) s; 12 scales up to dimension 10
    reach = max(12.0, math.sqrt(dim - 1) + 9.0)
    ends = sorted({0.0, reach * float(scale.min()), reach * float(scale.max())})
    nodes, gl = _radial_rule(n_radial)
    rho = np.concatenate([a + 0.5 * (b - a) * (nodes + 1.0) for a, b in zip(ends, ends[1:])])
    rho_w = np.concatenate([0.5 * (b - a) * gl for a, b in zip(ends, ends[1:])])
    half_sq = -0.5 * rho * rho
    # two passes over the components: the running max, then the shifted sum
    exponent = np.empty((prec.shape[1], len(rho)))
    peak = np.full_like(exponent, -np.inf)
    for c, p in zip(log_c, prec):
        np.multiply.outer(p, half_sq, out=exponent)
        exponent += c
        np.maximum(peak, exponent, out=peak)
    total = np.zeros_like(exponent)
    for c, p in zip(log_c, prec):
        np.multiply.outer(p, half_sq, out=exponent)
        exponent += c
        exponent -= peak
        total += np.exp(exponent, out=exponent)
    log_f = np.log(total, out=total)
    log_f += peak
    # the ray's measure rho^(dim-1) dS is taken into the exponent, where it
    # neither overflows nor meets an f that underflowed in high dimension
    if radial:  # the sphere's area 2 pi^(dim/2) / Gamma(dim/2)
        log_ray = math.log(2.0) + 0.5 * dim * math.log(math.pi) - math.lgamma(0.5 * dim)
    else:
        log_ray = math.log(2.0 * math.pi / n_angles)
    f_log_f = np.add(log_f, (dim - 1) * np.log(rho) + log_ray, out=exponent)
    np.exp(f_log_f, out=f_log_f)
    f_log_f *= log_f
    h_white = -float(np.sum(f_log_f @ rho_w))
    return float(h_white + 0.5 * log_det_mean)


def _quadrature_entropy(model: SampleModel, A: np.ndarray) -> Optional[EntropyEstimate]:
    """h(A X) by quadrature when every block is a ``TwoGaussianMixBlock``
    and A has at most 2 rows, else None.

    The value is ``_mixture_entropy`` on its default rule (128 angles,
    160 radial nodes per panel).  The error is its difference
    against the 64 / 80 rule, floored at 1e-12 (1 + |h|) for rounding: on
    data where F = M for every law (A = diag(2, 3) or I on two scalar
    blocks, or [[2, 1], [0.5, 3]] on one 2-D block) the rounding leaves
    F - M at 1e-14 to 2e-14 while the two rules differ by 1.5e-14, so
    without the floor z would reach about 1.3 on pure rounding.
    """
    if A.shape[0] > 2 or not all(isinstance(b, TwoGaussianMixBlock) for b in model.blocks):
        return None
    parts = _image_components(model.blocks, A)
    if parts is None:
        return None
    value = _mixture_entropy(*parts)
    check = _mixture_entropy(*parts, rule=_CHECK_RULE)
    se = max(abs(value - check), _IMAGE_ROUNDING * (1.0 + abs(value)))
    return EntropyEstimate(value, se, "quadrature", 0, 0)


# ---------------------------------------------------------------------------
# Kozachenko-Leonenko estimator
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EntropyEstimate:
    value: float
    std_error: float
    method: str  # "closed_form" | "quadrature" (exact to its error bar) | "knn"
    n_samples: int
    k_neighbors: int

    def to_dict(self) -> dict:
        return dict(vars(self))


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
    distances.  It is queried in its own leaf order, so consecutive
    queries walk the same nodes, and the distances are scattered back.
    """
    n, d = X.shape
    if d > 1:
        from scipy.spatial import cKDTree

        tree = cKDTree(X, balanced_tree=False, compact_nodes=False)
        dist = tree.query(X[tree.indices], k=[k + 1], workers=-1)[0][:, 0]
        out = np.empty(n)
        out[tree.indices] = dist
        return out
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
    X = np.asarray(samples, dtype=float)
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

    Block entropies are exact (``exact_entropy``).  An image entropy
    h(A_j X) is a quadrature when every block is a two-Gaussian mixture
    and A_j has at most 2 rows (``_quadrature_entropy``), else k-NN on the
    transformed samples; the samples are drawn only if some image needs
    them.  Standard errors combine as an independent sum, which is
    conservative for the difference.  The total's method is "knn" if any
    term is, else "quadrature" if any term is.
    """
    if model.partition != datum.partition:
        raise ValueError("model blocks do not match the datum partition")
    if rng is None:
        rng = np.random.default_rng(0)
    X = None
    terms: list[TermEstimate] = []
    total = 0.0
    var = 0.0
    for i, di in enumerate(datum.d):
        est = EntropyEstimate(float(exact_entropy(model, i)), 0.0, "closed_form", 0, 0)
        terms.append(TermEstimate(f"h(block[{i}])", float(di), est))
        total += di * est.value
        var += (di * est.std_error) ** 2
    for j, (cj, A) in enumerate(zip(datum.c, datum.maps)):
        est = _quadrature_entropy(model, A)
        if est is None:
            if X is None:
                X = sample(model, n_samples, rng)
            est = knn_entropy(X @ A.T, k=k, rng=rng)
        terms.append(TermEstimate(f"h(map[{j}] X)", -float(cj), est))
        total -= cj * est.value
        var += (cj * est.std_error) ** 2
    methods = {t.estimate.method for t in terms}
    method = next((m for m in ("knn", "quadrature") if m in methods), "closed_form")
    drawn = (n_samples, k) if X is not None else (0, 0)
    return EntropyEstimate(float(total), math.sqrt(var), method, *drawn), tuple(terms)


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


# preset model builders matching a datum's partition
# ---------------------------------------------------------------------------


def uniform_model(partition: Partition) -> SampleModel:
    """Uniform on [-1/2, 1/2] in every coordinate."""
    return SampleModel("uniform", tuple(UniformBoxBlock(np.ones(r)) for r in partition.blocks))


def laplace_model(partition: Partition) -> SampleModel:
    """Laplace of scale 1 in every coordinate."""
    return SampleModel("laplace", tuple(LaplaceBlock(np.ones(r)) for r in partition.blocks))


def mixture_model(partition: Partition) -> SampleModel:
    """Each block ``0.5 N(0, 0.5 I) + 0.5 N(0, 2 I)``."""
    return SampleModel(
        "mixture", tuple(TwoGaussianMixBlock(0.5, 0.5, 2.0, r) for r in partition.blocks)
    )


def gaussian_model(partition: Partition) -> SampleModel:
    """Standard normal in every coordinate."""
    return SampleModel("gaussian", tuple(GaussianBlock(np.eye(r)) for r in partition.blocks))
