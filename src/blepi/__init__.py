"""blepi: checking, solving, and verifying entropy inequalities of the form

    sum_i d_i h(X_i) - sum_j c_j h(A_j X)  <=  M

for block-independent X.  The optimal constant M coincides with its
Gaussian restriction, so it is computed exactly by log-det maximization
over block covariances; finiteness is decided through scaling balance
and product-subspace slack; classical special cases (entropy power,
subadditivity, Zamir-Feder, coupled sums) have closed forms; and the
inequality is checked empirically for non-Gaussian inputs by sampling
and k-NN entropy estimation.
"""

from .datum import (
    Datum,
    DatumParseError,
    Issue,
    Partition,
    ValidationReport,
    doubled_datum,
    load,
    make_coupled_sums_datum,
    make_epi_datum,
    make_zamir_feder_datum,
    save,
    validate,
)
from .subspace import (
    ProductSubspace,
    SearchBudget,
    SlackResult,
    candidate_subspaces,
    dim_image,
    find_violating_subspace,
    slack,
)
from .finiteness import (
    FinitenessVerdict,
    ScalingResidual,
    SplitTree,
    ViolatingSubspace,
    certify,
    check_finiteness,
    scaling_residual,
    split_datum,
)
from .gauss import (
    BlockCovariance,
    DegenerateImageError,
    GaussianSolveResult,
    PerturbationParams,
    SolverOptions,
    divergence_probe,
    gaussian_entropy,
    gradient,
    objective,
    objective_perturbed,
    rotate_pair,
    solve_mg,
)
from .closed_forms import (
    CoupledSumsParams,
    cauchy_binet_check,
    coupled_sums_bruteforce,
    coupled_sums_constant,
    coupled_sums_feasible,
    epi_mg,
    zf_F,
    zf_coefficients,
)
from .estimate import (
    EntropyEstimate,
    SampleModel,
    VerificationReport,
    empirical_f,
    exact_entropy,
    knn_entropy,
    sample,
    verify_inequality,
)

__version__ = "0.1.0"
