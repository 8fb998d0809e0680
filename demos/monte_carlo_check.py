"""Empirical verification of the inequality for non-Gaussian inputs.

The Gaussian optimum M_g bounds the objective for every product-form
input.  Here the bound is tested the blunt way: draw samples from
uniform, Laplace, and Gaussian-mixture block models, estimate each
entropy term (closed forms where available, k-NN elsewhere), and compare
the combination to the solved M_g with batch-means error bars.  Margins
should be negative or within noise of zero; a corrupted reference shows
what a failure looks like.
"""

import numpy as np

import blepi
from blepi.estimate import gaussian_model, laplace_model, mixture_model, uniform_model


def run(datum, label, n=30_000, seed=0):
    res = blepi.solve_mg(datum)
    models = [
        uniform_model(datum.partition),
        laplace_model(datum.partition),
        mixture_model(datum.partition),
        gaussian_model(datum.partition),
    ]
    reports = blepi.verify_inequality(
        datum, models, res.mg_value, n_samples=n, rng=np.random.default_rng(seed)
    )
    print(f"{label}:  M_g = {res.mg_value:+.6f} nats")
    for r in reports:
        print(
            f"  {r.model:<8} f_hat = {r.empirical_f.value:+.4f} "
            f"(se {r.empirical_f.std_error:.4f})  margin = {r.margin:+.4f}  "
            f"{'pass' if r.passed else 'FAIL'}"
        )


def main():
    run(blepi.make_epi_datum(0.5, 1), "entropy power, lambda = 0.5")
    run(blepi.make_coupled_sums_datum(1.25, 0.5, 0.5, 0.5), "coupled sums (1.25, .5, .5)")

    print("\ncorrupted reference (M_g - 1) at the Gaussian extremizer:")
    datum = blepi.make_epi_datum(0.5, 1)
    reports = blepi.verify_inequality(
        datum,
        [gaussian_model(datum.partition)],
        blepi.solve_mg(datum).mg_value - 1.0,
        n_samples=30_000,
        rng=np.random.default_rng(1),
    )
    r = reports[0]
    print(f"  margin = {r.margin:+.4f}, z = {r.z_score:.1f}  ->  {'pass' if r.passed else 'FAIL'}")


if __name__ == "__main__":
    main()
