"""Finiteness verdicts, witnesses, and recursive split certificates.

An optimal constant is finite iff the total scaling balance holds and no
product-form subspace has positive slack.  Violations come with concrete
witnesses: the exact residual, or a subspace whose slack certifies
divergence.  Finite data can be decomposed along critical (zero-slack)
subspaces into smaller data, down to one-dimensional or single-map
leaves with explicit constants.  A change of units inside one block
changes no verdict: every verdict is read off the slack.
"""

import numpy as np

import blepi


def describe(name, datum, rng):
    verdict = blepi.check_finiteness(datum, rng=rng)
    line = f"{name}: {verdict.status}"
    if isinstance(verdict.witness, blepi.ScalingResidual):
        line += f" (scaling residual {verdict.witness.value:+.3f})"
    elif isinstance(verdict.witness, blepi.ViolatingSubspace):
        line += f" (subspace witness, slack {verdict.witness.slack:+.3f})"
    print(line)
    return verdict


def show_tree(node, indent="  "):
    if node.is_leaf:
        const = "none" if node.constant is None else f"{node.constant:+.6f} nats"
        print(f"{indent}leaf[{node.leaf_kind}] n={node.datum.n} m={node.datum.m} constant={const}")
    else:
        dims = tuple(B.shape[1] for B in node.subspace.bases)
        print(f"{indent}split n={node.datum.n} along a critical subspace with block dims {dims}")
        for child in node.children:
            show_tree(child, indent + "  ")


def main():
    rng = np.random.default_rng(1)

    describe("EPI(0.5, 1)          ", blepi.make_epi_datum(0.5, 1), rng)
    describe("coupled(1, 1, .5, .5)", blepi.make_coupled_sums_datum(1, 1, 0.5, 0.5), rng)
    describe("coupled(1, 1.2,.6,.6)", blepi.make_coupled_sums_datum(1, 1.2, 0.6, 0.6), rng)
    describe("coupled(1, 1, 0, 0)  ", blepi.make_coupled_sums_datum(1, 1, 0, 0), rng)

    # the EPI datum with X2 measured in units 1000 times larger: map [1, 1e-3]
    milli = blepi.Datum(
        partition=blepi.Partition((1, 1)),
        maps=(np.array([[1.0, 1e-3]]),),
        c=np.array([1.0]),
        d=np.array([0.5, 0.5]),
    )
    describe("EPI, X2 in 1e-3 units", milli, rng)

    print("\nsplit certificate for coupled(1, 1, .5, .5):")
    datum = blepi.make_coupled_sums_datum(1, 1, 0.5, 0.5)
    tree = blepi.certify(datum, rng=rng)
    show_tree(tree)

    print("\nthe constant splits exactly across the root split:")
    parts = blepi.split_datum(datum, tree.subspace)
    parent = blepi.solve_mg(datum).mg_value
    left = blepi.solve_mg(parts.child_u.datum).mg_value
    right = blepi.solve_mg(parts.child_perp.datum).mg_value
    print(f"  M(parent) = {parent:+.2e} = {left:+.2e} + {right:+.2e} = M(U) + M(U_perp)")


if __name__ == "__main__":
    main()
