"""Finiteness verdicts, witnesses, splitting, and certificates.

Claims:
    - the scaling residual matches hand values and drives Infinite
      verdicts with an exact, re-checkable witness
    - subspace witnesses re-verify by recomputing slack from scratch, to
      the bit
    - verdicts do not depend on the rng, nor on the units of one block:
      scaling one block's columns of every map leaves the status alone
    - Zamir-Feder 12x4 (2^12 members, the profile cap) is finite and 13x4
      unknown: the coordinate family's truncation decides, not its screen
    - the escape-ray probe answers infinite with a slack witness (a single
      block beyond a truncated coordinate family), and a per-block kernel
      product and a pairwise kernel intersection are witnesses the other
      candidates miss
    - splitting along a critical subspace yields children that satisfy
      both finiteness conditions, are the restriction to U and the
      projection onto each (A_j U)^perp (same singular values at every
      split of a random certificate), drop a map exactly when its image
      dimension is zero, and split the solved optimum exactly
    - certificates stop at every node whose maps are all square: an
      explicit leaf with constant -sum_j c_j log|det A_j|, or an
      irreducible one where a block's d_i exceeds sum_j c_j below the
      root; they reject a datum whose
      candidates or probe rays include a violating subspace
    - check_finiteness, certify and solve_mg each validate the datum once
      and raise the same ValueError on an invalid one, and each makes one
      candidate pass over the root and at most one probe: certify raises
      ViolationError with check's witness (the scaling residual too),
      and solve_mg answers unbounded along it
    - called in turn on one datum object the three validate once, make
      one root pass and build one split tree; calls interleaved over two
      data give the outputs of cold calls to the bit; the slots keep one
      datum alive, and no raise is kept
    - on all-scalar data with a complete coordinate family, verdicts,
      witnesses, certificates and solves are the same whether the kernel
      tiers run or are skipped
    - a coordinate candidate is built only when a scan uses it: certify
      builds only the splits it tries, and check on a finite datum none;
      check reads the one scored pass and gives the status, witness and
      slack of find_violating_subspace, then the probe
"""

import gc
import json
import math
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import blepi
from blepi.datum import Datum, Partition
from blepi.finiteness import (
    FINITE,
    INFINITE,
    UNKNOWN,
    ScalingResidual,
    SplitError,
    ViolatingSubspace,
    ViolationError,
    certify,
    check_finiteness,
    scaling_residual,
    split_datum,
)
from blepi.gauss import divergence_probe, solve_mg
from blepi.subspace import ProductSubspace, SearchBudget, find_violating_subspace, slack
from conftest import clear_slots, mixed_data, random_datum, scalar_mixed_datum


def diag_subspace():
    """The critical subspace (span{(1,1)}, R) of the coupled-sums datum."""
    return ProductSubspace.from_spans(
        Partition((2, 1)), [np.array([[1.0], [1.0]]), np.array([[1.0]])]
    )


def half_exponent_datum():
    return Datum(
        partition=Partition((1,)),
        maps=(np.array([[1.0]]),),
        c=np.array([0.5]),
        d=np.array([1.0]),
    )


class TestScalingResidual:
    def test_epi(self):
        assert scaling_residual(blepi.make_epi_datum(0.5, 1)) == pytest.approx(0.0, abs=1e-15)

    def test_coupled_sums(self):
        d = blepi.make_coupled_sums_datum(1.0, 1.0, 0.5, 0.5)
        assert scaling_residual(d) == pytest.approx(0.0, abs=1e-12)

    def test_half_exponent(self):
        assert scaling_residual(half_exponent_datum()) == pytest.approx(0.5)


class TestCheckFiniteness:
    def test_epi_is_finite(self):
        v = check_finiteness(blepi.make_epi_datum(0.4, 1), rng=np.random.default_rng(0))
        assert v.status == FINITE

    def test_scaling_violation_with_exact_residual(self):
        v = check_finiteness(half_exponent_datum(), rng=np.random.default_rng(0))
        assert v.status == INFINITE
        assert isinstance(v.witness, ScalingResidual)
        assert v.witness.value == pytest.approx(0.5, abs=1e-15)
        # re-check from scratch
        assert scaling_residual(half_exponent_datum()) == pytest.approx(v.witness.value)

    def test_shared_exponent_above_one(self):
        d = blepi.make_coupled_sums_datum(1.0, 1.2, 0.6, 0.6)
        v = check_finiteness(d, rng=np.random.default_rng(0))
        assert v.status == INFINITE
        assert isinstance(v.witness, ViolatingSubspace)
        recomputed = slack(d, v.witness.subspace)
        assert recomputed.slack == pytest.approx(v.witness.slack)
        assert recomputed.slack > 1e-7
        # the documented witness ( {0} x R ) has slack 0.2
        axis = ProductSubspace.coordinate(d.partition, ((), (0,)))
        assert slack(d, axis).slack == pytest.approx(0.2)

    def test_kernel_witness_of_random_suite_draw_134(self):
        # its ker A_2 witness was scored with dim(A_2 V) = 1 from rounding
        # noise; the verdict then hung on the probe's random rays
        rng = np.random.default_rng(7)
        d = [random_datum(rng, balanced=True) for _ in range(135)][134]
        v = check_finiteness(d)
        assert v.status == INFINITE
        assert isinstance(v.witness, ViolatingSubspace)
        assert v.witness.slack == pytest.approx(0.50438, abs=1e-5)
        assert slack(d, v.witness.subspace).slack == v.witness.slack
        assert solve_mg(d).unbounded

    def test_verdict_ignores_the_rng(self):
        # random-suite draws 127-134; the verdict of draw 134 used to
        # depend on the probe's random rays (unknown with the last generator,
        # the one `blepi check --seed 0` passed)
        rng = np.random.default_rng(7)
        for d in [random_datum(rng, balanced=True) for _ in range(135)][127:]:
            docs = [
                check_finiteness(d, rng=g).to_dict()
                for g in (
                    None,
                    np.random.default_rng(0),
                    np.random.default_rng(1),
                    np.random.Generator(np.random.Philox(np.random.SeedSequence(0, spawn_key=(0,)))),
                )
            ]
            assert all(doc == docs[0] for doc in docs)

    @pytest.mark.parametrize("scale", [1e-3, 1e-6])
    def test_epi_with_one_block_in_other_units_is_finite(self, scale):
        # EPI with X2 measured in other units: slack does not see the units
        d = Datum(
            partition=Partition((1, 1)),
            maps=(np.array([[1.0, scale]]),),
            c=np.array([1.0]),
            d=np.array([0.5, 0.5]),
        )
        assert check_finiteness(d).status == FINITE
        res = solve_mg(d)
        assert res.converged and not res.unbounded

    def test_probe_ray_beyond_the_coordinate_budget_is_a_witness(self):
        # 13 scalar blocks: the first 4096 coordinate candidates all leave
        # block 0 out, and block 0 alone has slack 1.5 - 1 = 0.5
        A = np.random.default_rng(0).standard_normal((12, 13))
        d = Datum(
            partition=Partition((1,) * 13),
            maps=(A,),
            c=np.array([1.0]),
            d=np.array([1.5] + [10.5 / 12] * 12),
        )
        v = check_finiteness(d)
        assert v.status == INFINITE
        assert isinstance(v.witness, ViolatingSubspace)
        assert v.witness.subspace.block_dims == (1,) + (0,) * 12
        assert slack(d, v.witness.subspace).slack == v.witness.slack == pytest.approx(0.5)

    def test_per_block_kernel_witness_of_draw_739(self):
        # the witness is ker maps[1][:, block 3], with slack 0.0235; no
        # coordinate or whole-kernel candidate has positive slack
        rng = np.random.default_rng(123)
        d = [random_datum(rng, balanced=True) for _ in range(740)][739]
        v = check_finiteness(d)
        assert v.status == INFINITE
        assert isinstance(v.witness, ViolatingSubspace)
        assert v.witness.subspace.block_dims == (0, 0, 1)
        sr = slack(d, v.witness.subspace)
        assert sr.violating and sr.slack == v.witness.slack == pytest.approx(0.0235, abs=1e-4)
        assert solve_mg(d).unbounded

    def test_pairwise_kernel_intersection_witness(self, monkeypatch):
        # ker A0 ∩ ker A2 = span(2, -1, -4) has slack
        # 1 - (0.5 * 0 + 0.25 * 1 + 0.5 * 0 + 0.625 * 1) = 0.125; no
        # coordinate, whole-kernel or per-block kernel candidate and no
        # probe ray has positive slack
        d = Datum(
            partition=Partition((3,)),
            maps=(
                np.array([[2.0, 0.0, 1.0]]),
                np.array([[1.0, -1.0, -2.0], [-1.0, -1.0, 2.0], [-1.0, 0.0, 1.0]]),
                np.array([[1.0, -2.0, 1.0]]),
                np.array([[-2.0, 2.0, 0.0], [-1.0, -1.0, -2.0]]),
            ),
            c=np.array([0.5, 0.25, 0.5, 0.625]),
            d=np.array([1.0]),
        )
        assert scaling_residual(d) == 0.0
        v = check_finiteness(d)
        assert v.status == INFINITE
        assert isinstance(v.witness, ViolatingSubspace)
        assert v.witness.slack == pytest.approx(0.125, abs=1e-12)
        (B,) = v.witness.subspace.bases
        u = np.array([2.0, -1.0, -4.0]) / math.sqrt(21.0)
        assert B.shape == (3, 1) and abs(float(B[:, 0] @ u)) == pytest.approx(1.0, abs=1e-12)
        # without the pairwise tier the search finds nothing; the slot
        # still holds the verdict found with it
        monkeypatch.setattr(
            "blepi.subspace._kernel_pair_intersection", lambda Ka, Kb: np.zeros((3, 0))
        )
        clear_slots()
        assert check_finiteness(d).status == FINITE

    def test_negative_profile_cap_is_rejected_by_the_budget(self):
        # it used to reach the coordinate masks and raise numpy's
        # "negative dimensions are not allowed"
        d = blepi.make_epi_datum(0.3, 2)
        with pytest.raises(ValueError, match="profile_cap must be an int >= 0, got -3"):
            check_finiteness(d, SearchBudget(profile_cap=-3))
        assert check_finiteness(d, SearchBudget(profile_cap=0)).status == UNKNOWN

    def test_budget_exhaustion_is_unknown(self):
        d = blepi.make_epi_datum(0.5, 2)  # 16 coordinate subspaces
        v = check_finiteness(d, SearchBudget(profile_cap=2))
        assert v.status == UNKNOWN

    @pytest.mark.parametrize("n, status", [(12, FINITE), (13, UNKNOWN)])
    def test_zamir_feder_at_the_profile_cap(self, n, status):
        # 2^12 = 4096 members fit the default cap and decide; 2^13 do not
        Q, _ = np.linalg.qr(np.random.default_rng(0).standard_normal((n, 4)))
        v = check_finiteness(blepi.make_zamir_feder_datum(Q[:, :4].T))
        assert v.status == status

    def test_invalid_datum_rejected(self):
        bad = Datum(
            partition=Partition((2,)),
            maps=(np.zeros((1, 2)),),
            c=np.array([1.0]),
            d=np.array([1.0]),
        )
        with pytest.raises(ValueError):
            check_finiteness(bad)


def _empty_image_datum():
    """Balanced, but its second map has no rows (EMPTY_IMAGE)."""
    return Datum(
        partition=Partition((2, 1, 3)),
        maps=(np.random.default_rng(3).standard_normal((2, 6)), np.zeros((0, 6))),
        c=np.array([1.5, 0.5]),
        d=np.full(3, 0.5),
    )


def _unbalanced_zero_map_datum():
    """Residual 1, and its one map is zero (not surjective)."""
    return Datum(
        partition=Partition((2,)), maps=(np.zeros((1, 2)),), c=np.array([1.0]), d=np.array([1.0])
    )


@pytest.mark.parametrize("entry", [check_finiteness, certify, solve_mg],
                         ids=["check", "certify", "solve"])
@pytest.mark.parametrize("make", [_empty_image_datum, _unbalanced_zero_map_datum],
                         ids=["empty-image", "unbalanced"])
def test_every_entry_point_rejects_an_invalid_datum(entry, make):
    # certify raised ViolationError on the empty image and solve_mg
    # reported it unbounded with mg_value inf
    with pytest.raises(ValueError, match="invalid datum") as exc:
        entry(make())
    assert not isinstance(exc.value, ViolationError)


@pytest.mark.parametrize("entry", [check_finiteness, certify, solve_mg],
                         ids=["check", "certify", "solve"])
@pytest.mark.parametrize(
    "d",
    [blepi.make_epi_datum(0.5, 2),
     Datum(partition=Partition((1,)), maps=(np.eye(1),), c=np.array([0.5]), d=np.ones(1))],
    ids=["balanced", "unbalanced"],
)
def test_every_entry_point_validates_once(entry, d, monkeypatch):
    calls = []
    validate = blepi.finiteness.validate
    monkeypatch.setattr(blepi.finiteness, "validate", lambda x: calls.append(x) or validate(x))
    if entry is certify and scaling_residual(d):
        with pytest.raises(ValueError, match="scaling balance fails"):
            entry(d)
    else:
        entry(d)
    assert len(calls) == 1


@pytest.mark.parametrize(
    "d",
    [
        Datum(partition=Partition((2, 1)), maps=(np.eye(3)[:2],), c=np.array([1.0]), d=np.ones(2)),
        Datum(partition=Partition((2, 1)), maps=(np.eye(3),), c=np.array([0.5]), d=np.full(2, 0.25)),
    ],
    ids=["residual+", "residual-"],
)
def test_certify_and_solve_read_the_residual_witness_of_check(d):
    """certify raises ViolationError with check's ScalingResidual, and
    solve_mg's sigma_star is 2**10 I on the side of the scale where the
    objective grows (2**-10 I for a negative residual)."""
    verdict = check_finiteness(d)
    assert isinstance(verdict.witness, ScalingResidual)
    with pytest.raises(ViolationError, match=r"\(scaling balance fails\)") as exc:
        certify(d)
    assert exc.value.witness == verdict.witness
    res = solve_mg(d)
    lam = 2.0 ** math.copysign(10, verdict.witness.value)
    assert res.unbounded and res.mg_value == math.inf
    assert all(np.array_equal(S, lam * np.eye(len(S))) for S in res.sigma_star.blocks)


@pytest.mark.parametrize("entry", [check_finiteness, certify, solve_mg],
                         ids=["check", "certify", "solve"])
@pytest.mark.parametrize(
    "d",
    [blepi.make_epi_datum(0.5, 2), blepi.make_coupled_sums_datum(1.25, 0.5, 0.5, 0.5)],
    ids=["epi", "coupled_sums"],
)
def test_every_entry_point_makes_one_root_pass(entry, d, monkeypatch):
    """The root decision is made once: one candidate pass over the root
    datum (the children of a split make their own) and at most one probe."""
    passes, probes = [], []
    scan, probe = blepi.finiteness._scan, blepi.finiteness.divergence_probe
    monkeypatch.setattr(blepi.finiteness, "_scan", lambda x, b: passes.append(x) or scan(x, b))
    monkeypatch.setattr(
        blepi.finiteness, "divergence_probe", lambda x: probes.append(x) or probe(x)
    )
    entry(d)
    assert sum(x is d for x in passes) == 1
    assert len(probes) <= 1 and all(x is d for x in probes)


def _violating_member_datum():
    """Block one is the kernel of the one map: slack 0.5."""
    return Datum(
        partition=Partition((1, 1)),
        maps=(np.array([[0.0, 1.0]]),),
        c=np.array([1.0]),
        d=np.array([0.5, 0.5]),
    )


@pytest.mark.parametrize(
    "d, splits",
    [
        (blepi.make_epi_datum(0.3, 3), True),
        (blepi.make_coupled_sums_datum(1.25, 0.5, 0.5, 0.5), False),
        (Datum(partition=Partition((1,)), maps=(np.eye(1),), c=np.array([0.5]), d=np.ones(1)), False),
        (_violating_member_datum(), False),
    ],
    ids=["epi", "coupled_sums", "unbalanced", "violating"],
)
def test_check_certify_solve_share_one_validation_one_root_pass_and_one_tree(d, splits, monkeypatch):
    """In turn on one datum object the three entry points validate once,
    make one candidate pass over the root and try the splits of one
    certify; certify returns the same tree again, or raises again."""
    reports, passes, tried = [], [], []
    report, scan = blepi.datum.ValidationReport, blepi.finiteness._scan
    split = blepi.finiteness.split_datum
    monkeypatch.setattr(blepi.datum, "ValidationReport", lambda i: reports.append(i) or report(i))
    monkeypatch.setattr(blepi.finiteness, "_scan", lambda x, b: passes.append(x) or scan(x, b))
    monkeypatch.setattr(blepi.finiteness, "split_datum", lambda x, U: tried.append(x) or split(x, U))
    finite = check_finiteness(d).status == FINITE
    if finite:
        tree = certify(d)
        assert certify(d) is tree
    else:
        with pytest.raises(ViolationError):
            certify(d)
    solve_mg(d)
    assert len(reports) == 1
    assert sum(x is d for x in passes) == (scaling_residual(d) == 0)  # the balance decides first
    shared = len(tried)
    clear_slots()
    if finite:
        certify(d)
    assert len(tried) == 2 * shared and (shared > 0) == splits


def _floats(a) -> list:
    return [repr(float(x)) for x in np.ravel(a)]


def _witness_digest(w) -> list:
    if isinstance(w, ScalingResidual):
        return ["residual", repr(w.value)]
    return ["subspace", repr(w.slack), [_floats(B) for B in w.subspace.bases]]


def _tree_digest(node) -> list:
    maps = [_floats(A) for A in node.datum.maps]
    if node.is_leaf:
        return [node.leaf_kind, repr(node.constant), maps]
    bases = [_floats(B) for B in node.subspace.bases]
    return [bases, maps, [_tree_digest(child) for child in node.children]]


def _stage_digests(datum, cold: bool) -> list:
    """validate, check, certify and solve_mg outputs, floats by repr; with
    ``cold`` each stage runs on empty slots."""
    out = []
    for stage in (blepi.validate, check_finiteness, certify, solve_mg):
        if cold:
            clear_slots()
        try:
            result = stage(datum)
        except ViolationError as exc:
            out.append(["violation", _witness_digest(exc.witness)])
            continue
        if stage is check_finiteness:
            w = result.witness
            out.append([result.status, result.notes, None if w is None else _witness_digest(w)])
        elif stage is certify:
            out.append(_tree_digest(result))
        else:  # json writes each float by its repr
            out.append(json.dumps(result.to_dict()))
    return out


_some_data = st.one_of(
    mixed_data(),
    st.tuples(st.integers(0, 2**32 - 1), st.booleans()).map(
        lambda sb: random_datum(np.random.default_rng(sb[0]), balanced=sb[1])
    ),
)


@settings(max_examples=40, deadline=None)
@given(a=_some_data, b=_some_data)
def test_interleaved_calls_give_the_outputs_of_cold_calls(a, b):
    """On A, B, A, B in turn every stage gives, to the bit, what it gives
    on empty slots."""
    cold = [_stage_digests(a, cold=True), _stage_digests(b, cold=True)]
    for x, expected in zip((a, b, a, b), cold * 2):
        assert _stage_digests(x, cold=False) == expected


def test_the_slots_keep_one_datum():
    """The slots hold the last datum alive, and let it go once the entry
    points are called on another."""
    a, b = blepi.make_epi_datum(0.3, 2), blepi.make_epi_datum(0.4, 2)
    check_finiteness(a), certify(a), solve_mg(a)
    kept = weakref.ref(a)
    del a
    gc.collect()
    assert kept() is not None
    check_finiteness(b), certify(b), solve_mg(b)
    gc.collect()
    assert kept() is None


def test_the_budget_is_part_of_the_key():
    """One datum object under two budgets: each call gets its own budget's
    verdict (16 coordinate members, 2 of them within the small cap)."""
    d = blepi.make_epi_datum(0.5, 2)
    small = SearchBudget(profile_cap=2)
    budgets = (SearchBudget(), small, SearchBudget(), small)
    assert [check_finiteness(d, b).status for b in budgets] == [FINITE, UNKNOWN, FINITE, UNKNOWN]
    assert certify(d, small).is_leaf != certify(d).is_leaf


def test_an_invalid_or_infinite_datum_raises_on_every_call():
    """A raise is never kept: an invalid datum raises ValueError on every
    call of every entry point, and an infinite one ViolationError from
    certify, with the one witness of the kept root verdict."""
    bad = _empty_image_datum()
    for _ in range(3):
        for entry in (check_finiteness, certify, solve_mg):
            with pytest.raises(ValueError, match="invalid datum"):
                entry(bad)
    infinite = _violating_member_datum()
    witnesses = []
    for _ in range(3):
        with pytest.raises(ViolationError) as exc:
            certify(infinite)
        witnesses.append(exc.value.witness)
        assert solve_mg(infinite).unbounded
    assert all(w is witnesses[0] for w in witnesses)
    assert check_finiteness(infinite).witness is witnesses[0]


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    scale=st.sampled_from([1e-6, 1e-2, 1e2, 1e6]),
    data=st.data(),
)
def test_verdict_is_invariant_under_a_change_of_units_in_one_block(seed, scale, data):
    d = random_datum(np.random.default_rng(seed), balanced=True)
    i = data.draw(st.integers(0, d.partition.k - 1))
    start, stop = d.partition.offsets()[i]
    maps = []
    for A in d.maps:
        A = A.copy()
        A[:, start:stop] *= scale
        maps.append(A)
    scaled = Datum(partition=d.partition, maps=tuple(maps), c=d.c, d=d.d)
    assert check_finiteness(scaled).status == check_finiteness(d).status


class TestSplit:
    def test_coupled_sums_split_children(self):
        d = blepi.make_coupled_sums_datum(1.0, 1.0, 0.5, 0.5)
        cu, cp = split_datum(d, diag_subspace())
        assert cu.n == 2 and cp.n == 1
        assert abs(scaling_residual(cu)) <= 1e-9
        assert abs(scaling_residual(cp)) <= 1e-9
        # children satisfy the subspace condition too
        assert find_violating_subspace(cu, SearchBudget(), np.random.default_rng(0)) is None
        assert find_violating_subspace(cp, SearchBudget(), np.random.default_rng(0)) is None
        # the zero-dimensional images of maps 1 and 2 and the empty
        # second block are dropped from the U_perp child
        assert cp.m == 1 and tuple(cp.c) == (1.0,)
        assert cp.partition.blocks == (1,)

    def test_noncritical_subspace_rejected(self):
        d = blepi.make_epi_datum(0.5, 1)
        V = ProductSubspace.coordinate(d.partition, ((0,), ()))
        assert slack(d, V).slack == pytest.approx(-0.5)
        with pytest.raises(SplitError):
            split_datum(d, V)

    def test_trivial_subspace_rejected(self):
        d = blepi.make_coupled_sums_datum(1.0, 1.0, 0.5, 0.5)
        with pytest.raises(SplitError):
            split_datum(d, ProductSubspace.zero(d.partition))
        with pytest.raises(SplitError):
            split_datum(d, ProductSubspace.full(d.partition))

    def test_subadditivity_of_the_optimum(self):
        # the constant splits exactly along a critical subspace
        d = blepi.make_coupled_sums_datum(1.0, 1.0, 0.5, 0.5)
        child_u, child_perp = split_datum(d, diag_subspace())
        parent = solve_mg(d)
        left = solve_mg(child_u)
        right = solve_mg(child_perp)
        for res in (parent, left, right):
            assert res.converged and not res.unbounded
        assert parent.mg_value == pytest.approx(left.mg_value + right.mg_value, abs=1e-9)

    def test_image_basis_of_a_subspace_in_a_kernel_is_empty(self):
        # coupled sums (1, 1, 0.5, 0.5) split along its second block leaves
        # a (2,) child whose first map kills span(1, 1) up to rounding
        # (A E = 7.8e-17); its image basis used to keep that noise as one
        # column, which left the U_perp grandchild with no maps (SplitError)
        d = blepi.make_coupled_sums_datum(1.0, 1.0, 0.5, 0.5)
        U = ProductSubspace.coordinate(d.partition, ((), (0,)))
        _, child = split_datum(d, U)
        diag = ProductSubspace.from_spans(child.partition, [np.array([[1.0], [1.0]])])
        assert slack(child, diag).per_map_dims == (0, 1, 1)
        grand_u, grand_perp = split_datum(child, diag)
        # the U grandchild keeps maps 1 and 2, the U_perp grandchild map 0
        assert grand_u.image_dims == (1, 1) and tuple(grand_u.c) == (0.5, 0.5)
        assert grand_perp.image_dims == (1,) and tuple(grand_perp.c) == (1.0,)


def _leading_singular_values(M, k):
    return np.linalg.svd(M, compute_uv=False)[:k]


@settings(max_examples=100, deadline=None)
@example(seed=37)
@example(seed=47)
@example(seed=69)
@given(seed=st.integers(0, 2**32 - 1))
def test_split_children_are_the_restriction_and_the_projection(seed):
    # at every split of the certificate, the child on U carries A_j E and
    # the child on U_perp carries (I - P_j) A_j E_perp, P_j the projection
    # onto A_j U, up to orthonormal changes of basis: same singular values
    # (seeds 37, 47 and 69 draw data whose certificates split)
    d = random_datum(np.random.default_rng(seed), balanced=True)
    try:
        tree = certify(d)
    except ViolationError:
        return
    nodes = [tree]
    while nodes:
        node = nodes.pop()
        if node.is_leaf:
            continue
        parent, U = node.datum, node.subspace
        child_u, child_perp = (child.datum for child in node.children)
        nodes.extend(node.children)
        for child in (child_u, child_perp):
            assert abs(scaling_residual(child)) <= 1e-9
        assert child_u.n + child_perp.n == parent.n
        E = U.embedding
        Eperp = np.linalg.svd(E, full_matrices=True)[0][:, U.dim :]
        kept_u = iter(child_u.maps)
        kept_perp = iter(child_perp.maps)
        for A, k in zip(parent.maps, slack(parent, U).per_map_dims):
            tol = 1e-9 * np.linalg.norm(A, 2)
            W = np.linalg.svd(A @ E)[0][:, :k]
            projected = (A - W @ (W.T @ A)) @ Eperp
            if k > 0:
                np.testing.assert_allclose(
                    _leading_singular_values(next(kept_u), k),
                    _leading_singular_values(A @ E, k),
                    rtol=0, atol=tol,
                )
            rows = A.shape[0] - k
            if rows > 0:
                B = next(kept_perp)
                assert B.shape == (rows, parent.n - U.dim)
                r = min(B.shape)
                np.testing.assert_allclose(
                    _leading_singular_values(B, r),
                    _leading_singular_values(projected, r),
                    rtol=0, atol=tol,
                )
        assert next(kept_u, None) is None and next(kept_perp, None) is None


class TestCertify:
    def test_dim_one_leaf_constant(self):
        d = Datum(
            partition=Partition((1,)),
            maps=(np.array([[2.0]]),),
            c=np.array([1.0]),
            d=np.array([1.0]),
        )
        tree = certify(d)
        assert tree.is_leaf and tree.leaf_kind == "explicit"
        assert tree.constant == pytest.approx(-math.log(2.0))

    def test_single_square_map_leaf(self):
        d = Datum(
            partition=Partition((1, 1)),
            maps=(np.eye(2),),
            c=np.array([1.0]),
            d=np.array([1.0, 1.0]),
        )
        tree = certify(d)
        assert tree.is_leaf and tree.leaf_kind == "explicit"
        assert tree.constant == pytest.approx(0.0)

    def test_coupled_sums_tree_splits_at_the_diagonal(self):
        d = blepi.make_coupled_sums_datum(1.0, 1.0, 0.5, 0.5)
        rng = np.random.default_rng(5)
        tree = certify(d, rng=rng)
        assert not tree.is_leaf
        dims = sorted(child.datum.n for child in tree.children)
        assert dims == [1, 2]
        for leaf in tree.leaves():
            assert leaf.leaf_kind in ("explicit", "irreducible")
            if leaf.leaf_kind != "irreducible":
                assert math.isfinite(leaf.constant)

    def test_beta_one_coupled_sums_splits_into_dim_one_leaves(self):
        tree = certify(blepi.make_coupled_sums_datum(1.0, 1.0, 0.5, 0.5))
        assert [leaf.leaf_kind for leaf in tree.leaves()] == ["explicit"] * 3
        assert sum(leaf.constant for leaf in tree.leaves()) == pytest.approx(0.0, abs=1e-12)

    def test_square_node_with_a_block_past_the_exponent_sum_is_irreducible(self):
        # draw 7188 of mixed_datum(default_rng(2026)): the root is finite
        # by the search and not all square; its first leaf has two 2x2
        # maps with sum_j c_j = 1.125 and d = (1, 1.25), so its objective
        # grows like 0.125 log det Sigma_2 and no constant stands for it
        d = Datum(
            partition=Partition((2, 2)),
            maps=(
                np.array([[-2.0, 1, 0, 1], [1, 2, -2, -2]]),
                np.array([[2.0, -2, -1, -2], [-1, -2, 0, -2], [0, -2, -1, 0], [1, 2, 2, 2]]),
                np.array([[2.0, 0, 2, 1]]),
            ),
            c=np.array([0.45, 0.675, 0.9]),
            d=np.array([1.0, 1.25]),
        )
        assert check_finiteness(d).status == FINITE
        tree = certify(d)
        assert not tree.is_leaf
        square = [
            leaf for leaf in tree.leaves()
            if all(A.shape[0] == A.shape[1] for A in leaf.datum.maps)
        ]
        assert square and all(leaf.leaf_kind == "irreducible" for leaf in square)
        assert any(max(leaf.datum.d) > sum(leaf.datum.c) for leaf in square)
        assert all(leaf.constant is None for leaf in square)

    @pytest.mark.parametrize(
        "d",
        [
            blepi.make_coupled_sums_datum(1.0, 1.2, 0.6, 0.6),
            # one square map but d_1 != c: once a finite explicit leaf
            Datum(
                partition=Partition((1, 1)),
                maps=(np.eye(2),),
                c=np.array([1.0]),
                d=np.array([1.5, 0.5]),
            ),
        ],
    )
    def test_violating_subspace_raises_with_the_witness(self, d):
        with pytest.raises(ViolationError) as exc:
            certify(d)
        assert exc.value.witness.subspace.dim > 0
        assert slack(d, exc.value.witness.subspace).violating
        assert isinstance(exc.value, ValueError)

    def test_probe_ray_beyond_the_coordinate_budget_raises(self):
        # block 0 alone has slack 1.5 - 0.5 - 0.5 = 0.5, but the first two
        # coordinate candidates leave it out; certify used to return one
        # irreducible leaf where check_finiteness answers infinite
        d = Datum(
            partition=Partition((1, 1, 1)),
            maps=(np.ones((1, 3)), np.eye(3)),
            c=np.array([0.5, 0.5]),
            d=np.array([1.5, 0.25, 0.25]),
        )
        budget = SearchBudget(profile_cap=2)
        assert check_finiteness(d, budget).status == INFINITE
        with pytest.raises(ViolationError) as exc:
            certify(d, budget)
        assert exc.value.witness.subspace.block_dims == (1, 0, 0)
        assert slack(d, exc.value.witness.subspace).slack == pytest.approx(0.5)

    def test_children_inherit_balance(self):
        d = blepi.make_coupled_sums_datum(1.0, 1.0, 0.5, 0.5)
        tree = certify(d, rng=np.random.default_rng(5))

        def walk(node):
            assert abs(scaling_residual(node.datum)) <= 1e-9
            if not node.is_leaf:
                for child in node.children:
                    walk(child)

        walk(tree)

    def test_requires_balance(self):
        with pytest.raises(ValueError):
            certify(half_exponent_datum())


def _pipeline_digest(datum):
    """check, certify and solve_mg outputs, to the bit."""
    v = check_finiteness(datum)
    out = [v.status, type(v.witness).__name__]
    if isinstance(v.witness, ViolatingSubspace):
        out += [v.witness.slack.hex(), [B.tolist() for B in v.witness.subspace.bases]]
    try:
        for leaf in certify(datum).leaves():
            out.append((leaf.leaf_kind, repr(leaf.constant), leaf.datum.partition.blocks))
    except ViolationError as exc:
        out.append([B.tolist() for B in exc.witness.subspace.bases])
    res = solve_mg(datum)
    out.append([repr(res.mg_value), res.converged, res.unbounded, res.starts_used])
    out.append(repr(res.gradient_norm))
    return out


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_complete_scalar_family_skips_the_kernel_tiers_exactly(seed):
    datum = scalar_mixed_datum(np.random.default_rng(seed))
    skipped = _pipeline_digest(datum)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(blepi.subspace, "_kernel_tiers_run", lambda partition, cap: True)
        clear_slots()  # the slots hold the skipped run's outputs
        forced = _pipeline_digest(datum)
    assert forced == skipped


@pytest.fixture
def coordinate_builds(monkeypatch):
    """Every coordinate subspace built while the fixture is active."""
    built = []
    coordinate = ProductSubspace.coordinate

    def counting(partition, axes):
        V = coordinate(partition, axes)
        built.append(V)
        return V

    monkeypatch.setattr(ProductSubspace, "coordinate", staticmethod(counting))
    return built


class TestBuildOnUse:
    @pytest.mark.parametrize(
        "datum, builds",
        [
            (blepi.make_epi_datum(0.3, 3), 2),
            (blepi.make_coupled_sums_datum(1.25, 0.5, 0.5, 0.5), 0),
        ],
        ids=["epi(0.3,3)", "coupled_sums(1.25,0.5,0.5)"],
    )
    def test_certify_builds_only_the_splits_it_tries(
        self, datum, builds, coordinate_builds, monkeypatch
    ):
        """Of the critical coordinate members (the zero and the whole space
        among them), only the ones a node splits along are built."""
        tried = []
        split = blepi.finiteness.split_datum

        def spy(d, U):
            tried.append(U)
            return split(d, U)

        monkeypatch.setattr(blepi.finiteness, "split_datum", spy)
        certify(datum)
        assert len(coordinate_builds) == builds
        assert all(any(U is V for U in tried) for V in coordinate_builds)

    @pytest.mark.parametrize(
        "datum",
        [
            blepi.make_epi_datum(0.3, 3),
            blepi.make_coupled_sums_datum(1.25, 0.5, 0.5, 0.5),
            blepi.make_zamir_feder_datum(np.array([[0.6, 0.8, 0.0], [0.0, 0.0, 1.0]])),
        ],
        ids=["epi", "coupled_sums", "zamir_feder"],
    )
    def test_check_on_a_finite_datum_builds_no_coordinate_subspace(
        self, datum, coordinate_builds
    ):
        assert check_finiteness(datum).status == FINITE
        assert coordinate_builds == []

    def test_a_violating_member_is_built_as_the_witness(self, coordinate_builds):
        datum = Datum(
            partition=Partition((1, 1)),
            maps=(np.array([[0.0, 1.0]]),),  # kernel is block one, slack 0.5
            c=np.array([1.0]),
            d=np.array([0.5, 0.5]),
        )
        verdict = check_finiteness(datum)
        assert verdict.status == INFINITE
        assert verdict.witness.subspace.block_dims == (1, 0)
        assert [verdict.witness.subspace] == coordinate_builds


@settings(max_examples=150, deadline=None)
@given(
    datum=st.one_of(
        mixed_data(),
        st.integers(0, 2**32 - 1).map(
            lambda seed: random_datum(np.random.default_rng(seed), balanced=True)
        ),
    ),
    cap=st.sampled_from([4096, 19]),
)
def test_check_gives_the_witness_of_find_violating_subspace_then_the_probe(datum, cap):
    """check reads the scan certify reads; its verdict is the one the
    public search, scoring every candidate again, and then the probe give."""
    budget = SearchBudget(profile_cap=cap)
    verdict = check_finiteness(datum, budget)
    V = find_violating_subspace(datum, budget) or divergence_probe(datum)
    if V is None:
        truncated = 2**datum.n > cap
        assert verdict.status == (UNKNOWN if truncated else FINITE)
        assert verdict.witness is None
        return
    assert verdict.status == INFINITE
    W = verdict.witness.subspace
    assert len(W.bases) == len(V.bases)
    assert all(np.array_equal(B, C) for B, C in zip(W.bases, V.bases))
    assert verdict.witness.slack == slack(datum, V).slack
