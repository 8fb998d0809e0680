"""Product subspaces: embedding, image dimensions, slack, and the search.

Claims:
    - the embedding stacks per-block bases block-diagonally and
      orthonormally; it is stored on the subspace, read-only, and equals
      block_diag of the bases
    - the one orthonormality check of the embedding accepts and rejects
      exactly as np.allclose(B^T B, I, atol=_ORTHO_TOL) on every block
      (tolerance edges, NaN, inf and empty blocks included) and names the
      first bad block; subspaces compare by identity and hash
    - the numpy bases null_space and orthonormal_columns, and block_diag,
      equal scipy.linalg's null_space, orth and block_diag bit for bit on
      shapes 0 to 7, rank-deficient and badly scaled matrices included
    - dim_image is np.linalg.matrix_rank of A E at rank_tol(A), bounded
      by min(dim V, n_j) and monotone under inclusion; its tolerance is
      relative to the map, so a kernel has image dimension zero and the
      full space image dimension n_j even when the rows are scaled over
      six decades, and it stays finite where the squared entries overflow
    - slack matches the hand-computed values on the named data, is zero
      on the zero subspace, equals the scaling residual on the full
      space, and is invariant under per-block re-bases
    - a Haar-random product subspace has, map by map, image dimensions
      at least those of the coordinate subspace with the same dimension
      profile, so its slack is never larger (why the search draws none)
    - the candidate iterator enumerates the documented families, the
      coordinate family in the order and with the bases of a
      column-by-column construction up to the cap, filtered by the
      reference slack to its critical or violating members, and the
      search returns only certified (slack-positive) witnesses; the
      whole space is yielded once, by the coordinate screen
    - the bulk screen's stacked ranks are dim_image on every member
      scored and its slack is slack's bit for bit, on balanced,
      unbalanced, zeroed-column and integer data; a critical member past
      the cap is never yielded, and a generic Zamir-Feder datum yields
      only the zero and the full subspace
    - a scan's scored candidates are candidate_subspaces' basis for basis,
      each with a score equal to slack's, on mixed-recipe data with a
      complete and a truncated coordinate family
    - on all-scalar blocks every critical or violating candidate of the
      kernel tiers repeats a screen member with the same axes and slack,
      which is why a complete family skips those tiers
    - the coordinate and ray tables depend on shape only: equal
      partitions share one cached, read-only table, and the ranks read
      through it are those of the per-call computation, bit for bit
    - every coordinate table, capped or not, holds each subset of each
      member, so it is closed (every subset of the axes its members use)
      exactly when it has 2^u members for u used axes; on a closed table
      each member lies inside one of every larger size, so a map's size
      equal to its row count, stacked first with twice the rank cut as
      margin on every member, settles every other size, leaving 56, 126
      and 495 of the 2^n - 1 SVDs on generic Zamir-Feder 8x3, 9x4 and
      12x4, 495 on the truncated but closed 13x4 table and 17 of 21 on
      coupled sums, while a table that is not closed (EPI at dimension 7)
      and a member inside the margin stack every size; the ranks stay the
      per-member SVD counts bit for bit on data whose singular values fall
      around the rank cut, on data with exactly singular members of that
      size, on closed and unclosed truncated tables, and on a map with no
      rows; the ray table is not closed and never settles a size, so the
      probe still finds a violating ray one size above a full-rank ray it
      does not contain
    - SearchBudget rejects a profile cap that is not an int >= 0
"""

import itertools
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import blepi
from blepi.datum import Datum, Partition
from blepi.subspace import (
    _ORTHO_TOL,
    _TABLE_CACHE,
    ProductSubspace,
    SearchBudget,
    _coordinate_masks,
    _coordinate_ranks,
    _coordinate_screen,
    _coordinate_table,
    _kernel_candidates,
    _ray_table,
    _scored_candidates,
    _table,
    block_diag,
    candidate_subspaces,
    dim_image,
    divergence_probe,
    find_violating_subspace,
    null_space,
    orthonormal_columns,
    rank_tol,
    slack,
)
from conftest import mixed_data, random_datum, random_partition, scalar_mixed_datum

SQ2 = np.sqrt(2.0)


def coupled(alpha, beta, d1, d2):
    return blepi.make_coupled_sums_datum(alpha, beta, d1, d2)


class TestEmbed:
    def test_single_axis(self):
        V = ProductSubspace.coordinate(Partition((2, 1)), ((0,), ()))
        E = V.embedding
        np.testing.assert_allclose(E, [[1.0], [0.0], [0.0]])

    def test_full_space_is_identity(self):
        V = ProductSubspace.full(Partition((2, 1)))
        np.testing.assert_allclose(V.embedding, np.eye(3))

    def test_zero_subspace(self):
        V = ProductSubspace.zero(Partition((2, 1)))
        assert V.embedding.shape == (3, 0)

    def test_rejects_nonorthonormal_basis(self):
        with pytest.raises(ValueError):
            ProductSubspace((np.array([[1.0], [1.0]]),))

    def test_equality_is_identity_and_hash_works(self):
        V = ProductSubspace.full(Partition((2, 1)))
        W = ProductSubspace.full(Partition((2, 1)))
        # generated field-wise == on array fields raises (ambiguous truth
        # value), and a frozen dataclass with eq=True has no usable hash
        assert V == V and V != W
        assert hash(V) == hash(V)
        assert len({V, W, V}) == 2


# how one block's Gram matrix B^T B is moved off the identity: np.allclose
# with atol=_ORTHO_TOL allows |G - I| <= 1e-10 off the diagonal and
# 1e-10 + 1e-5 on it (its default rtol times |I|)
_GRAM_MOVES = {
    "none": None,
    "diagonal_inside": ("diag", (_ORTHO_TOL + 1e-5) * (1 - 1e-4)),
    "diagonal_outside": ("diag", (_ORTHO_TOL + 1e-5) * (1 + 1e-4)),
    "off_diagonal_inside": ("off", _ORTHO_TOL * (1 - 1e-2)),
    "off_diagonal_outside": ("off", _ORTHO_TOL * (1 + 1e-2)),
    "nan": ("entry", np.nan),
    "inf": ("entry", np.inf),
    "minus_inf": ("entry", -np.inf),
}


def _moved_basis(rng, r, t, move, sign):
    """An r x t basis whose Gram matrix is I moved as ``_GRAM_MOVES[move]``
    says: B = Q chol(I + D)^T with Q orthonormal has B^T B = I + D."""
    B = np.linalg.qr(rng.standard_normal((r, t)))[0]
    kind = _GRAM_MOVES[move]
    if kind is None or t == 0:
        return B
    where, size = kind
    if where == "entry":
        B[int(rng.integers(r)), int(rng.integers(t))] = size
        return B
    D = np.zeros((t, t))
    i = int(rng.integers(t))
    if where == "diag":
        D[i, i] = sign * size
    elif t >= 2:
        j = (i + 1 + int(rng.integers(t - 1))) % t
        D[i, j] = D[j, i] = sign * size
    return B @ np.linalg.cholesky(np.eye(t) + D).T


def _per_block_check(B):
    """The reference: np.allclose on one block's Gram matrix."""
    t = B.shape[1]
    with np.errstate(invalid="ignore", over="ignore"):
        return t == 0 or np.allclose(B.T @ B, np.eye(t), atol=_ORTHO_TOL)


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    blocks=st.lists(
        st.tuples(
            st.integers(1, 4),
            st.integers(0, 4),
            st.sampled_from(sorted(_GRAM_MOVES)),
            st.sampled_from([-1.0, 1.0]),
        ),
        min_size=1,
        max_size=4,
    ),
)
def test_one_check_on_the_embedding_equals_the_per_block_checks(seed, blocks):
    """The single orthonormality check of the block-diagonal embedding
    accepts exactly when every block passes np.allclose(B^T B, I,
    atol=_ORTHO_TOL), NaN, inf and t = 0 blocks included, and the error
    names the first block that does not."""
    rng = np.random.default_rng(seed)
    bases = [_moved_basis(rng, r, min(t, r), move, sign) for r, t, move, sign in blocks]
    bad = [i for i, B in enumerate(bases) if not _per_block_check(B)]
    if not bad:
        V = ProductSubspace(tuple(bases))
        assert all(np.array_equal(B, C) for B, C in zip(V.bases, bases))
        return
    with pytest.raises(ValueError, match=rf"^block {bad[0]}: columns are not orthonormal$"):
        ProductSubspace(tuple(bases))


@pytest.mark.parametrize("move", sorted(_GRAM_MOVES))
def test_every_gram_move_is_classified_as_documented(move):
    """The moves of the property above land where their names say, so it
    sees both sides of each tolerance."""
    rng = np.random.default_rng(3)
    accepted = {_per_block_check(_moved_basis(rng, 4, 3, move, sign)) for sign in (-1.0, 1.0)}
    assert accepted == {move in ("none", "diagonal_inside", "off_diagonal_inside")}


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_embedding_is_the_read_only_block_diagonal_of_the_bases(seed):
    rng = np.random.default_rng(seed)
    part = random_datum(rng).partition
    V = ProductSubspace(
        tuple(np.linalg.qr(rng.standard_normal((r, int(rng.integers(0, r + 1)))))[0] for r in part.blocks)
    )
    assert np.array_equal(V.embedding, block_diag(V.bases))
    assert not V.embedding.flags.writeable
    with pytest.raises(ValueError):
        V.embedding[0, 0] = 2.0


def _defective_matrix(rng, m, n, defect):
    """An m x n Gaussian matrix, then one defect: a duplicated row, a zeroed
    column, rows scaled by 10^+-6, or rank at most min(m, n) - 1."""
    A = rng.standard_normal((m, n))
    if defect == "duplicate_row" and m >= 2:
        A[-1] = A[0]
    elif defect == "zero_column" and n >= 1:
        A[:, int(rng.integers(n))] = 0.0
    elif defect == "scaled_rows":
        A *= 10.0 ** rng.choice([-6.0, 0.0, 6.0], size=(m, 1))
    elif defect == "low_rank":
        k = max(min(m, n) - 1, 0)
        A = rng.standard_normal((m, k)) @ rng.standard_normal((k, n))
    return A


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    m=st.integers(0, 7),
    n=st.integers(0, 7),
    defect=st.sampled_from(["none", "duplicate_row", "zero_column", "scaled_rows", "low_rank"]),
)
def test_numpy_bases_equal_scipy_bit_for_bit(seed, m, n, defect):
    """null_space and orthonormal_columns are scipy.linalg's null_space and
    orth, and block_diag is scipy.linalg.block_diag, entry for entry."""
    rng = np.random.default_rng(seed)
    A = _defective_matrix(rng, m, n, defect)
    assert np.array_equal(null_space(A), scipy.linalg.null_space(A))
    assert np.array_equal(orthonormal_columns(A), scipy.linalg.orth(A))
    blocks = [A] + [rng.standard_normal(tuple(rng.integers(0, 4, 2))) for _ in range(rng.integers(0, 3))]
    assert np.array_equal(block_diag(blocks), scipy.linalg.block_diag(*blocks))


class TestDimImage:
    def setup_method(self):
        self.datum = coupled(1.0, 1.0, 0.5, 0.5)
        self.A1 = self.datum.maps[0]

    def test_single_coordinate(self):
        V = ProductSubspace.coordinate(Partition((2, 1)), ((0,), ()))
        assert dim_image(self.A1, V) == 1

    def test_full_space_hits_surjective_rank(self):
        V = ProductSubspace.full(Partition((2, 1)))
        assert dim_image(self.A1, V) == 2

    def test_diagonal_line_collapses(self):
        # both (1,1,0)/sqrt2 and (0,0,1) map to multiples of (1,1)
        V = ProductSubspace.from_spans(
            Partition((2, 1)), [np.array([[1.0], [1.0]]), np.array([[1.0]])]
        )
        assert dim_image(self.A1, V) == 1

    def test_bounds_and_monotonicity(self, rng):
        for _ in range(25):
            datum = random_datum(rng)
            part = datum.partition
            small_bases, big_bases = [], []
            for r in part.blocks:
                t_small = int(rng.integers(0, r + 1))
                t_big = int(rng.integers(t_small, r + 1))
                Q, _ = np.linalg.qr(rng.standard_normal((r, r)))
                small_bases.append(Q[:, :t_small])
                big_bases.append(Q[:, :t_big])
            small = ProductSubspace(tuple(small_bases))
            big = ProductSubspace(tuple(big_bases))
            for A in datum.maps:
                ds, db = dim_image(A, small), dim_image(A, big)
                assert ds <= min(small.dim, A.shape[0])
                assert ds <= db  # inclusion is monotone


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_kernel_has_zero_image_and_full_space_full_rank(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 13))
    nj = int(rng.integers(1, n + 1))
    while True:
        A = 10.0 ** rng.uniform(-3, 3, (nj, 1)) * rng.standard_normal((nj, n))
        if np.linalg.matrix_rank(A) == nj:
            break
    part = Partition((n,))
    # A @ null_space(A) is rounding noise; a tolerance relative to that
    # noise used to count it as rank
    assert dim_image(A, ProductSubspace((scipy.linalg.null_space(A),))) == 0
    assert dim_image(A, ProductSubspace.full(part)) == nj


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), inside_kernel=st.booleans())
def test_dim_image_is_matrix_rank_at_rank_tol(seed, inside_kernel):
    """dim_image counts the singular values of A E above rank_tol(A), which
    is np.linalg.matrix_rank at that tolerance, also on subspaces inside
    ker A, where A E is rounding noise, and on maps scaled by 10^+-12."""
    rng = np.random.default_rng(seed)
    datum = random_datum(rng)
    for A in datum.maps:
        A = 10.0 ** rng.uniform(-12, 12) * A
        if inside_kernel:
            V = ProductSubspace(tuple(null_space(A[:, a:b]) for a, b in datum.partition.offsets()))
        else:
            V = ProductSubspace(
                tuple(
                    np.linalg.qr(rng.standard_normal((r, int(rng.integers(0, r + 1)))))[0]
                    for r in datum.partition.blocks
                )
            )
        E = V.embedding
        expected = 0 if E.shape[1] == 0 else int(np.linalg.matrix_rank(A @ E, tol=rank_tol(A)))
        assert dim_image(A, V) == expected
        if inside_kernel:
            assert expected == 0


def test_rank_tol_is_finite_where_the_squared_entries_overflow():
    """np.linalg.norm squares the entries, so on 1e200 * A the cut was inf
    (with a RuntimeWarning), every image dimension 0, and check called
    this finite datum infinite with a full-space witness of slack 1."""
    A = np.array([[1.0, 0.5], [0.2, 1.0]])
    assert rank_tol(1e200 * A) == pytest.approx(1e200 * rank_tol(A), rel=1e-14)
    part = Partition((1, 1))
    assert dim_image(1e200 * A, ProductSubspace.full(part)) == 2
    d = Datum(partition=part, maps=(1e200 * A,), c=np.array([1.0]), d=np.array([1.0, 1.0]))
    assert blepi.check_finiteness(d).status == "finite"
    res = blepi.solve_mg(d)
    assert res.converged and not res.unbounded
    assert res.mg_value == pytest.approx(-400 * np.log(10) - np.log(0.9), rel=1e-14)


class TestSlack:
    def test_critical_diagonal_subspace(self):
        datum = coupled(1.0, 1.0, 0.5, 0.5)
        V = ProductSubspace.from_spans(
            datum.partition, [np.array([[1.0], [1.0]]), np.array([[1.0]])]
        )
        res = slack(datum, V)
        assert res.slack == pytest.approx(0.0, abs=1e-12)
        assert res.critical
        assert res.per_map_dims == (1, 1, 1)

    def test_epi_block_subspace(self):
        datum = blepi.make_epi_datum(0.5, 1)
        V = ProductSubspace.coordinate(datum.partition, ((0,), ()))
        assert slack(datum, V).slack == pytest.approx(-0.5)

    def test_zero_subspace_has_zero_slack(self, rng):
        datum = random_datum(rng)
        res = slack(datum, ProductSubspace.zero(datum.partition))
        assert res.slack == 0.0

    def test_full_space_matches_scaling_residual(self, rng):
        for _ in range(10):
            datum = random_datum(rng)
            full = slack(datum, ProductSubspace.full(datum.partition)).slack
            assert full == pytest.approx(blepi.scaling_residual(datum), abs=1e-9)

    def test_invariant_under_per_block_rebasing(self, rng):
        datum = coupled(1.1, 0.6, 0.4, 0.4)
        for _ in range(10):
            bases = []
            for r in datum.partition.blocks:
                t = int(rng.integers(0, r + 1))
                Q, _ = np.linalg.qr(rng.standard_normal((r, r)))
                bases.append(Q[:, :t])
            V = ProductSubspace(tuple(bases))
            s1 = slack(datum, V)
            mixed = []
            for B in V.bases:
                t = B.shape[1]
                if t == 0:
                    mixed.append(B)
                    continue
                R, _ = np.linalg.qr(rng.standard_normal((t, t)))
                mixed.append(B @ R)
            s2 = slack(datum, ProductSubspace(tuple(mixed)))
            assert s2.slack == pytest.approx(s1.slack, abs=1e-9)
            assert s2.per_map_dims == s1.per_map_dims


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), data=st.data())
def test_haar_subspace_images_dominate_coordinate_images(seed, data):
    rng = np.random.default_rng(seed)
    datum = random_datum(rng)
    profile = data.draw(st.tuples(*(st.integers(0, r) for r in datum.partition.blocks)))
    haar = ProductSubspace(
        tuple(
            np.linalg.qr(rng.standard_normal((r, t)))[0]
            for r, t in zip(datum.partition.blocks, profile)
        )
    )
    coord = ProductSubspace.coordinate(datum.partition, tuple(tuple(range(t)) for t in profile))
    h, c = slack(datum, haar), slack(datum, coord)
    assert all(a >= b for a, b in zip(h.per_map_dims, c.per_map_dims))
    assert h.slack <= c.slack + 1e-12


def _full_coordinate_family(blocks, cap):
    """Bases of the first ``cap`` coordinate subspaces, built column by
    column: products of each block's axis subsets by size, then
    lexicographically."""
    per_block = [
        [idx for t in range(r + 1) for idx in itertools.combinations(range(r), t)]
        for r in blocks
    ]
    family = []
    for combo in itertools.islice(itertools.product(*per_block), cap):
        bases = []
        for r, idx in zip(blocks, combo):
            B = np.zeros((r, len(idx)))
            for col, a in enumerate(idx):
                B[a, col] = 1.0
            bases.append(B)
        family.append(bases)
    return family


def _screened_reference(datum, cap):
    """The full coordinate family filtered by the reference ``slack``."""
    kept = []
    for bases in _full_coordinate_family(datum.partition.blocks, cap):
        sr = slack(datum, ProductSubspace(tuple(bases)))
        if sr.critical or sr.violating:
            kept.append((bases, sr))
    return kept


def _built(scored):
    """A scan's (dims, build, slack) triples as (subspace, slack) pairs,
    each built subspace having the dims its triple carried."""
    out = []
    for dims, build, sr in scored:
        V = build()
        assert dims == V.block_dims
        out.append((V, sr))
    return out


def _screened(datum, cap):
    """The coordinate screen over the first ``cap`` members, built."""
    return _built(_coordinate_screen(datum, _coordinate_table(datum.partition, cap)))


def _same_bases(V, bases):
    return len(V.bases) == len(bases) and all(
        np.array_equal(B, C) for B, C in zip(V.bases, bases)
    )


class TestCandidates:
    def test_coordinate_family_count(self):
        datum = coupled(1.0, 1.0, 0.5, 0.5)
        # 2^2 subsets in block one times 2^1 in block two are scored; of
        # those only the zero subspace, the Y axis and the full space are
        # critical, and they lead the candidates, then the kernel shadows
        assert len(_coordinate_masks(datum.partition, 4096)) == 2**3
        cands = list(candidate_subspaces(datum, SearchBudget()))
        assert [V.block_dims for V in cands[:3]] == [(0, 0), (0, 1), (2, 1)]
        assert all(slack(datum, V).critical for V in cands[:3])
        assert len(cands) > 3

    def test_kernel_projection_appears(self):
        datum = coupled(1.0, 1.0, 0.5, 0.5)
        target = ProductSubspace.from_spans(
            datum.partition, [np.array([[1.0], [1.0]]), np.array([[1.0]])]
        ).embedding
        found = False
        for V in candidate_subspaces(datum, SearchBudget()):
            if V.block_dims != (1, 1):
                continue
            E = V.embedding
            # same span iff the projectors agree
            if np.allclose(E @ E.T, target @ target.T, atol=1e-9):
                found = True
        assert found

    @pytest.mark.parametrize(
        "blocks, cap", [((2, 1, 3), 4096), ((2, 1, 3), 37), ((1,) * 6, 4096), ((1,) * 6, 21)]
    )
    def test_coordinate_family_is_the_axis_subsets_in_order(self, blocks, cap):
        """The coordinate candidates are, basis for basis and in order, the
        products of each block's axis subsets by size, then
        lexicographically, built column by column, up to the cap, and
        kept where the reference slack is critical or violating."""
        part = Partition(blocks)
        assert len(_full_coordinate_family(blocks, cap)) == min(cap, 2**part.n)
        rng = np.random.default_rng(4)
        datum = Datum(
            partition=part,
            maps=(rng.standard_normal((2, part.n)), rng.standard_normal((3, part.n))),
            c=np.array([0.5, 0.5]),
            d=np.full(part.k, 0.5),
        )
        expected = _screened_reference(datum, cap)
        # the zero subspace and the six five-axis subsets are critical and
        # the full space violates; cap 37 keeps one five-axis subset (member
        # 32), cap 21 none
        assert len(expected) == {37: 2, 21: 1}.get(cap, 8)
        screened = [V for V, _ in _screened(datum, cap)]
        cands = list(candidate_subspaces(datum, SearchBudget(profile_cap=cap)))
        assert len(screened) == len(expected)
        for family in (screened, cands[: len(expected)]):
            for V, (bases, _) in zip(family, expected):
                assert _same_bases(V, bases)

    def test_critical_member_past_the_cap_is_never_yielded(self):
        """The full space is critical on a balanced datum, but with cap 21
        on six scalar blocks it is member 64 and is never scored."""
        rng = np.random.default_rng(5)
        datum = Datum(
            partition=Partition((1,) * 6),
            maps=(rng.standard_normal((2, 6)), rng.standard_normal((4, 6))),
            c=np.array([0.5, 0.5]),
            d=np.full(6, 0.5),
        )
        full = ProductSubspace.full(datum.partition)
        assert slack(datum, full).critical
        for cap, kept in ((4096, [(0,) * 6, (1,) * 6]), (21, [(0,) * 6])):
            assert [V.block_dims for V, _ in _screened(datum, cap)] == kept
        assert len(_coordinate_masks(datum.partition, 21)) == 21

    @pytest.mark.parametrize("name", ["zamir_feder_9x4", "epi_0.5_dim2"])
    def test_the_whole_space_is_yielded_once(self, name):
        """The coordinate screen yields the whole space (critical on a
        balanced datum); a kernel hull that spans it is not yielded again."""
        if name == "epi_0.5_dim2":
            datum = blepi.make_epi_datum(0.5, 2)
        else:
            Q, _ = np.linalg.qr(np.random.default_rng(9).standard_normal((9, 4)))
            datum = blepi.make_zamir_feder_datum(Q.T)
        dims = [V.dim for V in candidate_subspaces(datum, SearchBudget())]
        assert dims.count(datum.n) == 1

    def test_profile_cap_truncates(self):
        datum = blepi.make_epi_datum(0.5, 2)  # 2^4 = 16 coordinate members
        cands = list(candidate_subspaces(datum, SearchBudget(profile_cap=3)))
        assert len(cands) <= 3 + datum.m + 1


def _screen_datum(rng, kind):
    """A datum for the screen's property test: a balanced or unbalanced
    random draw (blocks up to width 2), one with a zeroed map column, or
    one with integer rows and exponents 1/2 or 1, whose slacks are often
    exactly 0."""
    datum = random_datum(rng, balanced=kind != "unbalanced")
    part = datum.partition
    if kind == "zeroed":
        A = datum.maps[0].copy()
        A[:, rng.integers(part.n)] = 0.0
        return Datum(part, (A,) + datum.maps[1:], datum.c, datum.d)
    if kind == "integer":
        maps = tuple(rng.integers(-1, 2, A.shape).astype(float) for A in datum.maps)
        return Datum(part, maps, rng.choice([0.5, 1.0], datum.m), rng.choice([0.5, 1.0], part.k))
    return datum


@settings(max_examples=120, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(["balanced", "unbalanced", "zeroed", "integer"]),
    cap=st.sampled_from([4096, 5, 19]),
)
def test_coordinate_screen_is_the_family_filtered_by_slack(seed, kind, cap):
    """The bulk screen yields, basis for basis and in order, the members of
    the full coordinate family whose reference slack is critical or
    violating, each with that slack bit for bit; its stacked ranks are
    dim_image on every member scored."""
    datum = _screen_datum(np.random.default_rng(seed), kind)
    expected = _screened_reference(datum, cap)
    screened = _screened(datum, cap)
    assert len(screened) == len(expected)
    for (V, sr), (bases, ref) in zip(screened, expected):
        assert _same_bases(V, bases)
        again = slack(datum, V)
        assert sr.slack.hex() == again.slack.hex() == ref.slack.hex()
        assert sr.per_map_dims == again.per_map_dims == ref.per_map_dims
    members = _full_coordinate_family(datum.partition.blocks, cap)
    ranks = _coordinate_ranks(datum, _coordinate_table(datum.partition, cap))
    assert ranks.shape == (len(members), datum.m)
    for row, bases in zip(ranks, members):
        V = ProductSubspace(tuple(bases))
        assert row.tolist() == [dim_image(A, V) for A in datum.maps]


@pytest.mark.parametrize("n, k", [(5, 2), (9, 4), (12, 4)])
def test_generic_zamir_feder_keeps_only_the_zero_and_full_subspace(n, k):
    """slack(S) = sum_S alpha_i^2 - rank A[:, S] is negative on every proper
    nonempty axis subset of a generic Zamir-Feder datum, so of 2^n members
    the screen builds two subspaces."""
    Q, _ = np.linalg.qr(np.random.default_rng(n).standard_normal((n, k)))
    datum = blepi.make_zamir_feder_datum(Q[:, :k].T)
    screened = _screened(datum, 4096)
    assert [V.block_dims for V, _ in screened] == [(0,) * n, (1,) * n]
    assert all(sr.critical for _, sr in screened)


@settings(max_examples=100, deadline=None)
@given(datum=mixed_data(), cap=st.sampled_from([4096, 19]))
def test_scored_candidates_carry_the_slack_of_each_candidate(datum, cap):
    """What a scan reads: every candidate once, in candidate_subspaces'
    order, with the SlackResult slack computes for it."""
    budget = SearchBudget(profile_cap=cap)
    scored = _built(_scored_candidates(datum, budget))
    plain = list(candidate_subspaces(datum, budget))
    assert len(scored) == len(plain)
    for (V, sr), W in zip(scored, plain):
        assert _same_bases(V, W.bases)
        assert sr == slack(datum, V)


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_kernel_tiers_on_scalar_blocks_repeat_screen_members(seed):
    """With every block scalar, each kernel-tier subspace is a coordinate
    subspace; the ones a scan uses (critical or violating) are screen
    members with the same axes and slack, so a complete family skips the
    tiers."""
    datum = scalar_mixed_datum(np.random.default_rng(seed))
    assert not blepi.subspace._kernel_tiers_run(datum.partition, 4096)
    assert list(_kernel_candidates(datum, 4096)) == []
    screened = {V.block_dims: sr for V, sr in _screened(datum, 4096)}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(blepi.subspace, "_kernel_tiers_run", lambda partition, cap: True)
        tiers = list(_kernel_candidates(datum, 4096))
    for V in tiers:
        sr = slack(datum, V)
        if sr.critical or sr.violating:
            assert screened[V.block_dims] == sr


@pytest.mark.parametrize(
    "blocks, cap, runs", [((1,) * 5, 32, False), ((1,) * 5, 31, True), ((1, 2), 4096, True)]
)
def test_kernel_tiers_run_unless_the_scalar_family_is_complete(blocks, cap, runs):
    assert blepi.subspace._kernel_tiers_run(Partition(blocks), cap) is runs


def _ranks_from_mask(datum, mask):
    """The coordinate ranks computed per call from the axes alone, as
    before the tables: per map and subset size, one SVD of the stacked
    A_j[:, S], counted above rank_tol(A_j)."""
    sizes = mask.sum(axis=1)
    img = np.zeros((len(mask), datum.m), dtype=int)
    for j, A in enumerate(datum.maps):
        for t in np.unique(sizes[sizes > 0]):
            rows = np.flatnonzero(sizes == t)
            stack = np.stack([A[:, np.flatnonzero(mask[q])] for q in rows])
            img[rows, j] = (np.linalg.svd(stack, compute_uv=False) > rank_tol(A)).sum(axis=1)
    return img


@settings(max_examples=120, deadline=None)
@given(
    datum=st.one_of(
        mixed_data(),
        st.integers(0, 2**32 - 1).map(lambda seed: random_datum(np.random.default_rng(seed))),
    ),
    cap=st.sampled_from([4096, 19, 5]),
)
def test_cached_table_ranks_equal_the_uncached_computation(datum, cap):
    """The ranks read through a cached table, on its first use and on a
    later one, equal those of a table built afresh and of the per-call
    computation from the axes, bit for bit; its dims are the members'."""
    part = datum.partition
    mask = _coordinate_masks(part, cap)
    first = _coordinate_ranks(datum, _coordinate_table(part, cap))
    again = _coordinate_ranks(datum, _coordinate_table(Partition(part.blocks), cap))
    fresh = _coordinate_ranks(datum, _table(part, mask.copy()))
    reference = _ranks_from_mask(datum, mask)
    for img in (first, again, fresh):
        assert img.dtype == reference.dtype
        assert img.tobytes() == reference.tobytes()
    members = _full_coordinate_family(part.blocks, cap)
    dims = [tuple(B.shape[1] for B in bases) for bases in members]
    assert _coordinate_table(part, cap).dims.tolist() == [list(t) for t in dims]


@pytest.mark.parametrize(
    "make",
    [lambda p: _coordinate_table(p, 4096), lambda p: _coordinate_table(p, 19), _ray_table],
    ids=["coordinate", "coordinate-capped", "rays"],
)
def test_shape_tables_are_shared_and_read_only(make):
    """Equal partitions get the one cached table, every array of which is
    read-only; a different partition gets its own."""
    table = make(Partition((2, 1, 3)))
    assert make(Partition((2, 1, 3))) is table
    assert make(Partition((2, 3, 1))) is not table
    for arr in (table.mask, table.dims, *itertools.chain.from_iterable(table.groups)):
        with pytest.raises(ValueError, match="read-only"):
            arr[(0,) * arr.ndim] = arr[(0,) * arr.ndim]
    assert _coordinate_table.cache_info().maxsize == _ray_table.cache_info().maxsize == _TABLE_CACHE


def test_ray_table_holds_the_full_space_then_each_block():
    table = _ray_table(Partition((2, 1, 3)))
    assert table.dims.tolist() == [[2, 1, 3], [2, 0, 0], [0, 1, 0], [0, 0, 3]]
    assert table.mask.astype(int).tolist() == [
        [1, 1, 1, 1, 1, 1], [1, 1, 0, 0, 0, 0], [0, 0, 1, 0, 0, 0], [0, 0, 0, 1, 1, 1]
    ]


_TABLE_BLOCKS = [
    (1,) * 12, (1,) * 13, (2,) * 6, (2, 1, 3), (3, 3, 2), (1, 2, 3, 2), (12,), (7, 7), (40, 1)
]


@pytest.mark.parametrize("blocks", _TABLE_BLOCKS)
@pytest.mark.parametrize("cap", [1, 2, 5, 16, 19, 37, 64, 100, 4096])
def test_each_prefix_is_downward_closed(blocks, cap):
    """What makes closedness a count: on the coordinate table, capped or
    not, each member less any one of its axes is an earlier member, so
    every subset of a member is a member, and 2^u members on u axes are
    every subset of them."""
    mask = _coordinate_table(Partition(blocks), cap).mask
    rows = {row.tobytes(): q for q, row in enumerate(mask)}
    for q, row in enumerate(mask):
        for axis in np.flatnonzero(row):
            less = row.copy()
            less[axis] = False
            assert rows.get(less.tobytes(), q) < q


@pytest.mark.parametrize("blocks", _TABLE_BLOCKS)
@pytest.mark.parametrize("cap", [1, 2, 5, 16, 19, 37, 64, 100, 4096])
def test_a_closed_table_is_every_subset_of_its_axes(blocks, cap):
    """What lets a full-rank size settle every other size: a coordinate
    table is closed exactly when its members are every subset of the
    axes they use, so that each member lies inside one of every larger
    size and contains one of every smaller size.  It is with all 2^n
    members and at 13 scalar blocks (the subsets of the last 12 axes),
    not at EPI's two blocks of 7; the ray table, with no zero member, is
    not."""
    part = Partition(blocks)
    table = _coordinate_table(part, cap)
    used = np.flatnonzero(table.mask.any(axis=0))
    members = {frozenset(np.flatnonzero(row)) for row in table.mask}
    # the power set is listed only when it is no larger than the table
    power_set = len(members) == len(table.mask) == 2 ** len(used) and members == {
        frozenset(s) for t in range(len(used) + 1) for s in itertools.combinations(used, t)
    }
    assert table.closed == power_set
    assert table.closed >= (2**part.n <= cap)
    if cap == 4096 and blocks in ((1,) * 13, (7, 7)):
        assert table.closed == (blocks == (1,) * 13)
    assert not _ray_table(part).closed


@pytest.fixture
def stacked_svds(monkeypatch):
    """The matrices passed to np.linalg.svd, counted by batch."""
    svd, counted = np.linalg.svd, []

    def counting(a, *args, **kwargs):
        counted.append(int(np.prod(a.shape[:-2])))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    return counted


@pytest.mark.parametrize(
    "name, stacked",
    [
        ("zf-8x3", 56),
        ("zf-9x4", 126),
        ("zf-12x4", 495),
        ("zf-13x4", 495),
        ("coupled-sums", 17),
        ("epi-7", 4095),
    ],
)
def test_a_full_rank_size_settles_the_other_sizes_without_an_svd(name, stacked, stacked_svds):
    """On a closed table a map's size k, its row count, is stacked first;
    if every member has rank k with the margin, no other size is
    stacked: the smaller members lie in one of size k (interlacing) and
    the larger ones contain one.  On a generic Zamir-Feder datum that
    leaves the C(n, k) SVDs of size k, also at 13x4, whose table is
    truncated at the cap but closed on the last 12 axes.  On coupled
    sums the two-row map's size 2 settles its sizes 1 and 3, while each
    single-row map has rank 0 on the axes it does not read, so it stacks
    every size, reusing size 1.  EPI at dimension 7 has a truncated
    table that is not closed (the cap cuts into the first block's
    subsets), so every nonzero member is stacked.  The same table not
    closed stacks every nonzero member of each map, with the same ranks,
    which are the per-member SVD counts."""
    if name == "coupled-sums":
        datum = coupled(1.25, 0.5, 0.5, 0.5)
    elif name == "epi-7":
        datum = blepi.make_epi_datum(0.3, 7)
    else:
        n, k = (int(x) for x in name[3:].split("x"))
        Q, _ = np.linalg.qr(np.random.default_rng(n).standard_normal((n, k)))
        datum = blepi.make_zamir_feder_datum(Q[:, :k].T)
    table = _coordinate_table(datum.partition, 4096)
    assert table.closed == (name != "epi-7")
    img = _coordinate_ranks(datum, table)
    assert sum(stacked_svds) == stacked
    stacked_svds.clear()
    full = _coordinate_ranks(datum, _table(datum.partition, table.mask.copy()))
    assert sum(stacked_svds) == datum.m * (len(table.mask) - 1)
    assert img.tobytes() == full.tobytes()
    assert img.tobytes() == _ranks_from_mask(datum, table.mask).tobytes()


@pytest.mark.parametrize("factor, stacked", [(1.5, 3), (2.5, 1)])
def test_the_settle_rule_needs_twice_the_rank_cut(factor, stacked, stacked_svds):
    """A = [[1, 0], [0, f rank_tol]]: the one member of size 2 has
    sigma_2 = f rank_tol(A).  Inside the margin (f = 1.5, above the cut
    but not twice it) size 2 settles nothing and size 1 is stacked too,
    three matrices in all; past it (f = 2.5) size 2 settles size 1.
    Either way the ranks are the per-member SVD counts."""
    A = np.array([[1.0, 0.0], [0.0, 0.0]])
    tol = rank_tol(A)
    A[1, 1] = factor * tol
    assert rank_tol(A) == tol
    datum = Datum(Partition((1, 1)), (A,), np.array([1.0]), np.array([1.0, 1.0]))
    table = _coordinate_table(datum.partition, 4096)
    img = _coordinate_ranks(datum, table)
    assert sum(stacked_svds) == stacked
    assert img[:, 0].tolist() == [0, 1, 1, 2]
    assert img.tobytes() == _ranks_from_mask(datum, table.mask).tobytes()


def test_the_ray_table_never_settles_a_size():
    """On partition (1, 2) with A = [[1, 0, 0]] the block-0 ray has rank 1
    with the margin, but the block-1 ray, one size up, does not contain
    it and has rank 0: the ray table is not closed, so every size is
    stacked, the probe returns that ray with slack 0.5, and the ray ranks
    are the per-member SVD counts."""
    datum = Datum(
        partition=Partition((1, 2)),
        maps=(np.array([[1.0, 0.0, 0.0]]),),
        c=np.array([1.0]),
        d=np.array([0.5, 0.25]),
    )
    V = divergence_probe(datum)
    assert V is not None and V.block_dims == (0, 2)
    assert slack(datum, V).slack == 0.5
    table = _ray_table(datum.partition)
    img = _coordinate_ranks(datum, table)
    assert img[:, 0].tolist() == [1, 1, 0]
    assert img.tobytes() == _ranks_from_mask(datum, table.mask).tobytes()


@pytest.mark.parametrize("cap", [4096, 5])
def test_a_map_with_no_rows_has_rank_zero_on_every_member(cap):
    """``certify`` does not validate, so a map with no rows can reach the
    rank loop; it never takes the settle rule (it has no k-th singular
    value to read), and its ranks, as the other map's, are the per-member
    SVD counts."""
    part = Partition((2, 1, 3))
    datum = Datum(
        partition=part,
        maps=(np.random.default_rng(3).standard_normal((2, part.n)), np.zeros((0, part.n))),
        c=np.array([0.5, 0.5]),
        d=np.full(part.k, 0.5),
    )
    table = _coordinate_table(part, cap)
    img = _coordinate_ranks(datum, table)
    assert not img[:, 1].any()
    assert img.tobytes() == _ranks_from_mask(datum, table.mask).tobytes()


def _near_dependent_datum(rng):
    """A datum of 1-3 Gaussian maps on 1-4 blocks of size 1-3 (n <= 9),
    each map with one row, or one column, moved to within 1e-16 to 1e-12
    of ||A||_F of the span of some others (a column possibly of none), so
    that singular values fall around the rank cut."""
    while True:
        part = random_partition(rng, max_blocks=4, max_block_dim=3)
        if part.n <= 9:
            break
    n, maps = part.n, []
    for _ in range(int(rng.integers(1, 4))):
        k = int(rng.integers(1, n + 1))
        A = rng.standard_normal((k, n))
        push = 10.0 ** rng.uniform(-16, -12) * np.linalg.norm(A)
        if k > 1 and rng.random() < 0.5:
            i = int(rng.integers(k))
            A[i] = rng.standard_normal(k - 1) @ np.delete(A, i, axis=0)
            A[i] += push * rng.standard_normal(n)
        else:
            a = int(rng.integers(n))
            span = rng.choice(np.delete(np.arange(n), a), rng.integers(min(k, n)), replace=False)
            A[:, a] = A[:, span] @ rng.standard_normal(len(span)) + push * rng.standard_normal(k)
        maps.append(A)
    return Datum(part, tuple(maps), rng.uniform(0.2, 1.5, len(maps)), rng.uniform(0.2, 1.5, part.k))


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), cap=st.sampled_from([4096, 64, 19, 16, 5]))
def test_ranks_settled_by_prefixes_equal_the_per_member_svds_near_the_cut(seed, cap):
    """Where singular values sit around rank_tol, the ranks are the
    per-member SVD counts, bit for bit, on the complete table and on
    truncated ones (prefixes), closed (often at caps 16 and 64) or not."""
    datum = _near_dependent_datum(np.random.default_rng(seed))
    part = datum.partition
    img = _coordinate_ranks(datum, _coordinate_table(part, cap))
    reference = _ranks_from_mask(datum, _coordinate_masks(part, cap))
    assert img.dtype == reference.dtype
    assert img.tobytes() == reference.tobytes()


def test_caps_16_and_64_truncate_to_closed_and_unclosed_tables():
    """The data of the test above meet truncated tables of both kinds at
    caps 16 and 64 (82 closed and 16 not on seeds 0-99): closed ones, on
    which the settle rule runs, and ones whose cap cuts into the subsets
    of a block of three axes."""
    closed = []
    for seed in range(100):
        part = _near_dependent_datum(np.random.default_rng(seed)).partition
        closed += [_coordinate_table(part, cap).closed for cap in (16, 64) if 2**part.n > cap]
    assert 10 <= sum(closed) <= len(closed) - 10


def _singular_datum(rng):
    """A datum of 1-3 maps on 1-4 blocks of size 1-3 (n <= 9), each map
    with entries in {-1, 0, 1} or Gaussian, possibly with one column
    repeated, and possibly with its rows or its columns scaled by
    10^U(-6, 6), so that some members of size k, its row count, are
    exactly singular and others are not."""
    while True:
        part = random_partition(rng, max_blocks=4, max_block_dim=3)
        if part.n <= 9:
            break
    n, maps = part.n, []
    for _ in range(int(rng.integers(1, 4))):
        k = int(rng.integers(1, n + 1))
        if rng.random() < 0.5:
            A = rng.integers(-1, 2, (k, n)).astype(float)
        else:
            A = rng.standard_normal((k, n))
        if n > 1 and rng.random() < 0.5:
            a, b = rng.choice(n, 2, replace=False)
            A[:, a] = A[:, b]
        scale = rng.random()
        if scale < 1 / 3:
            A *= 10.0 ** rng.uniform(-6, 6, (k, 1))
        elif scale < 2 / 3:
            A *= 10.0 ** rng.uniform(-6, 6, n)
        maps.append(A)
    return Datum(part, tuple(maps), rng.uniform(0.2, 1.5, len(maps)), rng.uniform(0.2, 1.5, part.k))


def _size_k_settles(A, table):
    """Whether map A's size k, its row count, settles every other size of
    the closed table ``table``: sigma_k above 2 rank_tol(A) on each member."""
    k = len(A)
    if not 0 < k <= table.mask.shape[1]:
        return False
    stack = np.stack([A[:, np.flatnonzero(row)] for row in table.mask[table.sizes == k]])
    return bool(np.all(np.linalg.svd(stack, compute_uv=False)[:, k - 1] > 2 * rank_tol(A)))


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), cap=st.sampled_from([4096, 64, 19, 16, 5]))
def test_ranks_with_exactly_singular_size_k_members_equal_the_per_member_svds(seed, cap):
    """Where some members of a map's size k are exactly singular (integer
    entries, a repeated column) and the scales span twelve decades, the
    ranks are the per-member SVD counts, bit for bit, whether size k
    settles the other sizes or the sizes are stacked in order."""
    datum = _singular_datum(np.random.default_rng(seed))
    part = datum.partition
    img = _coordinate_ranks(datum, _coordinate_table(part, cap))
    reference = _ranks_from_mask(datum, _coordinate_masks(part, cap))
    assert img.dtype == reference.dtype
    assert img.tobytes() == reference.tobytes()


def test_singular_data_take_both_the_settled_and_the_stacked_branch():
    """The data of the test above reach both branches on complete tables:
    maps whose size k settles the other sizes, and maps on which it does not."""
    settles = []
    for seed in range(100):
        datum = _singular_datum(np.random.default_rng(seed))
        table = _coordinate_table(datum.partition, 4096)
        settles += [_size_k_settles(A, table) for A in datum.maps]
    assert 10 <= sum(settles) <= len(settles) - 10


@pytest.mark.parametrize("cap", [2.5, True, "4096", None])
def test_profile_cap_must_be_a_nonnegative_int(cap):
    with pytest.raises(ValueError, match="profile_cap must be an int >= 0"):
        SearchBudget(profile_cap=cap)


def test_per_member_coordinate_generator_is_gone():
    assert not hasattr(blepi.subspace, "_coordinate_candidates")
    for source in Path(blepi.__file__).parent.glob("*.py"):
        assert "_coordinate_candidates" not in source.read_text()


class TestFindViolating:
    def test_perturbed_coupled_sums_has_witness(self):
        datum = coupled(1.51, 0.0, 0.5, 0.5)
        # scaling balance still holds within listed tolerance? no: residual 0.02,
        # but the direct slack probe must certify a violating subspace anyway.
        V = find_violating_subspace(datum, SearchBudget(), np.random.default_rng(1))
        assert V is not None
        assert slack(datum, V).slack > 1e-7
        full = ProductSubspace.full(datum.partition)
        assert slack(datum, full).slack == pytest.approx(0.02, abs=1e-12)

    def test_epi_has_no_witness(self):
        datum = blepi.make_epi_datum(0.5, 1)
        assert find_violating_subspace(datum, SearchBudget(), np.random.default_rng(2)) is None

    def test_map_of_the_wrong_width_is_rejected(self):
        datum = Datum(
            partition=Partition((2, 1)),
            maps=(np.ones((1, 4)),),
            c=np.array([1.0]),
            d=np.array([1.0, 1.0]),
        )
        with pytest.raises(ValueError, match="4 columns"):
            find_violating_subspace(datum, SearchBudget())

    def test_kernel_aligned_block_with_small_exponent(self):
        datum = Datum(
            partition=Partition((1, 1)),
            maps=(np.array([[0.0, 1.0]]),),  # kernel is block one
            c=np.array([0.1]),
            d=np.array([1.0, 0.1]),
        )
        V = find_violating_subspace(datum, SearchBudget(), np.random.default_rng(3))
        assert V is not None
        assert V.block_dims[0] == 1  # the kernel-aligned coordinate direction
        assert slack(datum, V).slack > 1e-7
