"""Exact ranks of float matrices over the rationals.

Every finite double is a dyadic rational, so a float matrix times the
largest denominator among its entries, a power of two, is an integer
matrix with the same rank over Q.  ``rank`` reduces it by fraction-free
elimination (Bareiss, Math. Comp. 22, 1968): after each pivot every
entry below it is a minor of the matrix, so the division by the previous
pivot is exact, the entries stay Python integers whose size grows only
linearly, and no rounding enters.
"""

from __future__ import annotations

import numpy as np

__all__ = ["rank"]


def _integer_rows(M: np.ndarray) -> list[list[int]]:
    """The rows of the finite M times the power of two that makes every
    entry an integer."""
    ratios = [[float(x).as_integer_ratio() for x in row] for row in M]
    scale = max((den for row in ratios for _, den in row), default=1)
    return [[num * (scale // den) for num, den in row] for row in ratios]


def rank(M) -> int:
    """The rank of the finite float matrix M over the rationals, exactly."""
    M = np.asarray(M, dtype=float)
    if M.ndim != 2:
        raise ValueError("expected a matrix")
    if not np.isfinite(M).all():
        raise ValueError("matrix has a non-finite entry")
    rows = _integer_rows(M)
    r, prev = 0, 1
    for col in range(M.shape[1]):
        pivot = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        p = rows[r][col]
        for i in range(r + 1, len(rows)):
            a = rows[i][col]
            rows[i] = [(p * x - a * y) // prev for x, y in zip(rows[i], rows[r])]
        prev = p
        r += 1
    return r
