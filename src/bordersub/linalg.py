"""Exact rational linear algebra on top of the integer echelon kernel.

All computations are over Q with no rounding anywhere.  Rows of rational
matrices are scaled to integers (row scaling preserves rank, row space and
kernel), reduced by the backend's fraction-free elimination, and results are
converted back to canonical rational or primitive-integer form.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from ._kernels_py import echelon_rows


def _int_rows(rows):
    """Scale each rational row by the lcm of its denominators."""
    out = []
    for row in rows:
        den = 1
        for x in row:
            f = Fraction(x)
            den = lcm(den, f.denominator)
        out.append([int(Fraction(x) * den) for x in row])
    return out


def rank_int(rows):
    if not rows:
        return 0
    return len(echelon_rows(rows))


def rank_rational(rows):
    return rank_int(_int_rows(rows))


def _rref_from_pivots(pivots):
    """Canonical reduced echelon form (rational) of the row space."""
    cols = sorted(pivots)
    rows = [[Fraction(x) for x in pivots[c]] for c in cols]
    for r in range(len(cols) - 1, -1, -1):
        c = cols[r]
        piv = rows[r][c]
        rows[r] = [x / piv for x in rows[r]]
        for s in range(r):
            f = rows[s][c]
            if f:
                rows[s] = [a - f * b for a, b in zip(rows[s], rows[r])]
    return cols, rows


def primitive_int_vector(vec):
    """Clear denominators and divide out the content; sign of the first
    nonzero entry becomes positive."""
    den = 1
    for x in vec:
        den = lcm(den, Fraction(x).denominator)
    ints = [int(Fraction(x) * den) for x in vec]
    g = 0
    for x in ints:
        g = gcd(g, x)
    if g == 0:
        return ints
    lead = next(x for x in ints if x)
    if lead < 0:
        g = -g
    return [x // g for x in ints]


def kernel_int(rows, ncols):
    """Primitive integer basis of {x : A x = 0}, one vector per free column,
    ordered by free column.  Canonical because it is derived from the RREF.
    """
    pivots = echelon_rows(rows) if rows else {}
    cols, rref = _rref_from_pivots(pivots)
    pivot_set = set(cols)
    basis = []
    for f in range(ncols):
        if f in pivot_set:
            continue
        vec = [Fraction(0)] * ncols
        vec[f] = Fraction(1)
        for r, c in enumerate(cols):
            vec[c] = -rref[r][f]
        basis.append(primitive_int_vector(vec))
    return basis


# -- small dense rational matrices ----------------------------------------


def mat_inverse(a):
    """Exact inverse by Gauss-Jordan, or None when singular."""
    n = len(a)
    aug = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(a)]
    r = 0
    for c in range(n):
        p = next((i for i in range(r, n) if aug[i][c]), None)
        if p is None:
            return None
        aug[r], aug[p] = aug[p], aug[r]
        piv = aug[r][c]
        aug[r] = [x / piv for x in aug[r]]
        for i in range(n):
            if i != r and aug[i][c]:
                f = aug[i][c]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[r])]
        r += 1
    return [row[n:] for row in aug]
