"""Exact linear algebra on integer rows: rank and kernel.

Every caller hands in integer rows.  ``echelon_rows`` reduces them by
fraction-free elimination, and ``kernel_int`` reads a canonical basis off
the rational reduced echelon form of the result.  Nothing is rounded, and
there is one implementation: plain Python on ints.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


def _normalize_row(row):
    """Divide out the content and make the leading entry positive."""
    g = 0
    for x in row:
        if x:
            g = gcd(g, x)
    if g == 0:
        return row
    lead = 0
    for x in row:
        if x:
            lead = x
            break
    if lead < 0:
        g = -g
    if g != 1:
        row = [x // g for x in row]
    return row


def echelon_rows(rows):
    """Reduce integer rows to echelon form; returns {pivot column: row}.

    Fraction-free: each elimination step is a cross-multiplication
    ``row*p[c] - p*row[c]`` followed by content removal, so every
    intermediate value is an exact integer of controlled size.  The row
    space (hence rank and kernel) is preserved exactly.
    """
    pivots = {}
    ncols = len(rows[0]) if rows else 0
    for src in rows:
        row = list(src)
        c = 0
        while c < ncols:
            x = row[c]
            if x == 0:
                c += 1
                continue
            piv = pivots.get(c)
            if piv is None:
                pivots[c] = _normalize_row(row)
                break
            a = piv[c]
            g = gcd(a, x)
            ma = a // g
            mb = x // g
            row = [ma * rj - mb * pj for rj, pj in zip(row, piv)]
            # row[c] is now zero; periodic content removal keeps entries small
            row = _normalize_row(row)
            c += 1
    return pivots


def rank_int(rows):
    if not rows:
        return 0
    return len(echelon_rows(rows))


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
    return _normalize_row([int(Fraction(x) * den) for x in vec])


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
