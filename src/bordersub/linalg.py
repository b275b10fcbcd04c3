"""Exact linear algebra on sparse integer rows: rank and kernel.

Every caller hands in integer rows {column: coefficient}.  They go through
one structured elimination (LaMacchia & Odlyzko 1990): the one-term rows
are peeled to a fixed point, and only the residue is reduced.  A one-term
row puts e_u in the row space, forcing u to 0, and subtracting multiples
of it deletes u from every other row, which may leave new one-term rows;
a column -> rows index finds them.  At the fixed point the row space is
span{e_u : u peeled} beside the row space of the residue, on disjoint
columns, so its reduced echelon form (RREF) is the rows e_u beside the
RREF of the residue: the rank is the number of peeled columns plus the
residue's rank, and the canonical kernel basis splits the same way.
``echelon_rows`` reduces the residue by fraction-free elimination, and
``kernel_int`` reads the canonical basis off the rational RREF of the
echelon rows of two terms or more, over their columns only.  Nothing is
rounded, and there is one implementation: plain Python on ints.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


def _peel(rows):
    """Peel the one-term rows to a fixed point: (peeled columns, residue).

    Zero coefficients are dropped.  The residue rows have two terms or
    more, none at a peeled column, and come sorted and deduplicated.  The
    column -> rows index is built only when some row has one term."""
    residue, holders, zero = [], {}, set()
    for form in rows:
        row = {c: v for c, v in form.items() if v} if len(form) > 1 else form
        if len(row) > 1:
            residue.append(row)
        elif 0 not in row.values():
            zero.update(row)
    for s, row in enumerate(residue if zero else ()):
        for c in row:
            holders.setdefault(c, set()).add(s)
    pending = list(zero)
    while pending:
        c = pending.pop()
        for s in holders.pop(c, ()):
            row = residue[s]
            del row[c]
            if len(row) == 1 and not zero.issuperset(row):
                zero.update(row)
                pending += row
    return zero, [dict(row) for row in sorted({tuple(sorted(row.items())) for row in residue if row})]


def _primitive_row(row):
    """Divide out the content of a sparse integer row and make its leading
    entry positive."""
    g = gcd(*row.values())
    if row[min(row)] < 0:
        g = -g
    return row if g == 1 else {c: v // g for c, v in row.items()}


def echelon_rows(rows):
    """Echelon form of a list of sparse integer rows: {pivot column: row},
    each row primitive with its leading entry, at the pivot, positive.

    A peeled column u gives the row {u: 1}.  The residue is reduced
    fraction-free: each step is a cross-multiplication ``row*p[c] -
    p*row[c]`` followed by content removal, so every intermediate value is
    an exact integer of controlled size.  The row space (hence rank and
    kernel) is preserved exactly."""
    zero, residue = _peel(rows)
    pivots = {u: {u: 1} for u in zero}
    for row in residue:
        while row:
            c = min(row)
            piv = pivots.get(c)
            if piv is None:
                pivots[c] = _primitive_row(row)
                break
            g = gcd(piv[c], row[c])
            ma, mb = piv[c] // g, row[c] // g
            row = {k: ma * v for k, v in row.items() if k != c}
            for k, v in piv.items():
                if k != c:
                    w = row.get(k, 0) - mb * v
                    if w:
                        row[k] = w
                    else:
                        del row[k]
            # row[c] is now gone; content removal keeps entries small
            if row:
                row = _primitive_row(row)
    return pivots


def rank_int(rows):
    """Rank over Q of sparse integer rows."""
    return len(echelon_rows(list(rows)))


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
    den = lcm(*(Fraction(x).denominator for x in vec))
    ints = [int(Fraction(x) * den) for x in vec]
    g = gcd(*ints)
    if next((x for x in ints if x), 0) < 0:
        g = -g
    return [x // g for x in ints] if g not in (0, 1) else ints


def kernel_int(rows, ncols):
    """Primitive integer basis of {x : A x = 0} for sparse integer rows A
    over columns 0..ncols-1, one vector per free column, ordered by free
    column.  Canonical because it is derived from the RREF.

    Only the echelon rows of two terms or more go through the rational
    RREF, over the columns they touch.  A one-term row e_c forces x_c = 0,
    which every vector read off that RREF has already: its nonzero entries
    sit at its free column and at pivots, and c is neither.  A free column
    that no such row touches gives e_f."""
    pivots = echelon_rows(list(rows))
    cols = sorted({c for row in pivots.values() if len(row) > 1 for c in row})
    pos = {c: i for i, c in enumerate(cols)}
    dense = {pos[c]: [row.get(k, 0) for k in cols] for c, row in pivots.items() if len(row) > 1}
    rref_cols, rref = _rref_from_pivots(dense)
    basis = []
    for f in range(ncols):
        if f in pivots:
            continue
        vec = [0] * ncols
        if f in pos:
            part = [Fraction(0)] * len(cols)
            part[pos[f]] = Fraction(1)
            for r, p in enumerate(rref_cols):
                part[p] = -rref[r][pos[f]]
            for c, v in zip(cols, primitive_int_vector(part)):
                vec[c] = v
        else:
            vec[f] = 1
        basis.append(vec)
    return basis
