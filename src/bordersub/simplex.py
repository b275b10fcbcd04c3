"""Exact rational linear feasibility via a phase-1 simplex with integer
pivoting, kept in dictionary form.

Decides whether {x in Q^d : a_r . x >= b_r for all r}, with integer a_r and
integer b_r >= 0, is nonempty and, when it is, returns one rational
solution as integer numerators over one positive denominator.  A negative
b_r is refused.  A general system is decided through its homogenisation
a_r . x - b_r t >= 0, t >= 1 (Schrijver, "Theory of Linear and Integer
Programming", 1986): it is feasible iff the original is, a solution (x, t)
gives x / t, and the Farkas multipliers of its first m rows refute the
original.

The textbook phase-1 tableau splits each free variable as x_j = u_j - v_j,
gives each row r a surplus sur_r and an artificial art_r, and starts from
the basis of artificials, which b >= 0 makes feasible; the system is
feasible iff the artificial objective minimizes to zero.

That tableau has 2d + 2m columns, but every row operation is linear, so the
relations that hold at the start hold for ever: column v_j = -u_j, column
art_r = -sur_r, and the reduced costs z(v_j) = -z(u_j),
z(art_r) = den - z(sur_r) (the artificial carries cost 1, scaled by the
common denominator).  Basic columns are den * e_i and carry no
information.  So the u_j/v_j and sur_r/art_r pairs are the real unknowns:
m of them are basic at any time (never both members of one pair, as their
columns are parallel) and d are not.  Only the d nonbasic pairs are stored
(Chvatal, "Linear Programming", 1983): an m x d integer matrix holding the
column of each pair's first member (u_j or sur_r) and its reduced cost.  The
other member is derived when Bland's rule looks at it.

Bland's rule (least eligible index, entering and leaving; Bland 1977) still
runs over the virtual order u, v, sur, art, so the pivot sequence, and
hence the returned vertex, equals the full tableau's.  Every pivot brings
in a member of a nonbasic pair, and the leaving pair's first-member column
takes the entering pair's slot: sur_r never enters while art_r is basic,
as its reduced cost is then den.

Arithmetic is fraction-free (Edmonds/Bareiss integer pivoting): a pivot on
entry p rescales every other row by p/den with a cross-multiplication whose
division is exact, since all entries are minors of the original integer
system, and the pivot row stays unscaled.  A column with no entry on the
pivot row only takes the factor p/den, so when p equals den (most pivots
of the nullcone systems) it is left as it is, and so is the right-hand
side when its pivot-row entry is zero.  The rows go in as integers and
every number that comes out is an integer; a caller with rational rows
clears their denominators first.

An infeasible system ends with a positive phase-1 objective, and the final
dictionary then holds a Farkas certificate: multipliers y >= 0 with
y^T A = 0 and y^T b > 0, so sum y_r (a_r . x) = 0 < sum y_r b_r shows that
no x meets every row.  The phase-1 dual w (w_r = 1 - z(art_r)/den) gives
y_r = w_r = z(sur_r)/den, since sur_r's column is -e_r at cost 0.  Scaled
by den, y_r is read off the dictionary:

* z(sur_r) when sur_r's pair is nonbasic (the slot's stored reduced cost);
* den when art_r is basic;
* 0 when sur_r is basic.

Both outcomes are re-checked in exact integers before they are returned:
the point against every row, the multipliers for y >= 0, y^T A = 0 and
y^T b > 0.
"""

from __future__ import annotations

from .errors import InternalError, InvalidValueError


def phase_one(num_vars, cons):
    """Feasibility of {coeffs . x >= rhs} over integer rows (coeffs, rhs)
    with every rhs >= 0; a negative rhs raises InvalidValueError.

    Returns ((x, den), None) when feasible, x integer numerators and den > 0
    an integer such that x / den is a solution, or (None, y) with integer
    Farkas multipliers, one per constraint: y >= 0, sum y_r coeffs_r = 0
    and sum y_r rhs_r > 0."""
    d = num_vars
    if not cons:
        return ([0] * d, 1), None
    m = len(cons)
    rhs = [b for _, b in cons]
    if min(rhs) < 0:
        raise InvalidValueError("right-hand sides must be >= 0; homogenise to a . x - b t >= 0, t >= 1")
    # virtual column indices: u_j = j, v_j = d + j, sur_r = 2d + r,
    # art_r = 2d + m + r; a pair is named by its first member (u_j, sur_r)
    V, SUR, ART = d, 2 * d, 2 * d + m

    # cols[k]: the first-member column of slot k
    cols = [list(col) for col in zip(*(row for row, _ in cons))]
    zs = [-sum(col) for col in cols]  # reduced cost of each slot's first member
    pair = list(range(d))  # the pair held in each slot
    basis = [ART + r for r in range(m)]
    obj = -sum(rhs)
    den = 1

    while True:
        enter = None
        for k in range(d):
            p, zk = pair[k], zs[k]
            if zk < 0:  # u_j or sur_r
                e, ze, sign = p, zk, 1
            else:  # v_j = -u_j, or art_r = -sur_r at cost den
                ze = (den if p >= SUR else 0) - zk
                if ze >= 0:
                    continue
                e, sign = p + (m if p >= SUR else d), -1
            if enter is None or e < enter:
                enter, slot, zf, esign = e, k, ze, sign
        if enter is None:
            break

        col = cols[slot]
        ecol = col if esign > 0 else [-c for c in col]
        leave = None
        for i in range(m):
            a = ecol[i]
            if a > 0:
                if leave is None:
                    leave = i
                else:
                    lhs = rhs[i] * ecol[leave]
                    rhsv = rhs[leave] * a
                    if lhs < rhsv or (lhs == rhsv and basis[i] < basis[leave]):
                        leave = i
        if leave is None:
            # the phase-1 objective is bounded below by zero
            raise InternalError("phase-1 simplex unbounded")
        piv = ecol[leave]
        rescale = piv != den
        for k in range(d):
            if k == slot:
                continue
            c = cols[k]
            pk = c[leave]
            if pk:
                c = [(x * piv - f * pk) // den for x, f in zip(c, ecol)]
                c[leave] = pk
                cols[k] = c
                zs[k] = (zs[k] * piv - zf * pk) // den
            elif rescale:
                cols[k] = [x * piv // den for x in c]
                zs[k] = zs[k] * piv // den
        prhs = rhs[leave]
        if prhs or rescale:
            rhs = [(x * piv - f * prhs) // den for x, f in zip(rhs, ecol)]
            rhs[leave] = prhs
        obj = (obj * piv - zf * prhs) // den

        # the leaving column becomes -ecol off the pivot row and den on it;
        # tau maps it to its pair's first member
        out = basis[leave]
        tau, zold = 1, 0
        if out >= ART:  # sur_r = -art_r, and z(sur_r) was den; times piv/den
            tau, zold, out = -1, piv, out - m
        elif V <= out < SUR:  # u_j = -v_j
            tau, out = -1, out - d
        c = [-f for f in ecol] if tau > 0 else list(ecol)
        c[leave] = tau * den
        cols[slot] = c
        zs[slot] = zold - zf * tau
        pair[slot] = out
        basis[leave] = enter
        den = piv

    if obj != 0:
        y = [0] * m
        for k in range(d):
            if pair[k] >= SUR:
                y[pair[k] - SUR] = zs[k]
        for var in basis:
            if var >= ART:
                y[var - ART] = den
        if any(v < 0 for v in y):
            raise InternalError("simplex returned negative Farkas multipliers")
        for j in range(d):
            if sum(v * row[j] for v, (row, _) in zip(y, cons) if v):
                raise InternalError("Farkas multipliers do not cancel the rows")
        if sum(v * b for v, (_, b) in zip(y, cons)) <= 0:
            raise InternalError("Farkas multipliers give no contradiction")
        return None, y
    x = [0] * d
    for i, var in enumerate(basis):
        if var < V:
            x[var] += rhs[i]
        elif var < SUR:
            x[var - d] -= rhs[i]
    for row, b in cons:
        if sum(c * xi for c, xi in zip(row, x)) < b * den:
            raise InternalError("simplex returned an infeasible point")
    return (x, den), None
