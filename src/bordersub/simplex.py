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
(Chvatal, "Linear Programming", 1983): an (m + 1) x d integer matrix holding
the column of each pair's first member (u_j or sur_r) with its reduced cost
last, beside the right-hand sides with the objective last.  The other
member is derived when Bland's rule looks at it.

Bland's rule (least eligible index, entering and leaving; Bland 1977) still
runs over the virtual order u, v, sur, art, so the pivot sequence, and
hence the returned vertex, equals the full tableau's.  art_r is numbered
_ART + r, with _ART = 2^62 above every u, v and sur index of a system that
fits in memory: that keeps the order of the consecutive numbering
2d + m + r, so Bland's choices are the same, and ``add`` appends a row
with no renumbering.  Every pivot brings in a member of a nonbasic pair,
and the leaving pair's first-member column takes the entering pair's
slot: sur_r never enters while art_r is basic, as its reduced cost is
then den.

Arithmetic is fraction-free (Edmonds/Bareiss integer pivoting).  A pivot on
entry p maps each entry x off the pivot row to (x p - f k) / den, with f
the entering column's entry on x's row and k the entry of x's column on the
pivot row; the pivot row stays unscaled.  The division is exact, as every
entry is a minor of the integer system with its cost row (the reduced costs
and the objective, kept last).  ``_combine`` skips the cross-multiplication
where that leaves the integer unchanged: when den divides p and k, the
entry is x (p/den) - f (k/den), a plain difference or sum of two columns
when p = den and k = +-den; when p = den alone, den divides f k and the
entry is x - f k / den; when k = 0 and p divides den, x p / den is
x / (den/p).  Most pivots of the nullcone systems have p = den, most of
those den = 1; a column with k = 0 is then left as it is, and so is the
right-hand side when its pivot-row entry is zero.  The rows go in as
integers and every number that comes out is an integer; a caller with
rational rows clears their denominators first.

An infeasible system ends with a positive phase-1 objective, and the final
dictionary then holds a Farkas certificate: multipliers y >= 0 with
y^T A = 0 and y^T b > 0, so sum y_r (a_r . x) = 0 < sum y_r b_r shows that
no x meets every row.  The phase-1 dual w (w_r = 1 - z(art_r)/den) gives
y_r = w_r = z(sur_r)/den, since sur_r's column is -e_r at cost 0.  Scaled
by den, y_r is read off the dictionary:

* z(sur_r) when sur_r's pair is nonbasic (the slot's stored reduced cost);
* den when art_r is basic;
* 0 when sur_r is basic.

A dictionary can be kept, copied and given another row a . x >= b,
b >= 0, then solved again (Chvatal, ch. 10, on adding a constraint).
``Dictionary.add`` writes the row in the current basis.  Let abar be a_j
on u_j, -a_j on v_j and 0 on every surplus and artificial.  Then the
row's entry in slot k is den * a_j when the slot holds u_j (0 when it
holds a surplus) minus sum_i abar(basis_i) cols[k][i], and its right-hand
side is den * b - sum_i abar(basis_i) rhs_i.  When that right-hand side is
>= 0 the new artificial becomes basic at that value, and its cost den
takes the row off the reduced costs and the right-hand side off the
objective.  Otherwise the row is negated and the new surplus becomes
basic at minus that value.  Either way every basic variable stays >= 0,
so the basis is primal feasible for the extended phase-1 problem, and the
same loop goes on from it with no dual simplex.  The new basic column is
+-e on the new row, so the basis determinant keeps its absolute value den
and every entry is still a minor.  In Bland's virtual order the new
surplus is 2d + m and the new artificial _ART + m; no index moves.

Bland's rule terminates from any feasible basis, not only the artificial
one, and the phase-1 objective stays bounded below by zero.  The reduced
costs depend on the basis alone, not on the pivots that reached it, so
the final dictionary of a warm solve is the full tableau's at its basis
and y is read off it as above.

Both outcomes are re-checked in exact integers before they are returned,
against every row, added ones included: the point against each row, the
multipliers for y >= 0, y^T A = 0 and y^T b > 0.
"""

from __future__ import annotations

from operator import add, mul, sub

from .errors import InternalError, InvalidValueError


def phase_one(num_vars, cons):
    """Feasibility of {coeffs . x >= rhs} over integer rows (coeffs, rhs)
    with every rhs >= 0; a negative rhs raises InvalidValueError.

    Returns ((x, den), None) when feasible, x integer numerators and den > 0
    an integer such that x / den is a solution, or (None, y) with integer
    Farkas multipliers, one per constraint: y >= 0, sum y_r coeffs_r = 0
    and sum y_r rhs_r > 0."""
    return Dictionary(num_vars, cons).solve()


_ART = 1 << 62  # the virtual index of art_0 (module docstring)


def _combine(c, ecol, piv, pk, den):
    """The column (c * piv - ecol * pk) / den, exact; the module docstring
    says why each shortcut gives the same integers."""
    a, r = divmod(piv, den)
    b, s = divmod(pk, den)
    if not (r or s):
        if not b:
            return [x * a for x in c]
        if a == 1:
            if b == 1:
                return list(map(sub, c, ecol))
            if b == -1:
                return list(map(add, c, ecol))
            return [x - b * f for x, f in zip(c, ecol)]
        return [a * x - b * f for x, f in zip(c, ecol)]
    if piv == den:
        return [x - f * pk // den for x, f in zip(c, ecol)]
    if not pk and den % piv == 0:
        q = den // piv
        return [x // q for x in c]
    return [(x * piv - f * pk) // den for x, f in zip(c, ecol)]


def _check_rhs(rhs):
    if rhs < 0:
        raise InvalidValueError("right-hand sides must be >= 0; homogenise to a . x - b t >= 0, t >= 1")


class Dictionary:
    """The phase-1 dictionary of integer rows (coeffs, rhs), rhs >= 0, over
    num_vars free unknowns: built in the start state (every artificial
    basic), extended by ``add``, decided by ``solve`` as ``phase_one``
    does.  ``copy`` gives an independent dictionary to extend, so a solved
    system can answer many one-row extensions."""

    __slots__ = ("num_vars", "cons", "cols", "pair", "basis", "rhs", "den", "pivots")

    def __init__(self, num_vars, cons=()):
        d = num_vars
        cons = list(cons)
        m = len(cons)
        rhs = [b for _, b in cons]
        _check_rhs(min(rhs, default=0))
        self.num_vars = d
        self.cons = cons
        # cols[k]: the first-member column of slot k, its reduced cost last
        cols = [list(col) for col in zip(*(row for row, _ in cons))] if m else [[] for _ in range(d)]
        self.cols = [col + [-sum(col)] for col in cols]
        self.pair = list(range(d))  # the pair held in each slot
        self.basis = [_ART + r for r in range(m)]
        self.rhs = rhs + [-sum(rhs)]  # the objective last
        self.den = 1
        self.pivots = 0  # pivots made since the start state

    def copy(self):
        new = Dictionary.__new__(Dictionary)
        new.num_vars, new.den, new.pivots = self.num_vars, self.den, self.pivots
        new.cons, new.pair, new.basis, new.rhs = list(self.cons), list(self.pair), list(self.basis), list(self.rhs)
        new.cols = [list(col) for col in self.cols]
        return new

    def add(self, coeffs, rhs):
        """Append the row coeffs . x >= rhs, written in the current basis;
        the basis stays primal feasible (see the module docstring)."""
        _check_rhs(rhs)
        d, m, den = self.num_vars, len(self.cons), self.den
        row = [den * coeffs[p] if p < d else 0 for p in self.pair]
        b = den * rhs
        # eliminate each basic u_j (coefficient a_j) and v_j (-a_j)
        for i, var in enumerate(self.basis):
            if var < 2 * d:
                a = coeffs[var] if var < d else -coeffs[var - d]
                if a:
                    row = [r - a * col[i] for r, col in zip(row, self.cols)]
                    b -= a * self.rhs[i]
        if b >= 0:  # the new artificial is basic, at cost den
            self.basis.append(_ART + m)
            for col, r in zip(self.cols, row):
                col[m:] = r, col[m] - r
            self.rhs[m:] = b, self.rhs[m] - b
        else:  # the new surplus is basic
            self.basis.append(2 * d + m)
            for col, r in zip(self.cols, row):
                col.insert(m, -r)
            self.rhs.insert(m, -b)
        self.cons.append((coeffs, rhs))

    def solve(self):
        """Run Bland's rule from the current basis to the phase-1 optimum
        and return what ``phase_one`` returns for every row added so far."""
        d, cons = self.num_vars, self.cons
        m = len(cons)
        # virtual column indices: u_j = j, v_j = d + j, sur_r = 2d + r,
        # art_r = _ART + r; a pair is named by its first member (u_j, sur_r)
        V, SUR = d, 2 * d
        cols, pair, basis, rhs, den = self.cols, self.pair, self.basis, self.rhs, self.den
        pivots = self.pivots

        while True:
            enter = None
            for k in range(d):
                p, zk = pair[k], cols[k][m]
                if zk < 0:  # u_j or sur_r
                    e, ze, sign = p, zk, 1
                else:  # v_j = -u_j, or art_r = -sur_r at cost den
                    ze = (den if p >= SUR else 0) - zk
                    if ze >= 0:
                        continue
                    e, sign = p + (_ART - SUR if p >= SUR else d), -1
                if enter is None or e < enter:
                    enter, slot, zf, esign = e, k, ze, sign
            if enter is None:
                break

            # ecol: the entering column, its reduced cost zf last
            col = cols[slot]
            if esign > 0:
                ecol = col
            else:
                ecol = [-c for c in col]
                ecol[m] = zf
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
            for k in range(d):
                c = cols[k]
                pk = c[leave]
                if k != slot and (pk or piv != den):
                    c = _combine(c, ecol, piv, pk, den)
                    c[leave] = pk
                    cols[k] = c
            prhs = rhs[leave]
            if prhs or piv != den:
                rhs = _combine(rhs, ecol, piv, prhs, den)
                rhs[leave] = prhs

            # the leaving column is -ecol off the pivot row and den on it;
            # tau maps it to its pair's first member
            out = basis[leave]
            tau, zold = 1, 0
            if out >= _ART:  # sur_r = -art_r, and z(sur_r) was den; times piv/den
                tau, zold, out = -1, piv, out - _ART + SUR
            elif V <= out < SUR:  # u_j = -v_j
                tau, out = -1, out - d
            # -tau * ecol is +-col: reuse the list that already holds it
            c = col if tau * esign < 0 else ecol if esign < 0 else [-f for f in col]
            c[leave], c[m] = tau * den, zold - zf * tau
            cols[slot] = c
            pair[slot] = out
            basis[leave] = enter
            den = piv
            pivots += 1

        self.rhs, self.den, self.pivots = rhs, den, pivots
        if rhs[m] != 0:
            y = [0] * m
            for k in range(d):
                if pair[k] >= SUR:
                    y[pair[k] - SUR] = cols[k][m]
            for var in basis:
                if var >= _ART:
                    y[var - _ART] = den
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
            if sum(map(mul, row, x)) < b * den:
                raise InternalError("simplex returned an infeasible point")
        return (x, den), None
