"""Lie algebra computations for gl(A) + gl(B) + gl(C) acting on tensors.

The derivative action is the Leibniz rule

    (x, y, z) . T = x.T + y.T + z.T     (each factor acting on its slot),

a linear map from the 3n^2-dimensional algebra to the n^3-dimensional
tensor space once T is fixed.  ``_action_map`` builds that map as
coordinate -> {unknown: coefficient}, at only the coordinates a system
keeps; ``act`` evaluates it on T's exact entries, and every rank and kernel
below is integer linear algebra on it, built from T's entries with their
denominators cleared (a common positive scale leaves the row space
unchanged):

* the stabilizer of T is its kernel; for the unit tensor the kernel is the
  diagonal zero-sum algebra of dimension 2n (2n - 2 after dividing out the
  two-dimensional scalar kernel of the action);
* the stabilizer of the cone spanned by the unit tensor and the staircase
  space W is the kernel of "act lands inside <unit, W>", a condition made
  linear by quantifying over the generators {unit} + basis of W.  W holds
  no diagonal triple, so <unit, W> is the set of tensors v with v_c = 0
  for every coordinate c outside W + diag and v_(1,1,1) = ... = v_(n,n,n):
  each generator contributes its image at those coordinates and its image
  at (i,i,i) minus its image at (1,1,1).  A generator e_w gives one-term
  forms only, so its forced unknowns are listed once, without a map.  The
  condition is the triangular shape (the 3n(n-1)/2 entries of x above the
  diagonal and of y and z below it vanish, each forced by a one-term form;
  the unit generator alone forces them all) plus n - 1 trace rows
  on the 3n diagonal entries, so the gl^3-level kernel has dimension
  3n^2 - 3n(n-1)/2 - (n-1) and the quotient (3n^2 + n - 2)/2;
* tangent-space ranks at a sampled point unit + w, w generic in W, recover
  the dimension count (dim G) - (dim G_cone) + (dim cone) of the orbit of
  the cone, whose closed form is (2n^3 + 3n^2 - 2n - 3)/3.  The tangent
  space is act(gl^3, unit + w) + <unit, W>, and the |W| unit vectors of W
  are removed with their columns: rank = |W| + rank(rest), where rest is
  the coordinate forms outside W, the only ones the map writes, with one
  extra column for the unit tensor.

Every rank and kernel goes through one structured elimination
(LaMacchia & Odlyzko 1990).  ``_split`` peels one-term forms to a fixed
point: each forces its unknown to 0 and is deleted from the other forms,
which may leave new one-term forms.  Ranks (``_rank_forms``) then peel the
rows that alone hold a column, and only the residue reaches ``rank_int``;
kernels (``_kernel_forms``) send what ``_split`` leaves to ``kernel_int``.
For the cone and the tangent at every n tried, up to 50, the residue is
empty.

Dimensions come in two conventions: the raw gl^3 level and the faithful
quotient (subtract 2 for the scalar pairs (a, b, -a-b) acting trivially).
Every function documents which one it returns.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import DimensionMismatchError, InternalError, InvalidValueError
from .linalg import kernel_int, rank_int
from .tensors import Tensor3, build_W, integer_entries, json_int, rational, sample_coefficients, unit_tensor

#: dimension of the scalar pairs acting trivially on every tensor
ACTION_KERNEL_DIM = 2


@dataclass(frozen=True)
class LieTriple:
    """An element (x, y, z) of gl_n^3, matrices over Q."""

    n: int
    x: tuple[tuple[Fraction, ...], ...]
    y: tuple[tuple[Fraction, ...], ...]
    z: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        json_int(self.n)
        # one Fraction per distinct entry: kernel vectors repeat few values.
        # Only an int reads the cache, as True and 1.0 hash like 1.
        shared = {}
        for name in ("x", "y", "z"):
            mat = tuple(
                tuple(
                    v
                    if type(v) is Fraction
                    else shared[v] if type(v) is int and v in shared else shared.setdefault(v, rational(v))
                    for v in row
                )
                for row in getattr(self, name)
            )
            if len(mat) != self.n or any(len(row) != self.n for row in mat):
                raise InvalidValueError(f"{name} must be {self.n} x {self.n}")
            object.__setattr__(self, name, mat)

    @classmethod
    def zero(cls, n):
        z = tuple(tuple(Fraction(0) for _ in range(n)) for _ in range(n))
        return cls(n, z, z, z)

    @classmethod
    def from_flat(cls, n, vec):
        """Inverse of flat(): vec lists x, y, z row-major."""
        if len(vec) != 3 * n * n:
            raise InvalidValueError("flat vector must have length 3n^2")
        rows = [vec[i : i + n] for i in range(0, 3 * n * n, n)]
        return cls(n, rows[:n], rows[n : 2 * n], rows[2 * n :])

    def flat(self):
        out = []
        for mat in (self.x, self.y, self.z):
            for row in mat:
                out.extend(row)
        return out

    def __add__(self, other):
        if self.n != other.n:
            raise DimensionMismatchError(f"n={self.n} vs n={other.n}")
        add = lambda a, b: tuple(tuple(p + q for p, q in zip(ra, rb)) for ra, rb in zip(a, b))
        return LieTriple(self.n, add(self.x, other.x), add(self.y, other.y), add(self.z, other.z))

    def scale(self, c):
        c = rational(c)
        mul = lambda a: tuple(tuple(c * v for v in row) for row in a)
        return LieTriple(self.n, mul(self.x), mul(self.y), mul(self.z))


def _action_map(n, entries, skip=frozenset()):
    """The linear map lt -> act(lt, T) as coordinate index -> {unknown:
    coefficient}, for the tensor T of format n with the given entries
    {triple: value}, at every coordinate not in ``skip``; the only place the
    Leibniz terms of a general tensor are enumerated.

    Coordinate (i, j, k) has index (i-1)n^2 + (j-1)n + (k-1); unknowns are
    positions in LieTriple.flat(), so entry (p, q) of x, y, z is unknown
    (p-1)n + (q-1) plus 0, n^2, 2n^2.  An entry at (i, j, k) gives, for
    each p, the term of x's (p, i) at (p, j, k), of y's (p, j) at (i, p, k)
    and of z's (p, k) at (i, j, p): three lines through the cube."""
    nn = n * n
    amap = {}
    for (i, j, k), c in entries.items():
        i, j, k = i - 1, j - 1, k - 1
        for coords, unks in (
            (range(j * n + k, n * nn, nn), range(i, nn, n)),
            (range(i * nn + k, (i + 1) * nn, n), range(nn + j, 2 * nn, n)),
            (range(i * nn + j * n, i * nn + j * n + n), range(2 * nn + k, 3 * nn, n)),
        ):
            for coord, unk in zip(coords, unks):
                if coord not in skip:
                    form = amap.setdefault(coord, {})
                    form[unk] = form.get(unk, 0) + c
    return amap


def _coord_index(n, t):
    i, j, k = t
    return (i - 1) * n * n + (j - 1) * n + (k - 1)


def _dense(forms, width):
    """Dense rows of sparse integer forms {column: coefficient}."""
    rows = []
    for form in forms:
        row = [0] * width
        for col, v in form.items():
            row[col] = v
        rows.append(row)
    return rows


def _compact(rows):
    """The sorted columns that sparse rows ((column, coefficient), ...)
    touch, and the rows as dense integer lists over those columns."""
    cols = sorted({c for row in rows for c, _ in row})
    pos = {c: i for i, c in enumerate(cols)}
    return cols, _dense(({pos[c]: v for c, v in row} for row in rows), len(cols))


def _split(forms):
    """Peel the one-term rows of sparse integer forms {unknown:
    coefficient} to a fixed point and return (zero, rows).

    Zero coefficients are dropped.  A one-term form puts e_u in the row
    space, forcing u to 0, and subtracting multiples of it deletes u from
    every other form, which may leave new one-term forms; a column -> rows
    index finds them.  ``zero`` lists the forced unknowns, sorted; ``rows``
    are the other forms as tuples of (unknown, coefficient) pairs, sorted
    and deduplicated, none touching ``zero``.  The row space is span{e_u :
    u in zero} + rowspace(rows) on disjoint columns, so the RREF is the
    rows e_u beside the RREF of ``rows``: the rank is len(zero) plus that
    of ``rows``, and the canonical ``kernel_int`` basis splits the same
    way."""
    rows, holders, zero = [], {}, set()
    for form in forms:
        row = {c: v for c, v in form.items() if v} if len(form) > 1 else form
        if len(row) > 1:
            for c in row:
                holders.setdefault(c, set()).add(len(rows))
            rows.append(row)
        elif 0 not in row.values():
            zero.update(row)
    pending = list(zero)
    while pending:
        c = pending.pop()
        for s in holders.pop(c, ()):
            row = rows[s]
            del row[c]
            if len(row) == 1 and not zero.issuperset(row):
                zero.update(row)
                pending += row
    return sorted(zero), sorted({tuple(sorted(row.items())) for row in rows if row})


def _rank_forms(forms):
    """Rank over Q of sparse integer rows {column: coefficient}: len(zero)
    from ``_split``, plus one for each row of ``rows`` that alone holds a
    column (no other row can cancel that entry), peeled to a fixed point,
    plus ``rank_int`` of the residue, called once even when it is empty.

    The two peels are independent.  A unit-row peel deletes its column and
    drops only rows that held nothing else, so no other column loses a
    holder; a lone-column peel drops a whole row and leaves no one-term
    row.  One after the other reaches the fixed point of both."""
    zero, rows = _split(forms)
    holders = {}
    for r, row in enumerate(rows):
        for c, _ in row:
            holders.setdefault(c, set()).add(r)
    lone_cols = [c for c, held in holders.items() if len(held) == 1]
    rank = len(zero)
    while lone_cols:
        held = holders.get(lone_cols.pop())
        if held:
            (r,) = held
            rank += 1
            for c, _ in rows[r]:
                held = holders[c]
                held.remove(r)
                if len(held) == 1:
                    lone_cols.append(c)
                elif not held:
                    del holders[c]
            rows[r] = ()
    return rank + rank_int(_compact([row for row in rows if row])[1])


def _kernel_forms(forms, width):
    """``kernel_int`` of the dense rows of ``forms`` over ``width``
    unknowns, from ``_split``'s parts: an unknown in neither ``zero`` nor
    the columns of ``rows`` is free and gives e_u; the kernel of ``rows``,
    embedded at their columns, gives the rest.  Each vector's free column
    is its last nonzero entry, and the basis is in free-column order."""
    zero, rows = _split(forms)
    cols, dense = _compact(rows)
    by_free = {}
    for u in set(range(width)).difference(zero, cols):
        by_free[u] = [0] * width
        by_free[u][u] = 1
    for part in kernel_int(dense, len(cols)):
        vec = [0] * width
        for c, v in zip(cols, part):
            vec[c] = v
        by_free[max(c for c, v in zip(cols, part) if v)] = vec
    return [by_free[f] for f in sorted(by_free)]


def act(lt: LieTriple, T: Tensor3) -> Tensor3:
    """Leibniz action of (x, y, z) on T, exact and linear in both slots."""
    if lt.n != T.n:
        raise DimensionMismatchError(f"algebra n={lt.n} vs tensor n={T.n}")
    n = lt.n
    flat = lt.flat()
    out = {}
    for coord, form in _action_map(n, T.entries).items():
        v = sum(flat[unk] * c for unk, c in form.items())
        if v:
            out[(coord // (n * n) + 1, coord // n % n + 1, coord % n + 1)] = v
    return Tensor3(n, out)


def stabilizer_dim(T: Tensor3) -> int:
    """dim of the full gl^3-level stabilizer algebra of T (kernel of the
    action map).  The faithful symmetry algebra has dimension
    stabilizer_dim - 2 whenever T != 0."""
    return 3 * T.n * T.n - _rank_forms(_action_map(T.n, integer_entries(T)).values())


def stabilizer_basis(T: Tensor3) -> list[LieTriple]:
    """Canonical primitive-integer basis of the stabilizer algebra."""
    vecs = _kernel_forms(_action_map(T.n, integer_entries(T)).values(), 3 * T.n * T.n)
    return [LieTriple.from_flat(T.n, v) for v in vecs]


def orbit_dim_unit(n) -> int:
    """Dimension 3n^2 - 2n of the (affine) orbit of the unit tensor, i.e.
    of the set of all maximal subrank tensors."""
    return _rank_forms(_action_map(n, integer_entries(unit_tensor(n))).values())


def _cone_forms(n):
    """The condition "act(lt, g) lies in <unit, W> for every generator g
    (the unit tensor and e_w, w in W)" as sparse integer forms over the
    3n^2 unknowns: each generator contributes the forms of its image at
    every coordinate outside W + diag and of its image at (i,i,i) minus its
    image at (1,1,1), i >= 2.

    Only the unit generator gives forms of more than one term.  For w =
    (i, j, k) in W, the image of e_w has 3n Leibniz terms, one per unknown
    x_pi, y_pj, z_pk, on the three lines through w: at (p, j, k), (i, p, k)
    and (i, j, p) (see ``_action_map``).  The lines meet only at w, so the
    terms land on distinct coordinates except the three that land on w
    itself, and w is in W.  At most one lands on the diagonal: (p, j, k)
    only if j = k, (i, p, k) only if i = k, (i, j, p) only if i = j, and an
    off-diagonal w has at most one equal pair.  So every term outside W is
    alone at its coordinate and gives a one-term form, off the diagonal
    directly and on it through the difference with (1,1,1), where e_w has
    no other term.  Each forces its unknown, so the e_w generators come
    down to one form {u: 1} per distinct unknown u with a term outside W,
    listed once.  Unknown (p, q) of the s-th factor is such a u when some w
    in W has q in slot s and the point at position p of its slot-s line
    lies outside W; bitmasks over the lines find them without writing a
    term.
    """
    W = build_W(n, "W")
    nn = n * n
    in_W = {_coord_index(n, t) for t in W}
    # outside[s][line]: bit p set when position p of the slot-s line whose
    # other two indices are ``line`` lies outside W
    outside = [[0] * nn for _ in range(3)]
    for c in range(n * nn):
        if c not in in_W:
            i, j, k = c // nn, c // n % n, c % n
            outside[0][j * n + k] |= 1 << i
            outside[1][i * n + k] |= 1 << j
            outside[2][i * n + j] |= 1 << k
    # forced[s][q]: bit p set when unknown (p, q) of the s-th factor is forced
    forced = [[0] * n for _ in range(3)]
    for i, j, k in W.triples:
        i, j, k = i - 1, j - 1, k - 1
        forced[0][i] |= outside[0][j * n + k]
        forced[1][j] |= outside[1][i * n + k]
        forced[2][k] |= outside[2][i * n + j]
    forms = [{s * nn + p * n + q: 1} for s in range(3) for q in range(n) for p in range(n) if forced[s][q] >> p & 1]
    amap = _action_map(n, {(i, i, i): 1 for i in range(1, n + 1)}, in_W)
    origin = amap.pop(_coord_index(n, (1, 1, 1)))
    for i in range(2, n + 1):
        form = amap.pop(_coord_index(n, (i, i, i)))
        for unk, v in origin.items():
            form[unk] = form.get(unk, 0) - v
        forms.append(form)
    return forms + list(amap.values())


def cone_stabilizer_dim(n) -> int:
    """Faithful-quotient dimension (3n^2 + n - 2)/2 of the algebra
    preserving the cone over the unit tensor and W; the gl^3-level kernel
    is two bigger."""
    return 3 * n * n - _rank_forms(_cone_forms(n)) - ACTION_KERNEL_DIM


@dataclass(frozen=True)
class StructureReport:
    n: int
    dim_full: int
    dim_quotient: int
    basis: tuple[LieTriple, ...]
    triangular_ok: bool
    trace_ok: bool
    violations: tuple[str, ...]

    @property
    def passes(self):
        return self.triangular_ok and self.trace_ok

    def to_json(self):
        return {
            "n": self.n,
            "dim_full": self.dim_full,
            "dim_quotient": self.dim_quotient,
            "basis_size": len(self.basis),
            "triangular_ok": self.triangular_ok,
            "trace_ok": self.trace_ok,
            "violations": list(self.violations),
        }


def cone_stabilizer_structure(n) -> StructureReport:
    """Canonical basis of the cone stabilizer plus the structural checks:
    x lower-triangular, y and z upper-triangular, and the diagonal sums
    x_ss + y_ss + z_ss constant across s for every basis element, read off
    the integer kernel vectors (x, y, z row-major, as in LieTriple.flat)."""
    nn = n * n
    vecs = _kernel_forms(_cone_forms(n), 3 * nn)
    basis = tuple(LieTriple.from_flat(n, v) for v in vecs)
    violations = []
    triangular_ok = trace_ok = True
    for b_idx, v in enumerate(vecs):
        for p in range(n):
            for q in range(n):
                if q > p and v[p * n + q]:
                    violations.append(f"basis[{b_idx}]: x[{p+1}][{q+1}] nonzero above diagonal")
                    triangular_ok = False
                if q < p and (v[nn + p * n + q] or v[2 * nn + p * n + q]):
                    violations.append(f"basis[{b_idx}]: y/z[{p+1}][{q+1}] nonzero below diagonal")
                    triangular_ok = False
        if len({v[d] + v[nn + d] + v[2 * nn + d] for d in range(0, nn, n + 1)}) > 1:
            violations.append(f"basis[{b_idx}]: diagonal sums not constant")
            trace_ok = False
    return StructureReport(
        n=n,
        dim_full=len(basis),
        dim_quotient=len(basis) - ACTION_KERNEL_DIM,
        basis=basis,
        triangular_ok=triangular_ok,
        trace_ok=trace_ok,
        violations=tuple(violations),
    )


@dataclass(frozen=True)
class TangentReport:
    n: int
    value: int
    expected: int
    attempts: tuple[tuple[int, int], ...]  # (seed, projective dimension)

    @property
    def ok(self):
        return self.value == self.expected

    def to_json(self):
        return {
            "n": self.n,
            "value": self.value,
            "expected": self.expected,
            "attempts": [{"seed": s, "value": v} for s, v in self.attempts],
        }


def orbit_cone_tangent_dim(n, seed) -> TangentReport:
    """Projective dimension of the tangent space, at a sampled generic
    point unit + w (w on the staircase support W), of the orbit of the
    cone: rank of act(gl^3, unit + w) + <unit, W> minus one.

    The rank is |W| plus the rank of the coordinate forms outside W, with
    one extra unknown, column 3n^2, for the unit tensor at the diagonal
    coordinates.

    Degenerate samples (rank below the closed form) trigger up to two
    reseeds (seed+1, seed+2); all attempts are reported and the maximum is
    returned."""
    expected = qmax_dimension_bound(n)
    W = build_W(n, "W")
    in_W = {_coord_index(n, t) for t in W}
    diag = {(i, i, i): 1 for i in range(1, n + 1)}
    attempts = []
    best = -1
    for s in (seed, seed + 1, seed + 2):
        # W holds no diagonal triple and the samples are integers, so these
        # are the integer entries of unit + w
        entries = dict(diag)
        entries.update((t, int(c)) for t, c in sample_coefficients(W, s).items())
        amap = _action_map(n, entries, in_W)
        for t in diag:
            amap[_coord_index(n, t)][3 * n * n] = 1
        value = len(W) + _rank_forms(amap.values()) - 1
        attempts.append((s, value))
        best = max(best, value)
        if best == expected:
            break
    return TangentReport(n=n, value=best, expected=expected, attempts=tuple(attempts))


def qmax_dimension_bound(n) -> int:
    """Closed form (2n^3 + 3n^2 - 2n - 3)/3: the lower bound on the
    projective dimension of the closure of the maximal border subrank
    locus.  The numerator is divisible by 3 for every n >= 1."""
    if n < 1:
        raise InvalidValueError("n must be positive")
    num = 2 * n**3 + 3 * n**2 - 2 * n - 3
    if num % 3:
        raise InternalError(f"bound numerator {num} not divisible by 3")
    return num // 3
