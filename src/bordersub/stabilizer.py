"""Lie algebra computations for gl(A) + gl(B) + gl(C) acting on tensors.

The derivative action is the Leibniz rule

    (x, y, z) . T = x.T + y.T + z.T     (each factor acting on its slot),

a linear map from the 3n^2-dimensional algebra to the n^3-dimensional
tensor space once T is fixed.  ``_action_map`` builds that map as
coordinate -> {unknown: coefficient}; ``act`` evaluates it on T's exact
entries.  The stabilizer of T is its kernel, computed in integer linear
algebra from T's entries with their denominators cleared (a common positive
scale leaves the row space unchanged); for the unit tensor it is the
diagonal zero-sum algebra of dimension 2n (2n - 2 after dividing out the
two-dimensional scalar kernel of the action).

The cone over the unit tensor and the staircase space W, and the tangent
space of its orbit, come from one weight lemma, with no map.  Unknown
(p, q) of a factor (x_pq, y_pq or z_pq) moves index q to p in its slot, so
a term of an entry t at coordinate c has root weight weight(c) - weight(t)
under any cocharacter.  The unit tensor has one term at each off-diagonal
coordinate with two equal indices (x_pq at (p, q, q), y_pq at (q, p, q),
z_pq at (q, q, p)) and x_ii + y_ii + z_ii at (i, i, i).  Let U be the
unknowns of its terms at off-diagonal coordinates outside W, and

  H1: ``binary_cocharacter(n)`` has weight >= 1 on every triple of W;
  H2: every term of every e_w, w in W, at a coordinate outside W (the
      diagonal included) carries an unknown of U.

Lemma.  For every w on W, zero coefficients included, the coordinate forms
of act(gl^3, unit + w) outside W, plus a column for the unit tensor at the
diagonal, have rank |U| + n.

Proof.  By H2 every w-term outside W lies on U, so the row at (i, i, i) is
x_ii + y_ii + z_ii + unit column + terms on U, and x_ii is in no other row
(H1 keeps the diagonal outside W, and U is off-diagonal).  These n rows
add n to the rank of the others, which lie on U.  At each off-diagonal c outside W with a
unit term, that term has coefficient 1 and root weight weight(c); a w-term
at c has root weight weight(c) - weight(w), lower by H1.  Distinct c have
distinct unit terms, so these |U| rows, in root-weight order, are
triangular with unit pivots whatever the coefficients on W.

``_unit_forced`` checks H1 and H2 by bitmasks and returns U: the 3n(n-1)/2
entries of x above the diagonal and of y and z below it.  Both counts, and
the cone stabilizer's basis, are read off U with no elimination:

* the cone stabilizer is the kernel of "act(g) lies in <unit, W> for every
  generator g in {unit} + {e_w}", and <unit, W> is the set of v with v_c = 0
  at every c outside W + diag and v_(1,1,1) = ... = v_(n,n,n).  The unit
  gives the forms {u: 1}, u in U, and the n - 1 trace rows t_i - t_1,
  t_i = x_ii + y_ii + z_ii; by H2 the forms of each e_w lie on U, in the
  span of the {u: 1}.  Each trace row holds its own x_ii, i >= 2, so the
  rank is |U| + n - 1, and the gl^3-level kernel has dimension
  3n^2 - 3n(n-1)/2 - (n-1), the quotient (3n^2 + n - 2)/2;
* the forms' reduced echelon form is e_u, u in U, beside t_i - t_n with
  pivot x_ii, i < n, so the canonical kernel basis (``kernel_int``'s), one
  v_f per free column f in order, is e_f for each off-diagonal f outside
  U, e_(x_ii) - e_f for f = y_ii or z_ii, i < n, and sum_(i<n) e_(x_ii) +
  e_f for f = x_nn, y_nn or z_nn.  ``_cone_kernel`` re-checks it against
  the forms: (1) every form vanishes on every v_f; (2) the forms have
  distinct last columns, so are independent, and there are 3n^2 minus as
  many vectors; (3) each v_f has leading entry 1 and last column f, its
  other columns pivots.  A kernel vector's last column is free, so by (3)
  each f is free and by (2) the f are all the free columns; so v_f, zero
  at every other free column, is f's reduced vector, primitive by (3);
* the tangent space at unit + w of the orbit of the cone is
  act(gl^3, unit + w) + <unit, W>, whose |W| unit vectors remove the
  coordinates of W.  By the lemma its projective dimension is
  |W| + |U| + n - 1 = |W| + 3n(n-1)/2 + n - 1 = (2n^3 + 3n^2 - 2n - 3)/3 =
  dim G - dim G_cone + dim cone at every point.

Other ranks and kernels come from the structured elimination of ``linalg``.

Dimensions come in two conventions: the raw gl^3 level and the faithful
quotient (subtract 2 for the scalar pairs (a, b, -a-b) acting trivially).
Every function documents which one it returns.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .errors import DimensionMismatchError, InternalError, InvalidValueError
from .linalg import kernel_int, rank_int
from .tensors import Tensor3, check_n, integer_entries, rational, staircase_triples, unit_tensor
from .weights import binary_cocharacter

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
        check_n(self.n)
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
        return cls.from_flat(n, [0] * (3 * check_n(n) * n))

    @classmethod
    def from_flat(cls, n, vec):
        """Inverse of flat(): vec lists x, y, z row-major."""
        if len(vec) != 3 * check_n(n) * n:
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


def _action_map(n, entries):
    """The linear map lt -> act(lt, T) as coordinate index -> {unknown:
    coefficient}, for the tensor T of format n with the given entries
    {triple: value}; the only place the Leibniz terms of a general tensor
    are enumerated.

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
                form = amap.setdefault(coord, {})
                form[unk] = form.get(unk, 0) + c
    return amap


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
    return 3 * T.n * T.n - rank_int(_action_map(T.n, integer_entries(T)).values())


def stabilizer_basis(T: Tensor3) -> list[LieTriple]:
    """Canonical primitive-integer basis of the stabilizer algebra."""
    vecs = kernel_int(_action_map(T.n, integer_entries(T)).values(), 3 * T.n * T.n)
    return [LieTriple.from_flat(T.n, v) for v in vecs]


def orbit_dim_unit(n) -> int:
    """Dimension 3n^2 - 2n of the (affine) orbit of the unit tensor, i.e.
    of the set of all maximal subrank tensors."""
    return rank_int(_action_map(n, integer_entries(unit_tensor(n))).values())


def _unit_forced(n):
    """Check the lemma's H1 and H2 for W = W(n) and return (|W|, U), U
    sorted; raise InternalError if either fails.

    The triples of W are generated twice and never held (W(100) has
    661,650).  outside[s][line] has bit p set when position p of the slot-s
    line whose other two indices are ``line`` lies outside W.  Unknown
    (p, q) of factor s puts its unit term at position p of the slot-s line
    through (q, q, q), and its e_w term, for w with q in slot s, at
    position p of the slot-s line through w (see ``_action_map``): U is
    read off the lines through the diagonal, and H2 is one mask inclusion
    per line through w."""
    tw = binary_cocharacter(n)
    nn = n * n
    full = (1 << n) - 1
    outside = [[full] * nn for _ in range(3)]
    size = 0
    for i, j, k in staircase_triples(n):
        if tw.lam[i - 1] + tw.mu[j - 1] + tw.nu[k - 1] < 1:
            raise InternalError(f"H1 fails: the binary cocharacter has weight < 1 on a triple of W({n})")
        i, j, k = i - 1, j - 1, k - 1
        outside[0][j * n + k] &= ~(1 << i)
        outside[1][i * n + k] &= ~(1 << j)
        outside[2][i * n + j] &= ~(1 << k)
        size += 1
    # forced[s][q]: bit p set when unknown (p, q) of factor s is in U
    forced = [[outside[s][q * (n + 1)] & ~(1 << q) for q in range(n)] for s in range(3)]
    for i, j, k in staircase_triples(n):
        i, j, k = i - 1, j - 1, k - 1
        if (
            outside[0][j * n + k] & ~forced[0][i]
            or outside[1][i * n + k] & ~forced[1][j]
            or outside[2][i * n + j] & ~forced[2][k]
        ):
            raise InternalError(f"H2 fails: e_w, w = {(i + 1, j + 1, k + 1)}, has a term outside W({n}) off U")
    return size, [s * nn + p * n + q for s in range(3) for p in range(n) for q in range(n) if forced[s][q] >> p & 1]


def _cone_forms(n):
    """The condition "act(lt, g) lies in <unit, W> for every generator g"
    as sparse integer forms over the 3n^2 unknowns: {u: 1} for u in U and
    the n - 1 trace rows (x_ii + y_ii + z_ii) - (x_11 + y_11 + z_11)."""
    diagonal = lambda i: [s * n * n + i * (n + 1) for s in range(3)]
    origin = dict.fromkeys(diagonal(0), -1)
    trace = [{**origin, **dict.fromkeys(diagonal(i), 1)} for i in range(1, n)]
    return [{u: 1} for u in _unit_forced(n)[1]] + trace


def _cone_kernel(n):
    """The canonical kernel basis of ``_cone_forms(n)`` as sorted (position,
    value) pairs, in closed form and re-checked against the forms (module
    docstring); U is read off the one-term forms.  InternalError if a check fails."""
    nn = n * n
    forms = _cone_forms(n)
    x_diag = range(0, nn - 1, n + 1)  # x_ii, i < n: the trace rows' pivots
    pivots = {c for form in forms if len(form) == 1 for c in form}.union(x_diag)
    index = {}  # column -> the indices of the forms holding it
    for r, form in enumerate(forms):
        for c in form:
            index.setdefault(c, set()).add(r)
    vecs = []
    for f in (f for f in range(3 * nn) if f not in pivots):
        d, off = divmod(f % nn, n + 1)
        v = {f: 1} if off else {d * (n + 1): 1, f: -1} if d < n - 1 else {**dict.fromkeys(x_diag, 1), f: 1}
        touched = set().union(*(index.get(c, ()) for c in v))
        reduced = max(v) == f and v[min(v)] == 1 and pivots.issuperset(v.keys() - {f})
        if not reduced or any(sum(a * forms[r].get(c, 0) for c, a in v.items()) for r in touched):
            raise InternalError(f"the cone kernel vector of column {f} fails its re-check")
        vecs.append(tuple(sorted(v.items())))
    if len(vecs) != 3 * nn - len(forms) or len({max(form) for form in forms}) != len(forms):
        raise InternalError(f"{len(vecs)} cone kernel vectors for {len(forms)} forms over {3 * nn} unknowns")
    return tuple(vecs)


def cone_stabilizer_dim(n) -> int:
    """Faithful-quotient dimension (3n^2 + n - 2)/2 of the algebra
    preserving the cone over the unit tensor and W; the gl^3-level kernel
    is two bigger.  By the module's lemma ``_cone_forms`` has rank
    |U| + n - 1, read off ``_unit_forced`` with no elimination."""
    return 3 * check_n(n) * n - len(_unit_forced(n)[1]) - (n - 1) - ACTION_KERNEL_DIM


@dataclass(frozen=True)
class StructureReport:
    n: int
    dim_full: int
    dim_quotient: int
    kernel: tuple[tuple[tuple[int, int], ...], ...]  # the basis as sorted (LieTriple.flat position, value) pairs
    triangular_ok: bool
    trace_ok: bool
    violations: tuple[str, ...]

    @property
    def passes(self):
        return self.triangular_ok and self.trace_ok

    @cached_property
    def basis(self) -> tuple[LieTriple, ...]:
        """The kernel vectors as LieTriples, expanded when first read."""
        dense = lambda v: [v.get(c, 0) for c in range(3 * self.n * self.n)]
        return tuple(LieTriple.from_flat(self.n, dense(dict(pairs))) for pairs in self.kernel)

    def to_json(self):
        return {
            "n": self.n,
            "dim_full": self.dim_full,
            "dim_quotient": self.dim_quotient,
            "basis_size": len(self.kernel),
            "triangular_ok": self.triangular_ok,
            "trace_ok": self.trace_ok,
            "violations": list(self.violations),
        }


def cone_stabilizer_structure(n) -> StructureReport:
    """Canonical basis of the cone stabilizer plus the structural checks:
    x lower-triangular, y and z upper-triangular, and the diagonal sums
    x_ss + y_ss + z_ss constant across s for every basis element, read off
    the sparse (position, value) pairs that ``_cone_kernel`` builds."""
    nn = check_n(n) * n
    vecs = _cone_kernel(n)
    violations = []
    triangular_ok = trace_ok = True
    for b_idx, v in enumerate(vecs):
        sums = dict.fromkeys(range(0, nn, n + 1), 0)  # x_ss + y_ss + z_ss by diagonal position
        bad = set()  # x_pq must vanish for q > p, y_pq and z_pq for q < p
        for c, a in v:
            if c % nn in sums:
                sums[c % nn] += a
            elif (c % n > c % nn // n) == (c < nn):
                bad.add((c % nn, "x", "above") if c < nn else (c % nn, "y/z", "below"))
        for c, m, side in sorted(bad):
            violations.append(f"basis[{b_idx}]: {m}[{c // n + 1}][{c % n + 1}] nonzero {side} diagonal")
        triangular_ok = triangular_ok and not bad
        if len(set(sums.values())) > 1:
            violations.append(f"basis[{b_idx}]: diagonal sums not constant")
            trace_ok = False
    return StructureReport(
        n=n,
        dim_full=len(vecs),
        dim_quotient=len(vecs) - ACTION_KERNEL_DIM,
        kernel=vecs,
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
    """Projective dimension of the tangent space, at a point unit + w (w on
    the staircase support W), of the orbit of the cone: rank of
    act(gl^3, unit + w) + <unit, W> minus one.

    The rank is |W| plus the rank of the coordinate forms outside W, with
    one extra unknown for the unit tensor at the diagonal; by the module's
    lemma that rank is |U| + n at every point unit + w, so the value is
    |W| + |U| + n - 1, read off ``_unit_forced`` (which checks H1 and H2)
    with no elimination.  ``seed`` only names the point, and ``attempts``
    is (seed, value)."""
    size, forced = _unit_forced(n)
    value = size + len(forced) + n - 1
    return TangentReport(n=n, value=value, expected=qmax_dimension_bound(n), attempts=((seed, value),))


def qmax_dimension_bound(n) -> int:
    """Closed form (2n^3 + 3n^2 - 2n - 3)/3: the lower bound on the
    projective dimension of the closure of the maximal border subrank
    locus.  The numerator is divisible by 3 for every n >= 1."""
    num = 2 * check_n(n) ** 3 + 3 * n**2 - 2 * n - 3
    if num % 3:
        raise InternalError(f"bound numerator {num} not divisible by 3")
    return num // 3
