"""Membership in the GL^3-orbit of the unit tensor, decided exactly over Q.

A concise tensor lies in the orbit iff it decomposes as sum of u_s (x) v_s
(x) w_s with three bases, which slice algebra detects: pick an invertible
combination X of the first-slot slices S_i; the family N_i = S_i X^{-1}
then consists of commuting matrices, each diagonalizable over C, exactly
when such a decomposition exists (conciseness makes the recovered first
factors a basis).  Diagonalizability over C is decided without leaving Q,
by two integer ranks: N is diagonalizable iff dim Q[N] equals the number of
distinct eigenvalues of N, the rank of the Hankel matrix of its power sums.

All matrix arithmetic is fraction-free, on Python ints.  The slices are
cut from T's entries with their denominators cleared (a common scale
leaves N_i unchanged), candidates X are tested by Bareiss determinants,
and the test runs on M_i = S_i adj(X) = det(X) N_i: a common nonzero
scalar changes neither commuting nor diagonalizability, so the same pair
or slice fails first.

Only the first-slot slices are tested; a second-slot pass could not change
the verdict.  If the first-slot test passes, T_ijk = sum_s U_is V_js W_ks
with U, V, W invertible, so the second-slot slices are S'_j = U D_j W^T with
D_j = diag(V_j1, ..., V_jn).  An invertible combination is Y = U D W^T with
D = sum_j c_j D_j invertible, and the S'_j Y^{-1} = U D_j D^{-1} U^{-1}
commute and are diagonalizable; the grid below finds such a Y.

Verdicts: member and non_member, each a proof.  A member's first-slot
slices S_i = V diag(U_i1, ..., U_in) W^T span the invertible V W^T (take
c^T U = (1, ..., 1)), and the grid of combinations finds an invertible one
whenever the slices span one; so slices that span only singular matrices
prove non-membership (the concise alternating 3 x 3 x 3 tensor).

Membership is equivalent to maximal *subrank*.  Tensors of maximal border
subrank can still be non-members -- degeneration is strictly weaker than
restriction here -- so a non_member verdict never contradicts a
degeneration certificate from bordersub.weights.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, combinations, product
from math import gcd
from operator import mul

from .errors import DimensionMismatchError, InvalidValueError
from .linalg import rank_int
from .tensors import NONZERO_SMALL, Tensor3, check_n, integer_entries, rational

#: seeded random slice combinations tried after the basis slices
SLICE_COMBO_ATTEMPTS = 5


@dataclass(frozen=True)
class SliceFamily:
    """The n matrices obtained by contracting the first (or second) slot."""

    n: int
    slices: tuple[tuple[tuple[Fraction, ...], ...], ...]

    def __post_init__(self):
        if len(self.slices) != check_n(self.n) or any(
            len(s) != self.n or any(len(row) != self.n for row in s) for s in self.slices
        ):
            raise InvalidValueError("need n slices of size n x n")


def _slice_matrices(n, entries, slot, zero=0):
    """The n matrices of the entries {triple: value} with the index in
    `slot` fixed, indexed by the other two indices in order."""
    mats = [[[zero] * n for _ in range(n)] for _ in range(n)]
    for idx, c in entries.items():
        j, k = (v - 1 for s, v in enumerate(idx) if s != slot)
        mats[idx[slot] - 1][j][k] = c
    return mats


def _slices(T: Tensor3, slot) -> SliceFamily:
    mats = _slice_matrices(T.n, T.entries, slot, Fraction(0))
    return SliceFamily(T.n, tuple(tuple(tuple(row) for row in m) for m in mats))


def slices_along_a(T: Tensor3) -> SliceFamily:
    """S_i[j][k] = T_{ijk}."""
    return _slices(T, 0)


def slices_along_b(T: Tensor3) -> SliceFamily:
    """S_j[i][k] = T_{ijk}."""
    return _slices(T, 1)


def is_concise(T: Tensor3) -> bool:
    """All three flattenings to n x n^2 matrices have full rank n.

    A slot in which some index value carries no entry has a zero slice,
    which caps that flattening's rank below n; that is answered before any
    matrix is built."""
    if any(len({t[slot] for t in T.entries}) < T.n for slot in range(3)):
        return False
    n, entries = T.n, integer_entries(T)
    for slot in range(3):
        rows = [{} for _ in range(n)]
        for idx, c in entries.items():
            j, k = (v - 1 for s, v in enumerate(idx) if s != slot)
            rows[idx[slot] - 1][j * n + k] = c
        if rank_int(rows) < n:
            return False
    return True


def _mul(a, b):
    cols = list(zip(*b))
    return [[sum(map(mul, row, col)) for col in cols] for row in a]


def _bareiss(m, adjugate=False):
    """Fraction-free (Bareiss) elimination of a square integer matrix, every
    division exact: det(m), or with adjugate=True adj(m) = det(m) m^{-1} of
    an invertible m by Gauss-Jordan elimination of [m | I], which ends as
    [+-det(m) I | +-adj(m)] with the sign of the row permutation."""
    n = len(m)
    a = [list(row) + ([int(i == j) for j in range(n)] if adjugate else []) for i, row in enumerate(m)]
    sign, prev = 1, 1
    for k in range(n):
        p = next((i for i in range(k, n) if a[i][k]), None)
        if p is None:
            return 0
        if p != k:
            a[k], a[p] = a[p], a[k]
            sign = -sign
        ak, piv = a[k], a[k][k]
        for i in range(n) if adjugate else range(k + 1, n):
            if i != k:
                f = a[i][k]
                a[i] = [(piv * x - f * y) // prev for x, y in zip(a[i], ak)]
        prev = piv
    return [[sign * x for x in row[n:]] for row in a] if adjugate else sign * prev


def _is_diagonalizable(mat):
    """Whether the integer matrix M is diagonalizable over C, by two integer
    ranks.  The number d of distinct eigenvalues of M is the rank of the
    Hankel matrix of power sums [Tr(M^(i+j))] for i, j < n (Hermite's
    quadratic form; Basu, Pollack & Roy, Algorithms in Real Algebraic
    Geometry, 2006, ch. 4), and Tr(M^k) is read off two powers below M^n.
    The minimal polynomial has degree at least d, so I, M, ..., M^(d-1) are
    independent, and it is squarefree iff M^d depends on them.  M is first
    divided by the gcd of its entries, which changes neither rank."""
    n = len(mat)
    g = gcd(*chain(*mat))
    if g > 1:
        mat = [[x // g for x in row] for row in mat]
    powers = [[[int(i == j) for j in range(n)] for i in range(n)]]
    while len(powers) < n:
        powers.append(_mul(powers[-1], mat))
    sums = []
    for k in range(2 * n - 1):
        a = min(k, n - 1)
        sums.append(sum(map(mul, chain(*powers[a]), chain(*zip(*powers[k - a])))))
    distinct = rank_int([dict(enumerate(sums[i : i + n])) for i in range(n)])
    return distinct == n or rank_int([dict(enumerate(chain(*p))) for p in powers[: distinct + 1]]) == distinct


@dataclass(frozen=True)
class OrbitVerdict:
    verdict: str  # "member" | "non_member"
    reason: str | None = None
    side: str | None = None

    def to_json(self):
        out = {"verdict": self.verdict}
        if self.reason is not None:
            witness = {"explanation": self.reason}
            if self.side is not None:
                witness["side"] = self.side
            out["witness"] = witness
        return out


def _invertible_combo(slices, seed, side):
    """The first linear combination of the integer slices with a nonzero
    determinant, or None when the slices span only singular matrices.

    The basis slices come first, then seeded small nonzero-integer
    combinations, then the grid c_1 = 1, c_2..c_n in {0, ..., n} in
    lexicographic order.  det(sum c_s S_s) is a form f of degree n; if
    f is not identically zero then neither is f(1, .), whose degree in each
    variable is at most n, so by the grid lemma (Alon, Combinatorial
    Nullstellensatz, 1999) it is nonzero at some point of the grid."""
    n = len(slices)
    for s in slices:
        if _bareiss(s):
            return s
    rng = random.Random(f"bordersub:unit-orbit:{seed}:{side}")
    seeded = ([rng.choice(NONZERO_SMALL) for _ in range(n)] for _ in range(SLICE_COMBO_ATTEMPTS))
    grid = ((1,) + rest for rest in product(range(n + 1), repeat=n - 1))
    entries = [[[s[i][j] for s in slices] for j in range(n)] for i in range(n)]
    for t in chain(seeded, grid):
        combo = [[sum(map(mul, t, e)) for e in row] for row in entries]
        if _bareiss(combo):
            return combo
    return None


def _side_verdict(T: Tensor3, seed, side):
    """The slice test on the slices of T along `side` ("A" or "B")."""
    slices = _slice_matrices(T.n, integer_entries(T), "AB".index(side))
    combo = _invertible_combo(slices, seed, side)
    if combo is None:
        return OrbitVerdict("non_member", "slices span only singular matrices (grid of (n+1)^(n-1) points)", side)
    adj = _bareiss(combo, adjugate=True)
    mats = [_mul(s, adj) for s in slices]  # det(combo) times the normalized slices
    for i, j in combinations(range(len(mats)), 2):
        if _mul(mats[i], mats[j]) != _mul(mats[j], mats[i]):
            return OrbitVerdict("non_member", f"slices {i + 1} and {j + 1} do not commute after normalization", side)
    for i, m in enumerate(mats):
        if not _is_diagonalizable(m):
            reason = f"normalized slice {i + 1} is not diagonalizable (repeated minimal-polynomial root)"
            return OrbitVerdict("non_member", reason, side)
    return OrbitVerdict("member", side=side)


def unit_orbit_member(T: Tensor3, seed) -> OrbitVerdict:
    """Decide T in GL x GL x GL . (unit tensor), exactly.

    Order of business: conciseness (necessary), then the slice test on the
    first-slot family; the module docstring shows why the second-slot family
    would always agree."""
    if not is_concise(T):
        return OrbitVerdict("non_member", reason="not concise: some flattening has rank < n")
    v = _side_verdict(T, seed, "A")
    return OrbitVerdict("member") if v.verdict == "member" else v


def random_invertible(n, rng):
    """Small-integer invertible matrix, retried until nonsingular."""
    while True:
        m = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
        if _bareiss(m):
            return [[Fraction(x) for x in row] for row in m]


def gl_invariance_probe(n, cases, seed):
    """Verdict stability under base change: for seeded random tensors T and
    invertible triples g, unit_orbit_member(T) must equal
    unit_orbit_member(g . T).  Returns the list of disagreeing case indices
    (empty = pass)."""
    from .tensors import sample_coefficients, sample_support, tensor_from_support

    bad = []
    for case in range(cases):
        rng = random.Random(f"bordersub:glprobe:{seed}:{case}")
        sup = sample_support(n, (seed, case, "sup"), n**3)
        T = tensor_from_support(sup, sample_coefficients(sup, (seed, case)))
        gs = [random_invertible(n, rng) for _ in range(3)]
        v1 = unit_orbit_member(T, seed=case)
        v2 = unit_orbit_member(apply_gl(gs, T), seed=case)
        if v1.verdict != v2.verdict:
            bad.append(case)
    return bad


def apply_gl(gs, T: Tensor3) -> Tensor3:
    """Base change by a triple of invertible matrices (rows index the new
    basis): (g T)_{abc} = sum g1[a][i] g2[b][j] g3[c][k] T_{ijk}."""
    n = T.n
    for g in gs:
        if len(g) != n or any(len(row) != n for row in g):
            raise DimensionMismatchError("matrices must be n x n")
    g1, g2, g3 = ([[rational(x) for x in row] for row in g] for g in gs)
    out = {}
    for (i, j, k), c in T.entries.items():
        for a in range(1, n + 1):
            f1 = g1[a - 1][i - 1]
            if not f1:
                continue
            for b in range(1, n + 1):
                f2 = g2[b - 1][j - 1]
                if not f2:
                    continue
                for d in range(1, n + 1):
                    f3 = g3[d - 1][k - 1]
                    if not f3:
                        continue
                    key = (a, b, d)
                    cur = out.get(key, Fraction(0)) + f1 * f2 * f3 * c
                    if cur:
                        out[key] = cur
                    else:
                        out.pop(key, None)
    return Tensor3(n, out)
