"""Membership in the GL^3-orbit of the unit tensor, decided exactly over Q.

A concise tensor lies in the orbit iff it decomposes as sum of u_s (x) v_s
(x) w_s with three bases, which slice algebra detects: pick an invertible
combination X0 of the first-slot slices S_i; the family N_i = S_i X0^{-1}
then consists of commuting matrices, each diagonalizable over C, exactly
when such a decomposition exists (conciseness makes the recovered first
factors a basis).  Diagonalizability over C is decided without leaving Q:
N is diagonalizable iff q(N) = 0 for q the squarefree part char(N)/gcd(char,
char') of its characteristic polynomial.

Verdicts: member / non_member are proofs; inconclusive is reserved for
slices that span only singular matrices, which a deterministic grid of
combinations establishes after the seeded attempts (possible even for
concise tensors, e.g. the alternating 3 x 3 x 3 tensor).  A member's slices
always span an invertible matrix, so members are never inconclusive.

Membership is equivalent to maximal *subrank*.  Tensors of maximal border
subrank can still be non-members -- degeneration is strictly weaker than
restriction here -- so a non_member verdict never contradicts a
degeneration certificate from bordersub.weights.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, product

from .errors import DimensionMismatchError, InvalidValueError
from .linalg import mat_inverse, mat_mul, rank_rational
from .tensors import NONZERO_SMALL, Tensor3

#: seeded random slice combinations tried after the basis slices
SLICE_COMBO_ATTEMPTS = 5


@dataclass(frozen=True)
class SliceFamily:
    """The n matrices obtained by contracting the first (or second) slot."""

    n: int
    slices: tuple[tuple[tuple[Fraction, ...], ...], ...]

    def __post_init__(self):
        if len(self.slices) != self.n or any(
            len(s) != self.n or any(len(row) != self.n for row in s) for s in self.slices
        ):
            raise InvalidValueError("need n slices of size n x n")


def slices_along_a(T: Tensor3) -> SliceFamily:
    """S_i[j][k] = T_{ijk}."""
    n = T.n
    mats = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
    for (i, j, k), c in T.entries.items():
        mats[i - 1][j - 1][k - 1] = c
    return SliceFamily(n, tuple(tuple(tuple(row) for row in m) for m in mats))


def slices_along_b(T: Tensor3) -> SliceFamily:
    """S_j[i][k] = T_{ijk}."""
    n = T.n
    mats = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
    for (i, j, k), c in T.entries.items():
        mats[j - 1][i - 1][k - 1] = c
    return SliceFamily(n, tuple(tuple(tuple(row) for row in m) for m in mats))


def _flattening_rows(T, slot):
    n = T.n
    rows = [[Fraction(0)] * (n * n) for _ in range(n)]
    for (i, j, k), c in T.entries.items():
        idx = (i, j, k)
        a = idx[slot] - 1
        rest = [v - 1 for s, v in enumerate(idx) if s != slot]
        rows[a][rest[0] * n + rest[1]] = c
    return rows


def is_concise(T: Tensor3) -> bool:
    """All three flattenings to n x n^2 matrices have full rank n."""
    return all(rank_rational(_flattening_rows(T, slot)) == T.n for slot in range(3))


def _char_poly(mat):
    """Characteristic polynomial det(x I - N) by the Faddeev-LeVerrier
    recurrence; exact over Q.  Returned as coefficient list, leading 1
    first."""
    n = len(mat)
    coeffs = [Fraction(1)]
    Mk = None
    ident = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for k in range(1, n + 1):
        if Mk is None:
            Mk = [row[:] for row in ident]
        else:
            AM = mat_mul(mat, Mk)
            Mk = [[AM[i][j] + (coeffs[-1] if i == j else 0) for j in range(n)] for i in range(n)]
        AM = mat_mul(mat, Mk)
        ck = -sum(AM[i][i] for i in range(n)) / k
        coeffs.append(ck)
    return coeffs


def _poly_deriv(p):
    deg = len(p) - 1
    return [c * (deg - i) for i, c in enumerate(p[:-1])]


def _poly_divmod(a, b):
    """Long division of leading-first coefficient lists; b[0] must be
    nonzero.  Returns (quotient, remainder-with-padding)."""
    a = list(a)
    if len(a) < len(b):
        return [], a
    out = []
    for shift in range(len(a) - len(b) + 1):
        f = a[shift] / b[0]
        out.append(f)
        if f:
            for i in range(len(b)):
                a[shift + i] -= f * b[i]
    return out, a[len(out):]


def _poly_gcd(a, b):
    a = [c for c in a]
    b = [c for c in b]
    while b and any(b):
        while b and b[0] == 0:
            b.pop(0)
        if not b:
            break
        _, r = _poly_divmod(a, b)
        a, b = b, r
    lead = next((c for c in a if c), None)
    if lead is None:
        return [Fraction(1)]
    i = next(i for i, c in enumerate(a) if c)
    return [c / lead for c in a[i:]]


def _is_diagonalizable(mat):
    """q(N) = 0 for q the squarefree part of the characteristic polynomial;
    equivalent to the minimal polynomial having no repeated roots."""
    p = _char_poly(mat)
    g = _poly_gcd(p, _poly_deriv(p))
    q, rem = _poly_divmod(p, g)
    if any(rem):
        raise AssertionError("char poly not divisible by gcd(p, p')")
    n = len(mat)
    acc = [[Fraction(0)] * n for _ in range(n)]
    for c in q:
        acc = mat_mul(acc, mat)
        for i in range(n):
            acc[i][i] += c
    return all(not v for row in acc for v in row)


def _commute(a, b):
    ab = mat_mul(a, b)
    ba = mat_mul(b, a)
    return all(ab[i][j] == ba[i][j] for i in range(len(a)) for j in range(len(a)))


@dataclass(frozen=True)
class OrbitVerdict:
    verdict: str  # "member" | "non_member" | "inconclusive"
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


def _invertible_combo(family: SliceFamily, seed, side):
    """An invertible linear combination of the slices, or (None, None) when
    the slices span only singular matrices.

    The basis slices come first, then seeded small nonzero-integer
    combinations, then the grid c_1 = 1, c_2..c_n in {0, ..., n} in
    lexicographic order.  det(sum c_s S_s) is a form f of degree n; if
    f is not identically zero then neither is f(1, .), whose degree in each
    variable is at most n, so by the grid lemma (Alon, Combinatorial
    Nullstellensatz, 1999) it is nonzero at some point of the grid."""
    n = family.n
    for s in family.slices:
        inv = mat_inverse([list(row) for row in s])
        if inv is not None:
            return s, inv
    rng = random.Random(f"bordersub:unit-orbit:{seed}:{side}")
    seeded = ([rng.choice(NONZERO_SMALL) for _ in range(n)] for _ in range(SLICE_COMBO_ATTEMPTS))
    grid = ((1,) + rest for rest in product(range(n + 1), repeat=n - 1))
    for t in chain(seeded, grid):
        combo = [[sum(Fraction(t[s]) * family.slices[s][i][j] for s in range(n)) for j in range(n)] for i in range(n)]
        inv = mat_inverse(combo)
        if inv is not None:
            return combo, inv
    return None, None


def _side_verdict(family: SliceFamily, seed, side):
    _, inv = _invertible_combo(family, seed, side)
    if inv is None:
        return OrbitVerdict(
            "inconclusive",
            reason="no invertible slice combination found within the retry budget",
            side=side,
        )
    mats = [mat_mul([list(map(Fraction, row)) for row in s], inv) for s in family.slices]
    for i in range(len(mats)):
        for j in range(i + 1, len(mats)):
            if not _commute(mats[i], mats[j]):
                return OrbitVerdict(
                    "non_member",
                    reason=f"slices {i + 1} and {j + 1} do not commute after normalization",
                    side=side,
                )
    for i, m in enumerate(mats):
        if not _is_diagonalizable(m):
            return OrbitVerdict(
                "non_member",
                reason=f"normalized slice {i + 1} is not diagonalizable (repeated minimal-polynomial root)",
                side=side,
            )
    return OrbitVerdict("member", side=side)


def unit_orbit_member(T: Tensor3, seed) -> OrbitVerdict:
    """Decide T in GL x GL x GL . (unit tensor), exactly.

    Order of business: conciseness (necessary), then the slice test on the
    first-slot family and, defensively, on the second-slot family; member
    requires both to pass."""
    if not is_concise(T):
        return OrbitVerdict("non_member", reason="not concise: some flattening has rank < n")
    for side, family in (("A", slices_along_a(T)), ("B", slices_along_b(T))):
        v = _side_verdict(family, seed, side)
        if v.verdict != "member":
            return v
    return OrbitVerdict("member")


def random_invertible(n, rng):
    """Small-integer invertible matrix, retried until nonsingular."""
    while True:
        m = [[Fraction(rng.randint(-2, 2)) for _ in range(n)] for _ in range(n)]
        if mat_inverse(m) is not None:
            return m


def gl_invariance_probe(n, cases, seed):
    """Verdict stability under base change: for seeded random tensors T and
    invertible triples g, unit_orbit_member(T) must equal
    unit_orbit_member(g . T) whenever neither is inconclusive.  Returns the
    list of disagreeing case indices (empty = pass)."""
    from .tensors import sample_coefficients, sample_support, tensor_from_support

    bad = []
    for case in range(cases):
        rng = random.Random(f"bordersub:glprobe:{seed}:{case}")
        sup = sample_support(n, (seed, case, "sup"), n**3)
        T = tensor_from_support(sup, sample_coefficients(sup, (seed, case)))
        gs = [random_invertible(n, rng) for _ in range(3)]
        v1 = unit_orbit_member(T, seed=case)
        v2 = unit_orbit_member(apply_gl(gs, T), seed=case)
        if "inconclusive" in (v1.verdict, v2.verdict):
            continue
        if v1.verdict != v2.verdict:
            bad.append(case)
    return bad


def apply_gl(gs, T: Tensor3) -> Tensor3:
    """Base change by a triple of invertible matrices (rows index the new
    basis): (g T)_{abc} = sum g1[a][i] g2[b][j] g3[c][k] T_{ijk}."""
    n = T.n
    g1, g2, g3 = gs
    for g in gs:
        if len(g) != n or any(len(row) != n for row in g):
            raise DimensionMismatchError("matrices must be n x n")
    out = {}
    for (i, j, k), c in T.entries.items():
        for a in range(1, n + 1):
            f1 = Fraction(g1[a - 1][i - 1])
            if not f1:
                continue
            for b in range(1, n + 1):
                f2 = Fraction(g2[b - 1][j - 1])
                if not f2:
                    continue
                for d in range(1, n + 1):
                    f3 = Fraction(g3[d - 1][k - 1])
                    if not f3:
                        continue
                    key = (a, b, d)
                    cur = out.get(key, Fraction(0)) + f1 * f2 * f3 * c
                    if cur:
                        out[key] = cur
                    else:
                        out.pop(key, None)
    return Tensor3(n, out)
