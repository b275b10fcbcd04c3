"""Monomials in the tensor coordinates x_{ijk} and their torus invariance.

A monomial is a finite multiset of triples (its exponent vector).  Under a
zero-sum diagonal cocharacter the monomial scales by minus the sum of its
factor weights, so it is invariant under the whole torus exactly when, for
every index value v, the number of factors carrying v in slot 1, slot 2 and
slot 3 agree ("balanced").  Invariant monomials supported inside a set S of
triples are precisely the obstructions to S lying in the nullcone; the
linear-feasibility route in bordersub.nullcone is the dual view.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, combinations_with_replacement

from ._kernels_py import balanced_exists
from .errors import InvalidValueError
from .tensors import Support, Triple

def duality_degree_cap(n):
    """Degree cap for the brute-force feasibility/invariant duality tests.

    Every minimal balanced multiset encountered at the formats the tests
    exercise (n <= 3) fits in 3n factors; this is a test-harness constant,
    not a structural bound on the invariant ring."""
    return 3 * n


@dataclass(frozen=True)
class Monomial:
    """Multiset of coordinate triples, stored sorted; degree >= 1."""

    n: int
    factors: tuple[Triple, ...]

    def __post_init__(self):
        factors = tuple(sorted(tuple(t) for t in self.factors))
        if not factors:
            raise InvalidValueError("monomials must have positive degree")
        for t in factors:
            if len(t) != 3 or not all(isinstance(v, int) and 1 <= v <= self.n for v in t):
                raise InvalidValueError(f"factor {t!r} outside [1, {self.n}]^3")
        object.__setattr__(self, "factors", factors)

    @property
    def degree(self):
        return len(self.factors)

    def to_json(self):
        return {"n": self.n, "factors": [list(t) for t in self.factors]}

    @classmethod
    def from_json(cls, obj):
        try:
            return cls(int(obj["n"]), tuple(tuple(int(v) for v in t) for t in obj["factors"]))
        except (KeyError, TypeError) as exc:
            raise InvalidValueError(f"malformed monomial JSON: {exc}") from exc


def _balanced(n, factors):
    counts = [[0] * (n + 1) for _ in range(3)]
    for t in factors:
        for s in range(3):
            counts[s][t[s]] += 1
    return all(
        counts[0][v] == counts[1][v] == counts[2][v] for v in range(1, n + 1)
    )


def is_torus_invariant(m: Monomial) -> bool:
    """True iff every index value occurs equally often in all three slots.

    The monomial's torus weight is -(sum of lambda_i + mu_j + nu_k over
    factors); with nu eliminated by the zero-sum rule the weight vanishes
    for all cocharacters exactly under the balance condition.
    """
    return _balanced(m.n, m.factors)


def generator_family(n) -> list[Monomial]:
    """The classical invariant families:

        x_iii                     (n of them)
        x_iij x_jji, x_iji x_jij, x_ijj x_jii      (3 per pair i < j)
        x_ijk x_jki x_kij         (2 per 3-subset: both cyclic orientations)

    in total n + 3 C(n,2) + 2 C(n,3) monomials, all torus invariant.
    """
    if n < 1:
        raise InvalidValueError("n must be positive")
    out = [Monomial(n, ((i, i, i),)) for i in range(1, n + 1)]
    for i, j in combinations(range(1, n + 1), 2):
        out.append(Monomial(n, ((i, i, j), (j, j, i))))
        out.append(Monomial(n, ((i, j, i), (j, i, j))))
        out.append(Monomial(n, ((i, j, j), (j, i, i))))
    for i, j, k in combinations(range(1, n + 1), 3):
        out.append(Monomial(n, ((i, j, k), (j, k, i), (k, i, j))))
        out.append(Monomial(n, ((i, k, j), (k, j, i), (j, i, k))))
    return out


def invariant_monomials_within(S: Support, max_degree) -> list[Monomial]:
    """All invariant monomials of degree <= max_degree with factors in S,
    in graded-lexicographic order (degree first, then factor tuples)."""
    if max_degree < 1:
        raise InvalidValueError("max_degree must be >= 1")
    triples = S.sorted_triples()
    out = []
    for d in range(1, max_degree + 1):
        for combo in combinations_with_replacement(triples, d):
            if _balanced(S.n, combo):
                out.append(Monomial(S.n, combo))
    return out


def has_invariant_monomial_within(S: Support, max_degree) -> bool:
    """Existence version of invariant_monomials_within; same predicate as
    "the listing is nonempty" but short-circuits, via the backend kernel."""
    if max_degree < 1:
        raise InvalidValueError("max_degree must be >= 1")
    return balanced_exists(S.n, S.sorted_triples(), max_degree)
