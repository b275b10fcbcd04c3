"""Monomials in the tensor coordinates x_{ijk} and their torus invariance.

A monomial is a finite multiset of triples (its exponent vector).  Under a
zero-sum diagonal cocharacter the monomial scales by minus the sum of its
factor weights, so it is invariant under the whole torus exactly when, for
every index value v, the number of factors carrying v in slot 1, slot 2 and
slot 3 agree ("balanced").  Invariant monomials supported inside a set S of
triples are precisely the obstructions to S lying in the nullcone; the
linear-feasibility route in bordersub.nullcone is the dual view.

``balanced_exists`` is the existence search on plain index triples behind
``has_invariant_monomial_within``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, combinations_with_replacement

from .errors import InvalidValueError
from .tensors import Support, Triple, _check_triple, check_n, json_int


def duality_degree_cap(n):
    """Degree cap for the brute-force feasibility/invariant duality tests.

    Every minimal balanced multiset encountered at the formats the tests
    exercise (n <= 3) fits in 3n factors; this is a test-harness constant,
    not a structural bound on the invariant ring."""
    return 3 * check_n(n)


@dataclass(frozen=True)
class Monomial:
    """Multiset of coordinate triples, stored sorted; degree >= 1."""

    n: int
    factors: tuple[Triple, ...]

    def __post_init__(self):
        check_n(self.n)
        factors = tuple(sorted(_check_triple(self.n, tuple(t)) for t in self.factors))
        if not factors:
            raise InvalidValueError("monomials must have positive degree")
        object.__setattr__(self, "factors", factors)

    @property
    def degree(self):
        return len(self.factors)

    def to_json(self):
        return {"n": self.n, "factors": [list(t) for t in self.factors]}

    @classmethod
    def from_json(cls, obj):
        try:
            return cls(json_int(obj["n"]), tuple(tuple(json_int(v) for v in t) for t in obj["factors"]))
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
    out = [Monomial(n, ((i, i, i),)) for i in range(1, check_n(n) + 1)]
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
    if json_int(max_degree) < 1:
        raise InvalidValueError("max_degree must be >= 1")
    triples = S.sorted_triples()
    out = []
    for d in range(1, max_degree + 1):
        for combo in combinations_with_replacement(triples, d):
            if _balanced(S.n, combo):
                out.append(Monomial(S.n, combo))
    return out


def balanced_exists(n, triples, max_degree):
    """Is there a nonempty multiset of the given triples, of size at most
    max_degree, whose three slot-wise value counts agree for every value?

    Such a multiset is exactly the exponent vector of a monomial in the
    coordinates x_{ijk} killed by every zero-sum diagonal one-parameter
    subgroup.  DFS over multiplicities with two prunes: the final size is at
    least sum_v max_slot_count(v), and a slot deficit for a value must be
    fillable by some remaining triple.

    Skipping a triple changes no count, so a node skips ahead in a loop, up
    to the first position past which some deficit can no longer be filled,
    and recurses only to use a triple: the depth stays within
    max_degree + 1 however many triples there are.  The positions are tried
    last-first, the order of one recursion per skip.
    """
    m = len(triples)
    if m == 0:
        return False
    cnt = [[0, 0, 0] for _ in range(n + 1)]  # cnt[v][s]: factors with v in slot s
    # last_s[v]: the last position whose triple carries v in slot s, or -1
    last0, last1, last2 = ([-1] * (n + 1) for _ in range(3))
    for idx, (i, j, k) in enumerate(triples):
        last0[i] = last1[j] = last2[k] = idx

    def rec(idx, deg):
        lower = 0
        end = m
        balanced = True
        for v in range(1, n + 1):
            c0, c1, c2 = cnt[v]
            if c0 == c1 == c2:
                lower += c0
                continue
            balanced = False
            top = max(c0, c1, c2)
            lower += top
            if c0 < top and last0[v] < end:
                end = last0[v] + 1
            if c1 < top and last1[v] < end:
                end = last1[v] + 1
            if c2 < top and last2[v] < end:
                end = last2[v] + 1
        if balanced and deg >= 1:
            return True
        if lower > max_degree:
            return False
        for k in range(end - 1, idx - 1, -1):
            t = triples[k]
            used = 0
            while deg + used < max_degree:
                used += 1
                for s in range(3):
                    cnt[t[s]][s] += 1
                if rec(k + 1, deg + used):
                    for s in range(3):
                        cnt[t[s]][s] -= used
                    return True
            for s in range(3):
                cnt[t[s]][s] -= used
        return False

    return rec(0, 0)


def has_invariant_monomial_within(S: Support, max_degree) -> bool:
    """Existence version of invariant_monomials_within; same predicate as
    "the listing is nonempty" but short-circuits, via balanced_exists."""
    if json_int(max_degree) < 1:
        raise InvalidValueError("max_degree must be >= 1")
    return balanced_exists(S.n, S.sorted_triples(), max_degree)
