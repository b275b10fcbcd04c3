"""Nullcone membership for coordinate subspaces, certificate synthesis, and
enumeration of maximal nullcone components.

A support S lies in the nullcone of the unit tensor's symmetry group iff
some integer cocharacter gives every triple of S a strictly positive
weight; with nu eliminated through nu_i = -lambda_i - mu_i this is the
exact linear system

    lambda_i + mu_j - lambda_k - mu_k >= 1   for every (i, j, k) in S

over 2n rational unknowns, solved here by an exact phase-1 simplex.  The
certificate returned is the solution scaled to a primitive integer vector;
its validity is re-checked on every return, not just in tests.

Enumeration of maximal feasible supports runs a depth-first search over
triples (in lexicographic order, in-branch first) where excluded triples
contribute "weight <= 0" constraints.  Three facts make it complete and
fast:

* feasibility is downward closed, so a triple that cannot join the current
  set can never join any superset;
* every maximal feasible support equals the positive support of each of its
  certificates, so "S stays feasible with t forced nonpositive" failing
  means t belongs to every maximal extension (forced-in propagation);
* a node whose whole remaining candidate pool is contained in an already
  recorded maximal support cannot produce a new one (domination pruning,
  using downward closure again).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import gcd, lcm

from .errors import CapExceededError, InternalError, InvalidValueError, PreconditionError
from .simplex import feasible_point
from .tensors import Support
from .weights import TorusWeight, weight_of

#: component enumeration is complete up to this format; beyond it the tool
#: refuses unless best-effort mode is requested
ENUMERATION_CAP = 3


@dataclass(frozen=True)
class FeasibilityOutcome:
    feasible: bool
    certificate: TorusWeight | None = None

    def to_json(self):
        out = {"feasible": self.feasible}
        if self.certificate is not None:
            out["certificate"] = self.certificate.to_json()
        return out


def _row(n, triple):
    """Constraint row of (i,j,k) over the free variables.

    With nu eliminated (nu_i = -lambda_i - mu_i) the weight of (i,j,k) is
    lambda_i + mu_j - lambda_k - mu_k, which is invariant under constant
    shifts of lambda and of mu; the gauge lambda_n = mu_n = 0 removes that
    freedom, leaving 2(n-1) variables."""
    i, j, k = triple
    row = [0] * (2 * (n - 1))
    if i < n:
        row[i - 1] += 1
    if k < n:
        row[k - 1] -= 1
        row[n - 1 + k - 1] -= 1
    if j < n:
        row[n - 1 + j - 1] += 1
    return row


def _certificate_from_point(n, x):
    """Primitive integer cocharacter from a rational gauge-fixed point.

    Scaling by the positive lcm of denominators keeps every weight >= 1
    (they were >= 1 and scale by the same factor); dividing by the gcd of
    all entries keeps weights integral and >= 1 as well, since each weight
    is then a positive multiple of the gcd."""
    den = 1
    for v in x:
        den = lcm(den, Fraction(v).denominator)
    lam = [int(Fraction(v) * den) for v in x[: n - 1]] + [0]
    mu = [int(Fraction(v) * den) for v in x[n - 1 :]] + [0]
    nu = [-a - b for a, b in zip(lam, mu)]
    g = 0
    for v in lam + mu + nu:
        g = gcd(g, v)
    if g > 1:
        lam = [v // g for v in lam]
        mu = [v // g for v in mu]
        nu = [v // g for v in nu]
    return TorusWeight(n, tuple(lam), tuple(mu), tuple(nu))


def _solve_system(n, ins, outs):
    """Exact feasibility of {weight >= 1 on ins, weight <= 0 on outs}.

    Returns (feasible, certificate-or-None); the certificate satisfies both
    constraint families."""
    for (i, j, k) in ins:
        if i == j == k:
            return False, None
    constraints = [(_row(n, t), 1) for t in sorted(ins)]
    constraints += [([-c for c in _row(n, t)], 0) for t in sorted(outs)]
    x = feasible_point(2 * (n - 1), constraints)
    if x is None:
        return False, None
    cert = _certificate_from_point(n, x)
    for t in ins:
        if weight_of(cert, t) < 1:
            raise InternalError(f"certificate violates weight >= 1 at {t}")
    for t in outs:
        if weight_of(cert, t) > 0:
            raise InternalError(f"certificate violates weight <= 0 at {t}")
    return True, cert


def nullcone_feasible(S: Support) -> FeasibilityOutcome:
    """Decide nullcone membership of the coordinate subspace spanned by S.

    Empty supports are trivially feasible (zero cocharacter); any support
    containing a diagonal triple is infeasible since diagonal weights
    vanish identically."""
    ok, cert = _solve_system(S.n, S.sorted_triples(), ())
    return FeasibilityOutcome(ok, cert)


def is_maximal_nullcone_support(S: Support):
    """(maximal?, extendable triples).  Requires S itself feasible."""
    base = nullcone_feasible(S)
    if not base.feasible:
        raise PreconditionError("support is not in the nullcone; maximality is undefined")
    extendable = []
    for t in product(range(1, S.n + 1), repeat=3):
        if t in S:
            continue
        if _solve_system(S.n, sorted(S.triples | {t}), ())[0]:
            extendable.append(t)
    return len(extendable) == 0, extendable


@dataclass(frozen=True)
class ComponentEnumeration:
    n: int
    complete: bool
    components: tuple[Support, ...]

    def to_json(self):
        return {
            "n": self.n,
            "complete": self.complete,
            "components": [s.to_json() for s in self.components],
        }


def _enumerate(n, universe):
    """The maximal feasible supports over universe, as sorted triple tuples."""
    found = {}
    cache = {}

    def system(i, o):
        key = (i, o)
        hit = cache.get(key)
        if hit is None:
            hit = _solve_system(n, sorted(i), sorted(o))
            cache[key] = hit
        return hit

    def dfs(ins, outs, undecided):
        ok, cert = system(ins, outs)
        if not ok:
            return
        undecided = list(undecided)
        # propagation to a fixpoint; cert stays valid because each forced
        # decision lands on the side cert already satisfies
        changed = True
        while changed:
            changed = False
            for c in list(undecided):
                if weight_of(cert, c) >= 1:
                    if not system(ins, outs | {c})[0]:
                        ins = ins | {c}
                        undecided.remove(c)
                        changed = True
                else:
                    if not system(ins | {c}, outs)[0]:
                        outs = outs | {c}
                        undecided.remove(c)
                        changed = True
        pool = ins | frozenset(undecided)
        if any(pool <= m for m in found.values()):
            return
        if not undecided:
            for t in universe:
                if t not in ins and system(ins | {t}, frozenset())[0]:
                    return  # feasible but not maximal
            found[tuple(sorted(ins))] = ins
            return
        c = undecided[0]
        rest = undecided[1:]
        dfs(ins | {c}, outs, rest)
        dfs(ins, outs | {c}, rest)

    dfs(frozenset(), frozenset(), tuple(universe))
    return list(found)


def enumerate_maximal_components(n, best_effort=False) -> ComponentEnumeration:
    """All maximal supports inside the nullcone, canonically ordered.

    Complete (and asserted so) for n <= ENUMERATION_CAP; beyond the cap the
    search is refused unless best_effort is set, in which case the result
    is flagged complete=False.  Diagonal triples never occur (their weight
    is identically zero) so the search ranges over the off-diagonal cube.
    """
    if n < 1:
        raise InvalidValueError("n must be positive")
    complete = n <= ENUMERATION_CAP
    if not complete and not best_effort:
        raise CapExceededError(
            f"complete enumeration is configured up to n={ENUMERATION_CAP}; "
            "pass best_effort to search anyway"
        )
    universe = [t for t in product(range(1, n + 1), repeat=3) if not (t[0] == t[1] == t[2])]
    comps = [Support.of(n, ts) for ts in _enumerate(n, universe)]
    comps.sort(key=lambda s: (-len(s), s.sorted_triples()))
    return ComponentEnumeration(n, complete, tuple(comps))
