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
contribute "weight <= 0" constraints.  These facts make it complete and
fast:

* feasibility is downward closed, so a triple that cannot join the current
  set can never join any superset;
* every maximal feasible support equals the positive support of each of its
  certificates, so "S stays feasible with t forced nonpositive" failing
  means t belongs to every maximal extension (forced-in propagation);
* a node whose whole remaining candidate pool is contained in an already
  recorded maximal support cannot produce a new one (domination pruning,
  using downward closure again).

Most of the questions the search asks are answered by a certificate
already in hand; the LP runs only when none decides.  Each answer so
reused rests on a certificate checked in exact integers:

* carried certificates: a node keeps the verified certificates whose
  positive supports P satisfy its constraints (ins within P, outs outside
  P).  "Can c join?" is yes when some P holds c, and "can c stay out?" when
  some P misses c; a triple held both ways stays undecided with no LP.  A
  forced triple lands on the side every solution takes, so the list stays
  valid through propagation; a child inherits the members that agree with
  its branch, and every feasible LP answer joins the list;
* Farkas cores: an infeasible LP returns multipliers y >= 0 with
  y^T A = 0 and y^T b > 0 (checked by the simplex); the rows with y_r > 0
  name a core (I, O), and every system with ins containing I and outs
  containing O is infeasible by the same y.  The core is recorded with its
  orbit under the symmetry group below: were some c a solution at an
  image (g(I), g(O)), g^-1 c would be one at (I, O);
* orbit closure: feasibility is invariant under relabelling the indices
  diagonally (S_n) and permuting the three slots (S_3), the group
  ``tensors.Symmetry``, and a certificate maps along, so a recorded
  component is recorded with its whole orbit, each image with its
  transformed certificate, re-checked to be >= 1 on the image and <= 0
  off it.  Found components then answer feasibility (ins within M, outs
  outside M) and prune by domination sooner;
* an index of found components: each triple keeps a bitmask of the
  components holding it, so "some M with ins within M and outs outside M"
  is an AND over ins and an AND-NOT over outs, its lowest bit the first
  such M found, and domination is an AND over the candidate pool;
* orbit-representative pruning: order supports by their in/out vectors
  over the triple order, "in" above "out", so the leader (largest member)
  of an orbit is the member the in-first search meets first.  Compare a
  node's vector with its image under a symmetry g, position by position,
  up to the first position undecided on either side.  If the first
  difference has "in" in the image and "out" in the node, g maps every
  completion of the node to a larger set, so none is a leader and the
  node is cut.  Every leader is still reached, and recording it adds its
  whole orbit.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from itertools import product
from math import gcd

from .errors import CapExceededError, InternalError, InvalidValueError, PreconditionError
from .simplex import phase_one
from .tensors import Support, Symmetry
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
    """Primitive integer cocharacter from the integer numerators x of a
    gauge-fixed point x / den, den > 0.

    Taking the numerators scales every weight by den, so weights >= 1 stay
    >= 1 and weights <= 0 stay <= 0; dividing by the gcd of all entries
    keeps weights integral and >= 1 as well, since each weight is then a
    positive multiple of the gcd."""
    lam = x[: n - 1] + [0]
    mu = x[n - 1 :] + [0]
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

    Returns (certificate, None) when feasible, the certificate satisfying
    both constraint families, and (None, (I, O)) when not: I within ins and
    O within outs are the triples whose rows carry a positive Farkas
    multiplier, so every system containing them is infeasible too."""
    for t in ins:
        if t[0] == t[1] == t[2]:
            return None, (frozenset([t]), frozenset())
    ins = sorted(ins)
    outs = sorted(outs)
    constraints = [(_row(n, t), 1) for t in ins]
    constraints += [([-c for c in _row(n, t)], 0) for t in outs]
    point, y = phase_one(2 * (n - 1), constraints)
    if point is None:
        core_in = frozenset(t for t, v in zip(ins, y) if v)
        core_out = frozenset(t for t, v in zip(outs, y[len(ins):]) if v)
        return None, (core_in, core_out)
    cert = _certificate_from_point(n, point[0])
    for t in ins:
        if weight_of(cert, t) < 1:
            raise InternalError(f"certificate violates weight >= 1 at {t}")
    for t in outs:
        if weight_of(cert, t) > 0:
            raise InternalError(f"certificate violates weight <= 0 at {t}")
    return cert, None


def nullcone_feasible(S: Support) -> FeasibilityOutcome:
    """Decide nullcone membership of the coordinate subspace spanned by S.

    Empty supports are trivially feasible (zero cocharacter); any support
    containing a diagonal triple is infeasible since diagonal weights
    vanish identically."""
    cert, _ = _solve_system(S.n, S.triples, ())
    return FeasibilityOutcome(cert is not None, cert)


def is_maximal_nullcone_support(S: Support):
    """(maximal?, extendable triples).  Requires S itself feasible.

    A triple of positive weight under the base certificate, or under one
    returned for an earlier extension, extends S with no further LP."""
    base = nullcone_feasible(S)
    if not base.feasible:
        raise PreconditionError("support is not in the nullcone; maximality is undefined")
    certs = [base.certificate]
    extendable = []
    for t in product(range(1, S.n + 1), repeat=3):
        if t in S:
            continue
        if any(weight_of(c, t) >= 1 for c in certs):
            extendable.append(t)
            continue
        cert, _ = _solve_system(S.n, S.triples | {t}, ())
        if cert is not None:
            extendable.append(t)
            certs.append(cert)
    return len(extendable) == 0, extendable


def _position_maps(n, universe):
    """For every g in S_n x S_3 but the identity, the position of g(t) for
    each position t of universe; the group holds each inverse, so these
    are also the maps t -> g^-1(t)."""
    index = {t: a for a, t in enumerate(universe)}
    return [[index[g(t)] for t in universe] for g in Symmetry.all(n)[1:]]


def _not_leader(state, maps):
    """True when some map sends every completion of state (True for in,
    False for out, None for undecided) to a larger in/out vector, "in"
    above "out": up to the first position undecided on either side, the
    first difference has "in" in the image and "out" in state."""
    for m in maps:
        for a, s in zip(state, m):
            b = state[s]
            if a is None or b is None:
                break
            if a != b:
                if b:
                    return True
                break
    return False


def _symmetric_images(n, triples, cert):
    """(image support, image certificate) under each element g of
    S_n x S_3.  g moves the certificate's vectors as it moves the slots and
    indices of a triple, so the image certificate certifies the image
    support."""
    vectors = (cert.lam, cert.mu, cert.nu)
    for g in Symmetry.all(n):
        yield frozenset(map(g, triples)), TorusWeight(n, *g.on_vectors(vectors))


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
    """The maximal feasible supports over universe, as frozensets."""
    hits = []  # (support, verified certificate) of each found component, in order
    found = set()  # the supports of hits
    holders = dict.fromkeys(universe, 0)  # triple t -> bitmask of the hits whose support holds t
    in_cores = defaultdict(list)  # triple t -> Farkas cores (I, O) with t in I
    out_cores = defaultdict(list)  # triple t -> Farkas cores (I, O) with t in O

    maps = _position_maps(n, universe)
    moves = [dict(zip(universe, [universe[s] for s in m])) for m in maps]  # the same maps on triples

    def positive(cert):
        return frozenset(t for t in universe if weight_of(cert, t) >= 1)

    def holding(ins, outs=()):
        """Bitmask of the hits whose support holds ins and misses outs."""
        mask = (1 << len(hits)) - 1
        for t in ins:
            mask &= holders[t]
        for t in outs:
            mask &= ~holders[t]
        return mask

    def extend(ins, outs, c, inside):
        """(P, certificate) for the system with c added to ins (inside) or
        to outs, or None when it is infeasible.  Assumes (ins, outs) is
        feasible, so a core that applies must contain c."""
        if inside:
            ins = ins | {c}
        else:
            outs = outs | {c}
        for I, O in (in_cores if inside else out_cores)[c]:
            if I <= ins and O <= outs:
                return None
        mask = holding(ins, outs)
        if mask:
            return hits[(mask & -mask).bit_length() - 1]
        cert, core = _solve_system(n, ins, outs)
        if cert is None:
            I, O = core
            images = ((frozenset(map(g.__getitem__, I)), frozenset(map(g.__getitem__, O))) for g in moves)
            for core in dict.fromkeys([core, *images]):
                for t in core[0]:
                    in_cores[t].append(core)
                for t in core[1]:
                    out_cores[t].append(core)
            return None
        return positive(cert), cert

    def record(ins, cert):
        for image, moved in _symmetric_images(n, ins, cert):
            if image in found:
                continue
            if positive(moved) != image:
                raise InternalError(f"moved certificate does not certify the image {sorted(image)}")
            bit = 1 << len(hits)
            for t in image:
                holders[t] |= bit
            hits.append((image, moved))
            found.add(image)

    def dfs(ins, outs, undecided, certs):
        # certs: (positive support, certificate) pairs satisfying (ins, outs);
        # each forced decision lands on the side all of them already take
        undecided = list(undecided)
        changed = True
        while changed:
            changed = False
            for c in list(undecided):
                held_in = held_out = False
                for P, _ in certs:
                    if c in P:
                        held_in = True
                    else:
                        held_out = True
                if held_in and held_out:
                    continue
                hit = extend(ins, outs, c, held_out)
                if hit is not None:
                    certs.append(hit)
                    continue
                if held_in:
                    ins = ins | {c}
                else:
                    outs = outs | {c}
                undecided.remove(c)
                changed = True
        if holding(ins.union(undecided)):
            return
        if _not_leader([True if t in ins else False if t in outs else None for t in universe], maps):
            return
        if not undecided:
            empty = frozenset()
            for t in universe:
                if t not in ins and extend(ins, empty, t, True) is not None:
                    return  # feasible but not maximal
            record(ins, certs[0][1])
            return
        c = undecided[0]
        rest = undecided[1:]
        dfs(ins | {c}, outs, rest, [h for h in certs if c in h[0]])
        dfs(ins, outs | {c}, rest, [h for h in certs if c not in h[0]])

    root, _ = _solve_system(n, (), ())
    dfs(frozenset(), frozenset(), tuple(universe), [(positive(root), root)])
    return [P for P, _ in hits]


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
