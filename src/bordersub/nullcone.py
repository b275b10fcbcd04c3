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

* known supports: the positive support P of every verified certificate
  the search meets (each feasible LP answer and each recorded component)
  is kept in one index, where each triple has a bitmask of the P holding
  it.  The P with ins within P and outs outside P are an AND over ins and
  an AND-NOT over outs; each is a certificate of that node.  "Can c
  join?" is yes when one of them holds c, and "can c stay out?" when one
  misses c; a triple held both ways stays undecided with no LP.  A forced
  triple lands on the side every solution takes, so the node's set stays
  valid through propagation.  The components among the P prune by
  domination, an AND over the candidate pool;
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
  off it.  Core images, component images and the pruning below all read
  one table of the group's maps on triples, built once per search;
* orbit-representative pruning: order supports by their in/out vectors
  over the triple order, "in" above "out", so the leader (largest member)
  of an orbit is the member the in-first search meets first.  Compare a
  node's vector with its image under a symmetry g, position by position,
  up to the first position undecided on either side.  If the first
  difference has "in" in the image and "out" in the node, g maps every
  completion of the node to a larger set, so none is a leader and the
  node is cut.  Every leader is still reached, and recording it adds its
  whole orbit;
* node dictionaries: an LP the search does run is not solved from the
  artificial basis.  Each node keeps a solved, feasible phase-1
  dictionary (``simplex.Dictionary``) of some of its rows, the root's
  holding none, and the rows decided since.  When the node needs an LP,
  a copy of its dictionary first takes those rows and is solved, and
  becomes the node's; the question is then a further copy with the one
  row of c added, and its Farkas core is read off y over that copy's
  rows.  A child starts from its parent's dictionary.  The maximality
  check at a leaf asks about ins alone, so it starts from the root's.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from itertools import product
from math import gcd

from .errors import CapExceededError, InternalError, PreconditionError
from .simplex import Dictionary, phase_one
from .tensors import Support, Symmetry, check_n
from .weights import TorusWeight, _positive

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
    return TorusWeight._made(n, tuple(lam), tuple(mu), tuple(nu))


def _constraint(n, t, inside):
    """The simplex row of weight >= 1 at t (inside) or weight <= 0."""
    row = _row(n, t)
    return (row, 1) if inside else ([-c for c in row], 0)


def _outcome(n, rows, result):
    """Read a simplex result over rows, (triple, inside) pairs in row order.

    Returns (certificate, None) when feasible, the certificate re-checked
    to be >= 1 on the inside triples and <= 0 on the others, and
    (None, (I, O)) when not: I and O are the inside and outside triples
    whose rows carry a positive Farkas multiplier, so every system
    containing them is infeasible too."""
    point, y = result
    if point is None:
        core_in = frozenset(t for (t, inside), v in zip(rows, y) if v and inside)
        core_out = frozenset(t for (t, inside), v in zip(rows, y) if v and not inside)
        return None, (core_in, core_out)
    cert = _certificate_from_point(n, point[0])
    positive = _positive(cert, [t for t, _ in rows])
    for t, inside in rows:
        if (t in positive) != inside:
            raise InternalError(f"certificate violates weight {'>= 1' if inside else '<= 0'} at {t}")
    return cert, None


def _extended(n, lp, rows, new):
    """A copy of the dictionary lp over rows with the rows new added, and
    its rows; lp itself is left as it is."""
    lp = lp.copy()
    for t, inside in new:
        lp.add(*_constraint(n, t, inside))
    return lp, rows + new


def _solve_system(n, ins, outs):
    """Exact feasibility of {weight >= 1 on ins, weight <= 0 on outs},
    solved from the start; returns what ``_outcome`` does."""
    for t in ins:
        if t[0] == t[1] == t[2]:
            return None, (frozenset([t]), frozenset())
    rows = [(t, True) for t in sorted(ins)] + [(t, False) for t in sorted(outs)]
    return _outcome(n, rows, phase_one(2 * (n - 1), [_constraint(n, *r) for r in rows]))


def nullcone_feasible(S: Support) -> FeasibilityOutcome:
    """Decide nullcone membership of the coordinate subspace spanned by S.

    Empty supports are trivially feasible (zero cocharacter); any support
    containing a diagonal triple is infeasible since diagonal weights
    vanish identically."""
    cert, _ = _solve_system(S.n, S.triples, ())
    return FeasibilityOutcome(cert is not None, cert)


def is_maximal_nullcone_support(S: Support):
    """(maximal?, extendable triples).  Requires S itself feasible.

    S is solved once, as ``nullcone_feasible`` solves it.  A triple of
    positive weight under that certificate, or under one returned for an
    earlier extension, extends S with no further LP; any other off-diagonal
    triple t is decided on a copy of S's solved dictionary with the row of
    t added."""
    n = S.n
    rows = [(t, True) for t in S.sorted_triples()]
    lp = Dictionary(2 * (n - 1), [_constraint(n, *r) for r in rows])
    cert, _ = _outcome(n, rows, lp.solve())
    if cert is None:
        raise PreconditionError("support is not in the nullcone; maximality is undefined")
    cube = list(product(range(1, n + 1), repeat=3))
    covered = _positive(cert, cube)
    extendable = []
    for t in cube:
        if t in S or t[0] == t[1] == t[2]:
            continue
        if t not in covered:
            child, child_rows = _extended(n, lp, rows, [(t, True)])
            cert, _ = _outcome(n, child_rows, child.solve())
            if cert is None:
                continue
            covered |= _positive(cert, cube)
        extendable.append(t)
    return len(extendable) == 0, extendable


def _not_leader(state, table):
    """True when some g of table sends every completion of state to a
    larger in/out vector, "in" above "out".  state maps each triple, in the
    search's order, to True (in), False (out) or None (undecided).  The
    image reads state at g(t) in the place of t; the group holds each
    inverse, so these are all the images.  Up to the first place undecided
    on either side, the first difference has "in" in the image and "out"
    in state."""
    for _, move in table[1:]:
        for t, a in state.items():
            b = state[move[t]]
            if a is None or b is None:
                break
            if a != b:
                if b:
                    return True
                break
    return False


def _images(table, triples, cert):
    """{image support: image certificate} under the elements g of table,
    each image once, with the certificate of the first g that reaches it.
    g moves the certificate's vectors as it moves the slots and indices of
    a triple, so the image certificate certifies the image support."""
    vectors = (cert.lam, cert.mu, cert.nu)
    images = {}
    for g, move in table:
        image = frozenset(map(move.__getitem__, triples))
        if image not in images:
            images[image] = TorusWeight._made(cert.n, *g.on_vectors(vectors))
    return images


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
    known = []  # (positive support P, verified certificate): each feasible LP answer and recorded image
    holders = dict.fromkeys(universe, 0)  # triple t -> bitmask of the known P that hold t
    recorded = 0  # bitmask of the known P that are components
    in_cores = defaultdict(list)  # triple t -> Farkas cores (I, O) with t in I
    out_cores = defaultdict(list)  # triple t -> Farkas cores (I, O) with t in O
    table = [(g, {t: g._image(t) for t in universe}) for g in Symmetry.all(n)]  # the identity first

    def learn(P, cert):
        """Add (P, cert) to the index and return its bit."""
        bit = 1 << len(known)
        for t in P:
            holders[t] |= bit
        known.append((P, cert))
        return bit

    def holding(ins, outs=()):
        """Bitmask of the known P that hold ins and miss outs."""
        mask = (1 << len(known)) - 1
        for t in ins:
            mask &= holders[t]
        for t in outs:
            mask &= ~holders[t]
        return mask

    def solve(node, row):
        """The outcome of node's system plus row.  node is [dictionary,
        its rows, rows decided since it was solved]; the dictionary is
        brought up to date first, so later questions at the node reuse it."""
        lp, rows, todo = node
        if todo:
            lp, rows = _extended(n, lp, rows, todo)
            lp.solve()
            node[:] = lp, rows, []
        lp, rows = _extended(n, lp, rows, [row])
        return _outcome(n, rows, lp.solve())

    def extend(ins, outs, c, inside, node):
        """The bit of the P an LP learns with c added to ins (inside) or to
        outs, or 0 if infeasible.  (ins, outs) is feasible, so a core that
        applies contains c.  No known P is looked up: a node's mask is all
        known P satisfying (ins, outs), and c is asked about only when none
        takes the asked side; at a leaf the LP answers either way."""
        if inside:
            ins = ins | {c}
        else:
            outs = outs | {c}
        for I, O in (in_cores if inside else out_cores)[c]:
            if I <= ins and O <= outs:
                return 0
        cert, core = solve(node, (c, inside))
        if cert is None:
            images = (tuple(frozenset(map(move.__getitem__, side)) for side in core) for _, move in table)
            for I, O in dict.fromkeys(images):
                for t in I:
                    in_cores[t].append((I, O))
                for t in O:
                    out_cores[t].append((I, O))
            return 0
        return learn(_positive(cert, universe), cert)

    def record(ins, cert):
        nonlocal recorded
        for image, moved in _images(table, ins, cert).items():
            if _positive(moved, universe) != image:
                raise InternalError(f"moved certificate does not certify the image {sorted(image)}")
            recorded |= learn(image, moved)

    def dfs(ins, outs, undecided, node):
        # mask: the known P that satisfy (ins, outs), the node's certificates;
        # each forced decision lands on the side all of them already take.
        # node: see solve; its rows are some of (ins, outs)
        mask = holding(ins, outs)
        undecided = list(undecided)
        changed = True
        while changed:
            changed = False
            for c in list(undecided):
                held_in = bool(mask & holders[c])
                held_out = bool(mask & ~holders[c])
                if held_in and held_out:
                    continue
                bit = extend(ins, outs, c, held_out, node)
                if bit:
                    mask |= bit
                    continue
                if held_in:
                    ins = ins | {c}
                else:
                    outs = outs | {c}
                node[2].append((c, held_in))
                undecided.remove(c)
                changed = True
        if holding(ins.union(undecided)) & recorded:
            return
        if _not_leader({t: True if t in ins else False if t in outs else None for t in universe}, table):
            return
        if not undecided:
            empty = frozenset()
            # the rows of ins alone, as the node's dictionary holds outs too
            only_ins = [root, [], [(t, True) for t in sorted(ins)]]
            for t in universe:
                if t not in ins and extend(ins, empty, t, True, only_ins):
                    return  # feasible but not maximal
            record(ins, known[(mask & -mask).bit_length() - 1][1])  # that P is ins
            return
        c = undecided[0]
        rest = undecided[1:]
        lp, rows, todo = node
        dfs(ins | {c}, outs, rest, [lp, rows, todo + [(c, True)]])
        dfs(ins, outs | {c}, rest, [lp, rows, todo + [(c, False)]])

    root = Dictionary(2 * (n - 1))
    zero, _ = _outcome(n, [], root.solve())
    learn(_positive(zero, universe), zero)
    dfs(frozenset(), frozenset(), tuple(universe), [root, [], []])
    return [P for i, (P, _) in enumerate(known) if recorded >> i & 1]


def enumerate_maximal_components(n, best_effort=False) -> ComponentEnumeration:
    """All maximal supports inside the nullcone, canonically ordered.

    Complete (and asserted so) for n <= ENUMERATION_CAP; beyond the cap the
    search is refused unless best_effort is set, in which case the result
    is flagged complete=False.  Diagonal triples never occur (their weight
    is identically zero) so the search ranges over the off-diagonal cube.
    """
    complete = check_n(n) <= ENUMERATION_CAP
    if not complete and not best_effort:
        raise CapExceededError(
            f"complete enumeration is configured up to n={ENUMERATION_CAP}; "
            "pass best_effort to search anyway"
        )
    universe = [t for t in product(range(1, n + 1), repeat=3) if not (t[0] == t[1] == t[2])]
    comps = [Support._made(n, ts) for ts in _enumerate(n, universe)]
    comps.sort(key=lambda s: (-len(s), s.sorted_triples()))
    return ComponentEnumeration(n, complete, tuple(comps))
