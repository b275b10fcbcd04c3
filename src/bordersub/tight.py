"""Tight supports: injective integer gradings summing to zero on a support.

A support S is tight when injective tau_A, tau_B, tau_C : [n] -> Z exist
with tau_A(i) + tau_B(j) + tau_C(k) = 0 on every (i,j,k) in S.  The sum
conditions form a homogeneous rational linear system in the 3n values;
injectivity is the complement of the 3 C(n,2) "collision" hyperplanes
tau_X(p) = tau_X(q).  Because a finite union of proper subspaces cannot
cover a rational vector space, S is tight iff no collision hyperplane
contains the whole solution space -- an exact, scaling-free criterion (any
rational witness scales to an integer one).

The witness returned is canonical: a point of the solution space avoiding
all collisions (found deterministically along the moment-curve coefficients
1, t, t^2, ... of the kernel basis), translated so tau_C(n) = 0 and scaled
to the smallest integer multiple.

``exhaustive_tight_search`` is the brute-force oracle used by the tests:
its kernel ``tight_search`` runs fail-first backtracking over integer
assignments in a fixed window with tau_A(1) = tau_B(1) = 0 pinned.  A
"not tight" from it covers that pinned window only: the translation that
pins a solution can push it out of the window.  It lives in this module
but shares no machinery with the decision procedure above: no
``kernel_int``, no linear algebra at all.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import gcd

from .errors import DimensionMismatchError, InternalError, InvalidValueError
from .linalg import kernel_int
from .tensors import Support, check_n, json_int


@dataclass(frozen=True)
class TightWitness:
    n: int
    tau_a: tuple[int, ...]
    tau_b: tuple[int, ...]
    tau_c: tuple[int, ...]

    def __post_init__(self):
        check_n(self.n)
        for name in ("tau_a", "tau_b", "tau_c"):
            seq = tuple(map(json_int, getattr(self, name)))
            if len(seq) != self.n:
                raise InvalidValueError(f"{name} must have length n={self.n}")
            object.__setattr__(self, name, seq)

    def to_json(self):
        return {
            "n": self.n,
            "tauA": list(self.tau_a),
            "tauB": list(self.tau_b),
            "tauC": list(self.tau_c),
        }

    @classmethod
    def from_json(cls, obj):
        try:
            tau_a, tau_b, tau_c = (tuple(map(json_int, obj[key])) for key in ("tauA", "tauB", "tauC"))
            return cls(json_int(obj["n"]), tau_a, tau_b, tau_c)
        except (KeyError, TypeError) as exc:
            raise InvalidValueError(f"malformed witness JSON: {exc}") from exc


def check_tight_witness(S: Support, w: TightWitness) -> bool:
    """Injectivity of all three maps plus zero sums over S."""
    if S.n != w.n:
        raise DimensionMismatchError(f"support n={S.n} vs witness n={w.n}")
    for seq in (w.tau_a, w.tau_b, w.tau_c):
        if len(set(seq)) != w.n:
            return False
    return all(w.tau_a[i - 1] + w.tau_b[j - 1] + w.tau_c[k - 1] == 0 for (i, j, k) in S)


def _collision_functionals(n):
    """(group, p, q) index pairs p < q within each of the three maps."""
    for g in range(3):
        for p, q in combinations(range(n), 2):
            yield g * n + p, g * n + q


def find_tight_witness(S: Support):
    """Canonical witness when S is tight, else None.  Exact and complete:
    the collision analysis of the docstring decides tightness, and a
    witness is then constructed deterministically."""
    n = S.n
    basis = kernel_int([{i - 1: 1, n + j - 1: 1, 2 * n + k - 1: 1} for i, j, k in S.sorted_triples()], 3 * n)
    for p, q in _collision_functionals(n):
        if all(vec[p] == vec[q] for vec in basis):
            return None
    # moment-curve coefficients (1, t, t^2, ...) miss every collision
    # hyperplane for some t: each nonzero functional is a nonzero
    # polynomial in t of degree < len(basis)
    t = 1
    while True:
        point = [0] * (3 * n)
        c = 1
        for vec in basis:
            for idx in range(3 * n):
                point[idx] += c * vec[idx]
            c *= t
        if all(point[p] != point[q] for p, q in _collision_functionals(n)):
            break
        t += 1
    shift = point[3 * n - 1]  # translate so tau_C(n) = 0
    vals = point[:n] + [v + shift for v in point[n : 2 * n]] + [v - shift for v in point[2 * n :]]
    # smallest positive multiple: divide by the (positive) content only,
    # never flip signs
    g = 0
    for v in vals:
        g = gcd(g, v)
    if g > 1:
        vals = [v // g for v in vals]
    witness = TightWitness(n, tuple(vals[:n]), tuple(vals[n : 2 * n]), tuple(vals[2 * n :]))
    if not check_tight_witness(S, witness):
        raise InternalError("constructed tightness witness failed verification")
    return witness


# -- the brute-force oracle --------------------------------------------------


def _value_sequence(bound):
    """0, 1, -1, 2, -2, ... out to +/-bound."""
    yield 0
    for v in range(1, bound + 1):
        yield v
        yield -v


def tight_search(n, triples, bound):
    """Search for injective tau_A, tau_B, tau_C: [n] -> [-bound, bound] with
    tau_A(i)+tau_B(j)+tau_C(k) = 0 on every triple and the pins
    tau_A(1) = tau_B(1) = 0.  Returns the full assignment as a flat list
    [tau_A | tau_B | tau_C] or None.

    Exhaustive over the pinned window, not over the whole window: the
    translations (tau_A+a, tau_B+b, tau_C-a-b) preserve the sum conditions
    and injectivity, so a solution anywhere in Z moves to a pinned one, but
    the moved solution may leave [-bound, bound].  None therefore means "no
    pinned solution in the window", and "not tight" only once the window
    is wide enough to hold a pinned solution of every tight support.

    Backtracking with unit propagation: a triple with two assigned
    endpoints forces the third, so branching only happens on genuinely free
    variables.  Branching is fail-first (Haralick & Elliott 1980): each node
    branches on the unassigned constrained variable that sits in the most
    triples with exactly two unknowns, the lowest index on ties, so a
    forced collision surfaces before unrelated variables are enumerated.
    Values are tried in the order 0, 1, -1, 2, -2, ..., drawn lazily from
    one ``_value_sequence`` per branch node.

    The state is kept incrementally: each group's set of taken values makes
    the injectivity test one lookup, and each triple's sum of unassigned
    variable indices names its last unknown directly.  The tree is walked by
    one loop over an explicit stack of (variable, values, trail mark), so
    the depth is bounded by memory, not by the recursion limit.  Used as
    the brute-force oracle against the linear-algebra tightness decision;
    deliberately shares no code with it.
    """
    nv = 3 * n
    cons = [(i - 1, n + j - 1, 2 * n + k - 1) for (i, j, k) in triples]
    m = len(cons)
    cons_of = [[] for _ in range(nv)]
    for ci, vs in enumerate(cons):
        for v in vs:
            cons_of[v].append(ci)

    val = [0] * nv
    done = [False] * nv
    # the values each group A, B, C has taken so far
    taken = [set(), set(), set()]
    # the three variables of a constraint sit in disjoint groups (A, B, C),
    # so none of them can coincide, and once two are assigned the third is
    # the sum of the unassigned indices
    unknown = [3] * m
    ksum = [0] * m
    isum = [sum(vs) for vs in cons]

    trail = []

    def assign(v, x, queue):
        """Returns False on immediate contradiction; always leaves counters
        consistent so undo_to() can unwind unconditionally."""
        if x < -bound or x > bound or x in taken[v // n]:
            return False
        val[v] = x
        done[v] = True
        taken[v // n].add(x)
        trail.append(v)
        ok = True
        for ci in cons_of[v]:
            unknown[ci] -= 1
            ksum[ci] += x
            isum[ci] -= v
            if unknown[ci] == 0:
                if ksum[ci] != 0:
                    ok = False
            elif unknown[ci] == 1:
                queue.append(ci)
        return ok

    def undo_to(mark):
        while len(trail) > mark:
            v = trail.pop()
            x = val[v]
            done[v] = False
            taken[v // n].discard(x)
            for ci in cons_of[v]:
                unknown[ci] += 1
                ksum[ci] -= x
                isum[ci] += v

    def propagate(queue):
        """Unit propagation; False on a contradiction (the caller unwinds)."""
        for ci in queue:  # assign() appends while this runs
            if unknown[ci] == 1 and not assign(isum[ci], -ksum[ci], queue):
                return False
        return True

    branch_vars = [v for v in range(nv) if cons_of[v]]

    def pick_branch():
        """Fail-first: the most triples with two unknowns, lowest index on
        ties; None once every constrained variable is assigned."""
        best, best_score = None, -1
        for v in branch_vars:
            if done[v]:
                continue
            score = 0
            for ci in cons_of[v]:
                if unknown[ci] == 2:
                    score += 1
            if score > best_score:
                best, best_score = v, score
        return best

    def fill_free():
        for v in range(nv):
            if done[v]:
                continue
            group = taken[v // n]
            for x in _value_sequence(bound):
                if x not in group:
                    val[v] = x
                    done[v] = True
                    group.add(x)
                    trail.append(v)
                    break
            else:  # the window holds fewer than n values
                return False
        return True

    queue = []
    if not assign(0, 0, queue) or not assign(n, 0, queue):
        return None
    # one entry per open branch node: its variable, its remaining values and
    # the trail length before its variable was assigned
    stack = []
    while True:
        # enter the node reached by the last assignment
        if propagate(queue):
            v = pick_branch()
            if v is None:
                if fill_free():
                    return list(val)
            else:
                stack.append((v, _value_sequence(bound), len(trail)))
        # move to the next value of the deepest open node, closing the
        # exhausted ones; a failed node is unwound by its parent's mark
        while stack:
            v, values, mark = stack[-1]
            undo_to(mark)
            group = taken[v // n]
            for x in values:
                if x in group:  # what assign() would refuse untouched
                    continue
                queue = []
                if assign(v, x, queue):
                    break
                undo_to(mark)
            else:
                stack.pop()
                continue
            break
        else:
            return None


def oracle_window(n) -> int:
    """Half-width (3n)^2 of the integer window the brute-force oracle
    searches."""
    return (3 * n) ** 2


def exhaustive_tight_search(S: Support, bound=None) -> bool:
    """Brute-force tightness oracle: backtracking over injective integer
    assignments with entries in [-bound, bound], pinned to
    tau_A(1) = tau_B(1) = 0 (translations preserve tightness).  False
    means no pinned solution lies in the window; a support can have an
    unpinned one there and still get False, so a small bound is not a
    proof of "not tight".  Test equipment; quadratic-window default per
    oracle_window."""
    n = S.n
    if bound is None:
        bound = oracle_window(n)
    elif json_int(bound) < 0:
        raise InvalidValueError("bound must be >= 0")
    assignment = tight_search(n, S.sorted_triples(), bound)
    if assignment is None:
        return False
    witness = TightWitness(n, tuple(assignment[:n]), tuple(assignment[n : 2 * n]), tuple(assignment[2 * n :]))
    if not check_tight_witness(S, witness):
        raise InternalError("oracle produced an invalid witness")
    return True
