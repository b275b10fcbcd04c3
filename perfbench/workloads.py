"""The four workloads: their inputs, their timed operations and the checks
on the program's outputs.

Every check compares an output against arithmetic done here (weights,
positive supports, closed forms, an exact nullspace from sympy) or against
a property the method must have.  Expectations that are only copies of
today's output are marked as such; README.md gives the command that makes
them anew.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import combinations, permutations, product
from typing import Any, Callable

#: the two explicit format-3 cocharacters of bordersub/suite.py, copied so
#: that the expectation does not move with the program
EXAMPLE_COCHARACTERS = (
    ((5, 0, 2), (0, 1, -3), (-5, -1, 1)),
    ((-2, -1, 0), (3, -2, 0), (-1, 3, 0)),
)

#: component sizes found by `bordersub nullcone components --n 3` today
#: (a copy of the output: 126 = 90 x 13 + 36 x 12)
COMPONENT_SIZES_N3 = {13: 90, 12: 36}

#: a round must leave room for three or four repeats in a 25 s run of a slow
#: phase: n = 8 (5 s of dimension counts in a quiet phase), the structure
#: report at n = 7 (0.9 s) and the W(n) LP at n = 6 and 7 (0.7 s and 3.3 s;
#: see the FOUND line on simplex.feasible_point) are left out
STAIRCASE_NS = (5, 6, 7)
STAIRCASE_STRUCTURE_MAX = 6
STAIRCASE_LP_MAX = 5

VERDICT_NS = (3, 4)
VERDICT_SUPPORTS = 40  # feasible supports per n, each with one perturbed twin
#: the balanced search at cap 3n = 12 on n = 4 supports of 20-28 triples
#: takes up to seconds; up to 10 triples keeps every operation under 0.1 s
SUPPORT_SIZES = (4, 5, 6, 7, 8, 9, 10, 7)
ORBIT_NS = (3, 4, 5)
ORBIT_CASES = 6  # members and as many non-members per n
#: the pure balanced_exists recurses once per triple: W(12) has 1,078
RECURSION_FAULT_N = 12

ORACLE_SUPPORTS = 200
#: below the default (3n)^2 = 81, at which 13 supports take 10-21 s each
ORACLE_WINDOW = 18
#: supports s with the same s mod ORACLE_GROUPS make one operation: 60% of
#: the supports are decided in 10-50 us, too little to time one by one
ORACLE_GROUPS = 20


@dataclass
class Op:
    """One timed operation: ``call()`` is what the clock measures."""

    label: str
    call: Callable[[], Any]
    #: the module of the public function called: the layer of the
    #: operation's span in a traced run
    layer: str
    #: a known fault of the program makes this raise on every run
    known_fault: bool = False


def op(label, fn, *args, known_fault=False):
    return Op(label, partial(fn, *args), fn.__module__.rsplit(".", 1)[-1], known_fault)


# -- arithmetic done here, independent of the package ---------------------


def weight(cert, t):
    i, j, k = t
    return cert.lam[i - 1] + cert.mu[j - 1] + cert.nu[k - 1]


def certifies(cert, triples):
    """cert is a zero-sum cocharacter with weight >= 1 on every triple."""
    zero_sum = all(a + b + c == 0 for a, b, c in zip(cert.lam, cert.mu, cert.nu))
    return zero_sum and all(weight(cert, t) >= 1 for t in triples)


def positive_support(n, lam, mu, nu):
    return frozenset(
        t for t in product(range(1, n + 1), repeat=3) if lam[t[0] - 1] + mu[t[1] - 1] + nu[t[2] - 1] >= 1
    )


def staircase(n, slot):
    """W (slot 0), W' (slot 1), W'' (slot 2): another index below the one
    in the distinguished slot."""
    return frozenset(
        t for t in product(range(1, n + 1), repeat=3) if any(t[s] < t[slot] for s in range(3) if s != slot)
    )


def off_diagonal(n):
    return [t for t in product(range(1, n + 1), repeat=3) if not t[0] == t[1] == t[2]]


def invertible(n, rng):
    """Matrix with entries in {-2, -1, 1, 2} and nonzero determinant
    (Fraction elimination).  No entry is zero, so every basis slice of
    g . unit and of g . (W-state + unit) is invertible; with zero entries
    unit_orbit_member may fall back to its bounded random search and answer
    'inconclusive' for a member (see the FOUND line on orbit.py)."""
    while True:
        m = [[rng.choice((-2, -1, 1, 2)) for _ in range(n)] for _ in range(n)]
        a = [[Fraction(x) for x in row] for row in m]
        for c in range(n):
            p = next((r for r in range(c, n) if a[r][c]), None)
            if p is None:
                break
            a[c], a[p] = a[p], a[c]
            for r in range(c + 1, n):
                f = a[r][c] / a[c][c]
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
        else:
            return m


def base_change(gs, entries, n):
    """(g1, g2, g3) . T as a dict of nonzero integer entries."""
    g1, g2, g3 = gs
    out = {}
    for (i, j, k), c in entries.items():
        for a, b, d in product(range(n), repeat=3):
            v = g1[a][i - 1] * g2[b][j - 1] * g3[d][k - 1] * c
            if v:
                out[(a + 1, b + 1, d + 1)] = out.get((a + 1, b + 1, d + 1), 0) + v
    return {t: c for t, c in out.items() if c}


def random_cocharacter(n, rng):
    lam = [rng.randint(-4, 4) for _ in range(n)]
    mu = [rng.randint(-4, 4) for _ in range(n)]
    return lam, mu, [-a - b for a, b in zip(lam, mu)]


# -- workloads ---------------------------------------------------------------


class Workload:
    name = ""

    def inputs(self, bs, seed):
        """Generate the inputs; timed as part of set-up."""
        raise NotImplementedError

    def operations(self, bs, inputs):
        raise NotImplementedError

    def check(self, bs, inputs, ops, results):
        """Problems found in the outputs of one round (empty when correct)."""
        raise NotImplementedError


class Components(Workload):
    """enumerate_maximal_components(3): the nullcone DFS over ~7,500 small
    LPs.  The input is fixed; the seed changes nothing."""

    name = "components"

    def inputs(self, bs, seed):
        return 3

    def operations(self, bs, n):
        return [op(f"enumerate_maximal_components({n})", bs.enumerate_maximal_components, n)]

    def check(self, bs, n, ops, results):
        enum = results[0]
        comps = [frozenset(c.triples) for c in enum.components]
        found = set(comps)
        problems = []
        if enum.n != n or not enum.complete:
            problems.append("enumeration not flagged complete for n=3")
        if len(found) != len(comps):
            problems.append("duplicate components")
        off = off_diagonal(n)
        for c in comps:
            cert = bs.nullcone_feasible(bs.Support.of(n, c)).certificate
            if cert is None or not certifies(cert, c):
                problems.append(f"component {sorted(c)} has no valid certificate")
            elif c != frozenset(t for t in off if weight(cert, t) >= 1):
                problems.append(f"component {sorted(c)} is not its certificate's positive support")
        for a, b in permutations(comps, 2):
            if a < b:
                problems.append(f"component {sorted(a)} lies inside another")
        for c in comps:
            for sigma in permutations(range(1, n + 1)):
                for slots in permutations(range(3)):
                    image = frozenset(tuple(sigma[t[s] - 1] for s in slots) for t in c)
                    if image not in found:
                        problems.append(f"set not closed under relabel {sigma} x slots {slots}")
        for slot in range(3):
            for sigma in permutations(range(1, n + 1)):
                image = frozenset(tuple(sigma[v - 1] for v in t) for t in staircase(n, slot))
                if image not in found:
                    problems.append(f"permuted staircase {slot}/{sigma} missing")
        for lam, mu, nu in EXAMPLE_COCHARACTERS:
            if positive_support(n, lam, mu, nu) not in found:
                problems.append(f"example cocharacter {lam, mu, nu} missing")
        sizes = dict(Counter(len(c) for c in comps))
        if sizes != COMPONENT_SIZES_N3:
            problems.append(f"component sizes {sizes} differ from {COMPONENT_SIZES_N3}")
        return sorted(set(problems))


class Staircase(Workload):
    """The paper's dimension counts and the LP certificate of W(n)."""

    name = "staircase"

    def inputs(self, bs, seed):
        return {
            "seed": seed,
            "unit": {n: bs.unit_tensor(n) for n in STAIRCASE_NS},
            "W": {n: bs.build_W(n) for n in STAIRCASE_NS if n <= STAIRCASE_LP_MAX},
        }

    def operations(self, bs, inp):
        """The light operations (all of n = 5, the unit-tensor counts at
        every n) three times a round, between the heavy ones: a round is
        then not much longer, and the operations near the median, which set
        op_p50_ms, get three times the repeats."""
        light, heavy = [], {}
        for n in STAIRCASE_NS:
            at_n = [
                op(f"cone_stabilizer_dim({n})", bs.cone_stabilizer_dim, n),
                op(f"orbit_cone_tangent_dim({n})", bs.orbit_cone_tangent_dim, n, inp["seed"]),
            ]
            if n <= STAIRCASE_STRUCTURE_MAX:
                at_n.append(op(f"cone_stabilizer_structure({n})", bs.cone_stabilizer_structure, n))
            if n <= STAIRCASE_LP_MAX:
                at_n.append(op(f"nullcone_feasible(W({n}))", bs.nullcone_feasible, inp["W"][n]))
            if n == STAIRCASE_NS[0]:
                light += at_n
            else:
                heavy[n] = at_n
            light.append(op(f"stabilizer_dim(unit({n}))", bs.stabilizer_dim, inp["unit"][n]))
            light.append(op(f"orbit_dim_unit({n})", bs.orbit_dim_unit, n))
        return light + heavy[6] + light + heavy[7] + light

    def check(self, bs, inp, ops, results):
        problems = []
        for o, r in zip(ops, results):
            n = o.call.args[0] if isinstance(o.call.args[0], int) else o.call.args[0].n
            cone = (3 * n * n + n - 2) // 2
            kind = o.label.split("(")[0]
            if kind == "cone_stabilizer_dim":
                ok = r == cone
            elif kind == "orbit_cone_tangent_dim":
                bound = (2 * n**3 + 3 * n**2 - 2 * n - 3) // 3
                ok = r.value == bound and r.expected == bound
            elif kind == "stabilizer_dim":
                ok = r == 2 * n
            elif kind == "orbit_dim_unit":
                ok = r == 3 * n * n - 2 * n
            elif kind == "cone_stabilizer_structure":
                ok = r.passes and r.dim_quotient == cone and len(r.basis) == cone + 2
                for lt in r.basis:
                    ok = ok and all(lt.x[p][q] == 0 for p in range(n) for q in range(p + 1, n))
                    ok = ok and all(lt.y[p][q] == 0 == lt.z[p][q] for p in range(n) for q in range(p))
                    ok = ok and len({lt.x[s][s] + lt.y[s][s] + lt.z[s][s] for s in range(n)}) == 1
            else:
                ok = r.feasible and certifies(r.certificate, staircase(n, 0))
            if not ok:
                problems.append(f"{o.label} returned {r!r}")
        return problems


class Verdicts(Workload):
    """A user sweeping the per-input commands over seeded inputs."""

    name = "verdicts"

    def inputs(self, bs, seed):
        rng = random.Random(f"perfbench:verdicts:{seed}")
        supports = []  # (n, triples, generating cocharacter, feasible by construction)
        for n in VERDICT_NS:
            off = off_diagonal(n)
            for idx in range(VERDICT_SUPPORTS):
                # the same sizes for every seed keep the cost of a round steady
                size = SUPPORT_SIZES[idx % len(SUPPORT_SIZES)]
                while True:
                    cochar = random_cocharacter(n, rng)
                    pos = sorted(positive_support(n, *cochar))
                    outside = [t for t in off if t not in pos]
                    if len(pos) >= size and outside:
                        break
                S = rng.sample(pos, size)
                supports.append((n, S, cochar, True))
                supports.append((n, S + [rng.choice(outside)], cochar, False))
        tensors = []  # (tensor, certificate): unit + w, w on the support
        for n, S, cochar, _ in supports:
            entries = {(i, i, i): 1 for i in range(1, n + 1)}
            entries.update({t: rng.choice((1, 2, 3, -1, -2, -3)) for t in S})
            tensors.append((bs.Tensor3(n, entries), bs.TorusWeight(n, *cochar)))
        for n in range(3, 7):
            W = sorted(staircase(n, 0))
            entries = {(i, i, i): 1 for i in range(1, n + 1)}
            entries.update({t: rng.choice((1, 2, 3, -1, -2, -3)) for t in W})
            tensors.append((bs.Tensor3(n, entries), bs.binary_cocharacter(n)))
        orbit = []  # (tensor, member?)
        for n in ORBIT_NS:
            # W-state on {1, 2} plus the unit tensor on the rest: concise,
            # but its normalised slices on {1, 2} are not diagonalizable,
            # so it lies outside the orbit of the unit tensor
            wstate = {(1, 1, 2): 1, (1, 2, 1): 1, (2, 1, 1): 1}
            wstate.update({(i, i, i): 1 for i in range(3, n + 1)})
            unit = {(i, i, i): 1 for i in range(1, n + 1)}
            for _ in range(ORBIT_CASES):
                gs = [invertible(n, rng) for _ in range(3)]
                orbit.append((bs.Tensor3(n, base_change(gs, unit, n)), True))
                orbit.append((bs.Tensor3(n, base_change(gs, wstate, n)), False))
        return {
            "seed": seed,
            "supports": [(n, bs.Support.of(n, S), cochar, feas) for n, S, cochar, feas in supports],
            "tensors": tensors,
            "orbit": orbit,
            "fault": bs.build_W(RECURSION_FAULT_N),
        }

    def operations(self, bs, inp):
        """The light operations (under 2 ms each, and the median of them
        all) three times a round, between the heavy ones, as in Staircase."""
        light, heavy = [], []
        for idx, (n, S, _, feasible) in enumerate(inp["supports"]):
            light.append(op(f"nullcone_feasible(S{idx})", bs.nullcone_feasible, S))
            light.append(op(f"has_invariant_monomial_within(S{idx})", bs.has_invariant_monomial_within, S, 3 * n))
            light.append(op(f"find_tight_witness(S{idx})", bs.find_tight_witness, S))
            if feasible:
                heavy.append(op(f"is_maximal_nullcone_support(S{idx})", bs.is_maximal_nullcone_support, S))
        for idx, (T, cert) in enumerate(inp["tensors"]):
            light.append(op(f"check_degeneration_certificate(T{idx})", bs.check_degeneration_certificate, T, cert))
        for idx, (T, _) in enumerate(inp["orbit"]):
            heavy.append(op(f"unit_orbit_member(G{idx})", bs.unit_orbit_member, T, inp["seed"]))
        half = len(heavy) // 2
        ops = light + heavy[:half] + light + heavy[half:] + light
        ops.append(
            op(
                f"has_invariant_monomial_within(W({RECURSION_FAULT_N}))",
                bs.has_invariant_monomial_within,
                inp["fault"],
                3,
                known_fault=True,
            )
        )
        return ops

    def check(self, bs, inp, ops, results):
        import sympy

        problems = []
        out = dict(zip((o.label for o in ops), results))
        for idx, (n, S, _, constructed) in enumerate(inp["supports"]):
            r = out[f"nullcone_feasible(S{idx})"]
            if r.feasible and not certifies(r.certificate, S.triples):
                problems.append(f"S{idx}: feasible certificate fails weight >= 1")
            if constructed and not r.feasible:
                problems.append(f"S{idx}: infeasible although a cocharacter certifies it")
            if out[f"has_invariant_monomial_within(S{idx})"] == r.feasible:
                problems.append(f"S{idx}: feasibility and the invariant-monomial route disagree")
            w = out[f"find_tight_witness(S{idx})"]
            if w is not None:
                taus = (w.tau_a, w.tau_b, w.tau_c)
                if any(len(set(tau)) != n for tau in taus) or any(
                    w.tau_a[i - 1] + w.tau_b[j - 1] + w.tau_c[k - 1] for i, j, k in S.triples
                ):
                    problems.append(f"S{idx}: tight witness is not injective or not zero on S")
            else:
                rows = [[int(v == i) for v in range(1, n + 1)] + [int(v == j) for v in range(1, n + 1)]
                        + [int(v == k) for v in range(1, n + 1)] for i, j, k in S.sorted_triples()]
                basis = sympy.Matrix(rows).nullspace()
                pairs = [(g * n + p, g * n + q) for g in range(3) for p, q in combinations(range(n), 2)]
                if not any(all(v[p] == v[q] for v in basis) for p, q in pairs):
                    problems.append(f"S{idx}: 'not tight' but no collision holds on the nullspace")
            if constructed:
                maximal, ext = out[f"is_maximal_nullcone_support(S{idx})"]
                if maximal != (not ext):
                    problems.append(f"S{idx}: maximal flag disagrees with extendable list")
                for t in product(range(1, n + 1), repeat=3):
                    if t in S.triples:
                        continue
                    bigger = bs.Support.of(n, S.triples | {t})
                    if t in ext:
                        cert = bs.nullcone_feasible(bigger).certificate
                        if cert is None or not certifies(cert, bigger.triples):
                            problems.append(f"S{idx}: extension by {t} has no valid certificate")
                    elif not (t[0] == t[1] == t[2] or bs.has_invariant_monomial_within(bigger, 3 * n)):
                        problems.append(f"S{idx}: {t} not extendable but no invariant monomial obstructs it")
        for idx, (T, cert) in enumerate(inp["tensors"]):
            want = all((i, i, i) in T.entries for i in range(1, T.n + 1)) and all(
                weight(cert, t) >= 1 for t in T.entries if not t[0] == t[1] == t[2]
            )
            if out[f"check_degeneration_certificate(T{idx})"].valid != want:
                problems.append(f"T{idx}: certificate verdict differs from the weights")
        for idx, (_, member) in enumerate(inp["orbit"]):
            got = out[f"unit_orbit_member(G{idx})"].verdict
            if got != ("member" if member else "non_member"):
                problems.append(f"G{idx}: {got}, expected {'member' if member else 'non_member'}")
        fault = out[f"has_invariant_monomial_within(W({RECURSION_FAULT_N}))"]
        if not isinstance(fault, BaseException) and fault is not False:
            problems.append(f"W({RECURSION_FAULT_N}) lies in the nullcone, yet an invariant monomial was reported")
        return problems


class Oracle(Workload):
    """The brute-force tightness oracle on the supports `reproduce` checks,
    in ORACLE_GROUPS fixed groups of ten.  The seed only shuffles the order
    of the groups and of the supports within each."""

    name = "oracle"

    def inputs(self, bs, seed):
        rng = random.Random(f"perfbench:oracle:{seed}")
        groups = []
        for g in range(ORACLE_GROUPS):
            group = [(s, bs.sample_support(3, ("tight", s), 10)) for s in range(g, ORACLE_SUPPORTS, ORACLE_GROUPS)]
            rng.shuffle(group)
            groups.append(group)
        rng.shuffle(groups)
        return groups

    def operations(self, bs, groups):
        return [
            Op(
                f"exhaustive_tight_search(s = {group[0][0] % ORACLE_GROUPS} mod {ORACLE_GROUPS})",
                partial(oracle_group, bs.exhaustive_tight_search, [S for _, S in group]),
                "tight",
            )
            for group in groups
        ]

    def check(self, bs, groups, ops, results):
        problems = []
        for group, found in zip(groups, results):
            for (s, S), f in zip(group, found):
                witness = bs.find_tight_witness(S)
                if f and witness is None:
                    problems.append(f"support {s}: oracle found a witness, find_tight_witness says not tight")
        return problems


def oracle_group(search, supports):
    return [search(S, ORACLE_WINDOW) for S in supports]


WORKLOADS = {w.name: w for w in (Components(), Staircase(), Verdicts(), Oracle())}
