import hashlib
import json
import random
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bordersub.nullcone as nullcone

from bordersub import (
    CapExceededError,
    PreconditionError,
    Support,
    Symmetry,
    TorusWeight,
    binary_cocharacter,
    build_W,
    enumerate_maximal_components,
    is_maximal_nullcone_support,
    nullcone_feasible,
    positive_support,
    weight_of,
)
from bordersub.simplex import Dictionary
from bordersub.tensors import W_VARIANTS

EX1 = TorusWeight(3, (5, 0, 2), (0, 1, -3), (-5, -1, 1))
EX2 = TorusWeight(3, (-2, -1, 0), (3, -2, 0), (-1, 3, 0))

# sha256 of the certificates in test_certificates_on_general_supports_pinned,
# one repr per line, as computed when the certificate was read off the
# simplex point through the lcm of its denominators
GENERAL_CERTIFICATES_DIGEST = "9fe6e627e703f19d8c586112792cb0b570420f85786b9275b7213e40fde1dd73"

# sha256 of json.dumps(enumerate_maximal_components(n).to_json()), as computed
# by the search that visits every member of each symmetry orbit
COMPONENTS_DIGESTS = {
    2: "76b071582ca3cbb661062f5e120b1e2f4f660fbfbe72e90ff982e7db5c93e163",
    3: "7c5a877e96f2a6d7dc314fc4869e8dd9f6b17026bdb1b2c9f69a597cc7db7500",
}


def named_supports():
    out = [build_W(3, v) for v in W_VARIANTS]
    out += [positive_support(EX1), positive_support(EX2)]
    return out


def test_empty_support_feasible_with_zero_certificate():
    out = nullcone_feasible(Support.of(2, []))
    assert out.feasible
    assert out.certificate.lam == (0, 0)


def test_W3_feasible_and_certified():
    out = nullcone_feasible(build_W(3, "W"))
    assert out.feasible
    for t in build_W(3, "W"):
        assert weight_of(out.certificate, t) >= 1
    # the power-of-two cocharacter is one valid certificate for the same set
    assert all(weight_of(binary_cocharacter(3), t) >= 1 for t in build_W(3, "W"))


def test_certificates_are_primitive_integers():
    from math import gcd

    rng = random.Random(47)
    cube = [t for t in product((1, 2, 3), repeat=3) if not t[0] == t[1] == t[2]]
    seen = 0
    for _ in range(40):
        S = Support.of(3, rng.sample(cube, rng.randint(1, 10)))
        out = nullcone_feasible(S)
        if not out.feasible:
            continue
        seen += 1
        cert = out.certificate
        entries = list(cert.lam) + list(cert.mu) + list(cert.nu)
        g = 0
        for v in entries:
            g = gcd(g, v)
        assert g in (0, 1)  # zero cocharacter or content-free
    assert seen > 10


def test_diagonal_infeasible():
    assert not nullcone_feasible(Support.of(2, [(1, 1, 1), (2, 1, 1)])).feasible


def test_cyclic_triple_infeasible():
    assert not nullcone_feasible(Support.of(3, [(1, 2, 3), (2, 3, 1), (3, 1, 2)])).feasible


def test_example2_positive_support_feasible():
    assert nullcone_feasible(positive_support(EX2)).feasible


def test_downward_closure_on_random_chains():
    rng = random.Random(41)
    cube = [t for t in product((1, 2, 3), repeat=3)]
    for _ in range(25):
        S = set(rng.sample(cube, rng.randint(2, 12)))
        feas = nullcone_feasible(Support.of(3, S)).feasible
        if feas:
            sub = set(rng.sample(sorted(S), rng.randint(1, len(S))))
            assert nullcone_feasible(Support.of(3, sub)).feasible


def test_feasibility_permutation_equivariant():
    for S in named_supports():
        base = nullcone_feasible(S).feasible
        for g in Symmetry.all(3):
            assert nullcone_feasible(g.on_support(S)).feasible == base


def test_is_maximal_on_named_supports():
    ok, extendable = is_maximal_nullcone_support(positive_support(EX2))
    assert ok and extendable == []
    ok, _ = is_maximal_nullcone_support(build_W(3, "W"))
    assert ok


def test_is_maximal_reports_extensions():
    S = Support.of(2, [(2, 1, 1)])
    ok, extendable = is_maximal_nullcone_support(S)
    assert not ok
    assert (2, 1, 2) in extendable and (2, 2, 1) in extendable


def test_is_maximal_precondition():
    with pytest.raises(PreconditionError):
        is_maximal_nullcone_support(Support.of(2, [(1, 1, 1)]))


def test_empty_support_maximal_only_at_n1():
    # at n=1 the only triple is diagonal, so the empty support is maximal
    ok, extendable = is_maximal_nullcone_support(Support.of(1, []))
    assert ok and extendable == []
    ok, extendable = is_maximal_nullcone_support(Support.of(2, []))
    assert not ok and len(extendable) == 6


def test_maximality_agrees_with_a_solve_per_triple():
    # is_maximal_nullcone_support decides each extension on a copy of S's
    # solved dictionary; the reference solves S plus t from the start for
    # every triple t of the cube.  The supports are feasible subsets of
    # seeded positive supports: half near-maximal (n <= 4), half small
    rng = random.Random(67)
    maximal = 0
    for case in range(248):
        n = 2 + case % 4
        lam = [rng.randint(-4, 4) for _ in range(n)]
        mu = [rng.randint(-4, 4) for _ in range(n)]
        P = positive_support(TorusWeight(n, lam, mu, [-a - b for a, b in zip(lam, mu)])).sorted_triples()
        if n < 5 and case % 8 < 4:
            k = max(len(P) - rng.randint(0, 3), 0)
        else:
            k = rng.randint(0, min(len(P), 3 * n))
        S = Support.of(n, rng.sample(P, k))
        ok, extendable = is_maximal_nullcone_support(S)
        cube = product(range(1, n + 1), repeat=3)
        assert extendable == [t for t in cube if t not in S and nullcone._solve_system(n, S.triples | {t}, ())[0]]
        assert ok == (not extendable)
        maximal += ok
    assert maximal == 13


def test_enumerate_n1():
    enum = enumerate_maximal_components(1)
    assert enum.complete
    assert [s.sorted_triples() for s in enum.components] == [[]]


def test_enumerate_n2_against_brute_force():
    # independent oracle: all 2^6 off-diagonal subsets by direct LP
    cube = [t for t in product((1, 2), repeat=3) if t not in ((1, 1, 1), (2, 2, 2))]
    feasible_sets = [frozenset(S) for k in range(len(cube) + 1)
                     for S in combinations(cube, k)
                     if nullcone_feasible(Support.of(2, S)).feasible]
    maximal = {S for S in feasible_sets if not any(S < T for T in feasible_sets)}
    enum = enumerate_maximal_components(2)
    assert {frozenset(s.triples) for s in enum.components} == maximal
    assert len(enum.components) == 6
    assert all(len(s) == 3 for s in enum.components)


def test_enumerate_cap():
    with pytest.raises(CapExceededError):
        enumerate_maximal_components(4)


def test_enumeration_is_deterministic():
    a = enumerate_maximal_components(2)
    b = enumerate_maximal_components(2)
    assert json.dumps(a.to_json()) == json.dumps(b.to_json())


def test_component_lists_pinned(components_n3):
    for enum in (enumerate_maximal_components(2), components_n3):
        digest = hashlib.sha256(json.dumps(enum.to_json()).encode()).hexdigest()
        assert digest == COMPONENTS_DIGESTS[enum.n]


def test_enumeration_n2_closed_under_permutations():
    enum = enumerate_maximal_components(2)
    comps = {tuple(s.sorted_triples()) for s in enum.components}
    for s in enum.components:
        for g in Symmetry.all(2):
            assert tuple(g.on_support(s).sorted_triples()) in comps


def _orbit(triples):
    """The images of an n = 3 support under relabellings and slot permutations."""
    S = Support.of(3, triples)
    return {frozenset(g.on_support(S).triples) for g in Symmetry.all(3)}


def test_enumeration_n3_closed_under_permutations(components_n3):
    # the full group: 6 diagonal relabellings times 6 slot permutations;
    # the 126 components are four whole orbits
    comps = {frozenset(s.triples) for s in components_n3.components}
    sizes = []
    while comps:
        orbit = _orbit(next(iter(comps)))
        assert orbit <= comps
        comps -= orbit
        sizes.append(len(orbit))
    assert sorted(sizes) == [18, 36, 36, 36]


def test_enumeration_n3_components_all_feasible(components_n3):
    assert all(nullcone_feasible(s).feasible for s in components_n3.components)


def test_every_component_is_maximal_by_the_maximality_check(components_n3):
    # is_maximal_nullcone_support decides each extension with LPs of its
    # own, apart from the leaf check inside the enumeration
    for enum in (enumerate_maximal_components(2), components_n3):
        for S in enum.components:
            assert is_maximal_nullcone_support(S) == (True, [])


CUBE3 = [t for t in product((1, 2, 3), repeat=3) if not t[0] == t[1] == t[2]]
# the search's group table at n = 3: each g with its map on CUBE3, the identity first
TABLE3 = [(g, {t: g(t) for t in CUBE3}) for g in Symmetry.all(3)]


def test_search_reaches_only_lex_leaders(monkeypatch):
    # the DFS reaches one member of each orbit, the one whose in/out vector
    # over CUBE3 order ("in" above "out") is largest, and records the rest
    # of its orbit from there
    reached = []
    real = nullcone._images

    def spy(table, triples, cert):
        reached.append(frozenset(triples))
        return real(table, triples, cert)

    monkeypatch.setattr(nullcone, "_images", spy)
    enumerate_maximal_components(3)
    assert len(reached) == 4
    for S in reached:
        leader = max(_orbit(S), key=lambda T: tuple(t in T for t in CUBE3))
        assert S == leader


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.lists(st.booleans(), min_size=24, max_size=24), st.sets(st.integers(0, 23), max_size=6))
def test_a_cut_node_has_no_leader_completion(decided, undecided):
    # brute force over the completions: the search may cut a node only when
    # none of them is the largest vector of its orbit
    state = {t: None if a in undecided else v for a, (t, v) in enumerate(zip(CUBE3, decided))}
    if not nullcone._not_leader(state, TABLE3):
        return
    for values in product((True, False), repeat=len(undecided)):
        X = dict(state)
        for a, v in zip(sorted(undecided), values):
            X[CUBE3[a]] = v
        assert any([X[move[t]] for t in CUBE3] > list(X.values()) for _, move in TABLE3[1:])


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.lists(
    st.tuples(st.integers(-6, 6), st.integers(-6, 6)).filter(lambda p: abs(p[0] + p[1]) <= 6),
    min_size=3, max_size=3,
))
def test_every_positive_support_lies_in_a_component(components_n3, columns):
    # independent of the search: any cocharacter's positive support (never
    # diagonal, since diagonal weights vanish) is feasible, so some maximal
    # component contains it
    lam, mu = zip(*columns)
    cochar = TorusWeight(3, lam, mu, [-a - b for a, b in columns])
    P = positive_support(cochar).triples
    assert all(t in CUBE3 for t in P)
    assert any(P <= s.triples for s in components_n3.components)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    st.lists(st.sampled_from(CUBE3), max_size=12, unique=True),
    st.permutations((1, 2, 3)),
    st.permutations((0, 1, 2)),
)
def test_feasibility_and_certificates_move_with_the_symmetry_group(triples, images, pi):
    S = Support.of(3, triples)
    moved = Symmetry(3, images, pi).on_support(S)
    out = nullcone_feasible(S)
    assert nullcone_feasible(moved).feasible == out.feasible
    if out.feasible:
        # the enumeration's orbit closure carries certificates the same way
        cert = nullcone._images(TABLE3, S.triples, out.certificate)[moved.triples]
        assert all(weight_of(cert, t) >= 1 for t in moved)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.lists(st.sampled_from(CUBE3), max_size=12, unique=True), st.randoms(use_true_random=False))
def test_farkas_core_is_infeasible_and_inside_the_system(triples, rng):
    ins = set(triples[: len(triples) // 2 + 1])
    outs = set(triples) - ins
    cert, core = nullcone._solve_system(3, ins, outs)
    assert (cert is None) != (core is None)
    if core is not None:
        core_in, core_out = core
        assert core_in <= ins and core_out <= outs
        assert nullcone._solve_system(3, core_in, core_out)[0] is None
        # any system containing the core is infeasible
        extra = rng.sample(CUBE3, 3)
        assert nullcone._solve_system(3, core_in | {extra[0]}, core_out | {extra[1], extra[2]})[0] is None


def test_farkas_core_images_are_infeasible_on_their_sides():
    # the enumeration records every image of a core under S_n x S_3; each
    # image keeps the core's in/out sides and is infeasible by its own LP
    rng = random.Random(61)
    group = Symmetry.all(3)
    cores = 0
    while cores < 20:
        triples = rng.sample(CUBE3, rng.randint(4, 12))
        split = rng.randint(1, len(triples))
        ins, outs = set(triples[:split]), set(triples[split:])
        _, core = nullcone._solve_system(3, ins, outs)
        if core is None:
            continue
        cores += 1
        core_in, core_out = core
        assert core_in <= ins and core_out <= outs
        for g in group:
            image_in, image_out = frozenset(map(g, core_in)), frozenset(map(g, core_out))
            assert len(image_in) == len(core_in) and len(image_out) == len(core_out)
            assert image_in.isdisjoint(image_out)
            assert nullcone._solve_system(3, image_in, image_out)[0] is None


def test_lp_work_pinned(monkeypatch):
    # certificate reuse answers most questions without an LP; solving each
    # one took 7,544 phase-1 solves for the n = 3 enumeration, and
    # [12, 12, 12, 12, 13, 6, 25] for these maximality checks; searching
    # every member of each orbit, not just lex-leaders, took 711, and
    # recording each Farkas core without its orbit took 248.  Every solve
    # counts, from the start or from a kept dictionary, and so does every
    # pivot: solving each LP from the start took 153 solves and 3,483
    # pivots at n = 3, and 218, 188, 185, 193, 247, 5 and 8 pivots for the
    # maximality checks
    work = [0, 0]
    real = Dictionary.solve

    def counted(lp):
        before = lp.pivots
        out = real(lp)
        work[0] += 1
        work[1] += lp.pivots - before
        return out

    monkeypatch.setattr(Dictionary, "solve", counted)
    enum = enumerate_maximal_components(3)
    assert len(enum.components) == 126
    assert work == [260, 716]
    counts = []
    for S in named_supports() + [Support.of(2, [(2, 1, 1)]), Support.of(3, [])]:
        work[:] = [0, 0]
        is_maximal_nullcone_support(S)
        counts.append(tuple(work))
    assert counts == [(12, 27), (12, 24), (12, 23), (12, 23), (13, 24), (4, 3), (9, 8)]


def test_certificates_on_general_supports_pinned():
    rng = random.Random(59)
    certs = []
    for n in (2, 3, 4, 5):
        cube = [t for t in product(range(1, n + 1), repeat=3) if not t[0] == t[1] == t[2]]
        for _ in range(60):
            S = Support.of(n, rng.sample(cube, rng.randint(1, 3 * n)))
            certs.append(nullcone_feasible(S).certificate)
    assert sum(c is not None for c in certs) == 135
    assert hashlib.sha256("\n".join(map(repr, certs)).encode()).hexdigest() == GENERAL_CERTIFICATES_DIGEST
