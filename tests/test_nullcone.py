import json
import random
from itertools import combinations, product

import pytest

from bordersub import (
    CapExceededError,
    Permutation,
    PreconditionError,
    Support,
    TorusWeight,
    apply_permutation,
    binary_cocharacter,
    build_W,
    enumerate_maximal_components,
    is_maximal_nullcone_support,
    nullcone_feasible,
    positive_support,
    weight_of,
)
from bordersub.tensors import W_VARIANTS

EX1 = TorusWeight(3, (5, 0, 2), (0, 1, -3), (-5, -1, 1))
EX2 = TorusWeight(3, (-2, -1, 0), (3, -2, 0), (-1, 3, 0))


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
        for sigma in Permutation.all(3):
            assert nullcone_feasible(apply_permutation(sigma, S)).feasible == base


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


def test_enumeration_n2_closed_under_permutations():
    enum = enumerate_maximal_components(2)
    comps = {tuple(s.sorted_triples()) for s in enum.components}
    for s in enum.components:
        for sigma in Permutation.all(2):
            assert tuple(apply_permutation(sigma, s).sorted_triples()) in comps


def test_enumeration_n3_closed_under_permutations(components_n3):
    comps = {tuple(s.sorted_triples()) for s in components_n3.components}
    for s in components_n3.components:
        for sigma in Permutation.all(3):
            assert tuple(apply_permutation(sigma, s).sorted_triples()) in comps


def test_enumeration_n3_components_all_feasible(components_n3):
    assert all(nullcone_feasible(s).feasible for s in components_n3.components)
