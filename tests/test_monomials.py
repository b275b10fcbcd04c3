import random
from itertools import product
from math import comb

import pytest

from bordersub import (
    InvalidValueError,
    Monomial,
    Support,
    Symmetry,
    build_W,
    generator_family,
    has_invariant_monomial_within,
    invariant_monomials_within,
    is_torus_invariant,
)


def test_monomial_requires_positive_degree():
    with pytest.raises(InvalidValueError):
        Monomial(2, ())


def test_monomial_refuses_boolean_index():
    with pytest.raises(InvalidValueError):
        Monomial(2, ((1, True, 1),))
    with pytest.raises(InvalidValueError):
        Monomial(2.0, ((1, 1, 1),))


def test_monomial_refuses_factor_out_of_range():
    with pytest.raises(InvalidValueError, match=r"triple \(1, 1, 3\) outside \[1, 2\]\^3"):
        Monomial(2, ((1, 1, 1), (1, 1, 3)))
    with pytest.raises(InvalidValueError):
        Monomial(2, ((1, 1),))


def test_factors_stored_sorted():
    m = Monomial(3, ((3, 1, 2), (1, 2, 3)))
    assert m.factors == ((1, 2, 3), (3, 1, 2))
    assert m.degree == 2


def test_invariance_examples():
    assert is_torus_invariant(Monomial(1, ((1, 1, 1),)))
    assert is_torus_invariant(Monomial(3, ((1, 2, 3), (2, 1, 1), (3, 3, 2))))
    assert not is_torus_invariant(Monomial(3, ((1, 2, 3),)))


def test_generator_family_counts():
    assert len(generator_family(1)) == 1
    assert len(generator_family(3)) == 14
    assert len(generator_family(4)) == 30
    for n in range(1, 7):
        assert len(generator_family(n)) == n + 3 * comb(n, 2) + 2 * comb(n, 3)


def test_generator_family_all_invariant_none_in_W():
    for n in (2, 3, 4):
        W = build_W(n, "W")
        for m in generator_family(n):
            assert is_torus_invariant(m)
            assert not all(t in W for t in m.factors)


def test_generator_family_distinct():
    fam = generator_family(4)
    assert len({m.factors for m in fam}) == len(fam)


def test_invariance_permutation_equivariant():
    rng = random.Random(17)
    cube = list(product((1, 2, 3), repeat=3))
    for _ in range(60):
        factors = tuple(rng.choice(cube) for _ in range(rng.randint(1, 4)))
        m = Monomial(3, factors)
        for g in Symmetry.all(3):
            assert is_torus_invariant(m) == is_torus_invariant(Monomial(3, tuple(map(g, factors))))


def test_within_W3_empty():
    assert invariant_monomials_within(build_W(3, "W"), 3) == []
    assert not has_invariant_monomial_within(build_W(3, "W"), 9)


def test_within_W12_has_no_recursion_limit():
    # 1,078 triples: the search depth must not grow with the support size
    assert has_invariant_monomial_within(build_W(12), 3) is False


def test_within_full_cube_degree1():
    full = Support.of(2, list(product((1, 2), repeat=3)))
    assert [m.factors for m in invariant_monomials_within(full, 1)] == [
        ((1, 1, 1),),
        ((2, 2, 2),),
    ]


def test_within_cyclic_support():
    S = Support.of(3, [(1, 2, 3), (2, 3, 1), (3, 1, 2)])
    found = invariant_monomials_within(S, 3)
    assert Monomial(3, ((1, 2, 3), (2, 3, 1), (3, 1, 2))) in found


def test_within_graded_lex_order():
    full = Support.of(2, list(product((1, 2), repeat=3)))
    monos = invariant_monomials_within(full, 2)
    degrees = [m.degree for m in monos]
    assert degrees == sorted(degrees)


def test_duality_on_named_supports():
    # all five named format-3 supports are feasible, so none may contain an
    # invariant monomial up to the duality cap 3n = 9
    from bordersub import TorusWeight, positive_support

    named = [build_W(3, v) for v in ("W", "W'", "W''")]
    named.append(positive_support(TorusWeight(3, (5, 0, 2), (0, 1, -3), (-5, -1, 1))))
    named.append(positive_support(TorusWeight(3, (-2, -1, 0), (3, -2, 0), (-1, 3, 0))))
    for S in named:
        assert not has_invariant_monomial_within(S, 9)


def test_existence_matches_listing():
    rng = random.Random(23)
    cube = list(product((1, 2, 3), repeat=3))
    for _ in range(40):
        S = Support.of(3, rng.sample(cube, rng.randint(1, 8)))
        assert has_invariant_monomial_within(S, 4) == bool(invariant_monomials_within(S, 4))
    # the empty support has no nonempty multiset of triples
    for n in (1, 2, 3):
        empty = Support.of(n, [])
        assert has_invariant_monomial_within(empty, 3 * n) is False
        assert invariant_monomials_within(empty, 3 * n) == []


def test_monomial_json_round_trip():
    m = Monomial(3, ((1, 2, 3), (2, 3, 1), (3, 1, 2)))
    assert Monomial.from_json(m.to_json()) == m
