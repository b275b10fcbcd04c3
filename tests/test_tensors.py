import random
from fractions import Fraction
from itertools import product
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bordersub import (
    DimensionMismatchError,
    InvalidValueError,
    Support,
    Symmetry,
    Tensor3,
    TorusWeight,
    build_tight_U,
    build_W,
    diagonal_support,
    sample_coefficients,
    sample_support,
    tensor_from_support,
    unit_tensor,
    weight_of,
)
from bordersub.tensors import W_VARIANTS


def brute_W(n, variant):
    """Independent enumeration of the staircase conditions."""
    out = set()
    for i, j, k in product(range(1, n + 1), repeat=3):
        if variant == "W" and (j < i or k < i):
            out.add((i, j, k))
        if variant == "W'" and (i < j or k < j):
            out.add((i, j, k))
        if variant == "W''" and (i < k or j < k):
            out.add((i, j, k))
    return out


def test_unit_tensor_base_case():
    assert unit_tensor(1).entries == {(1, 1, 1): Fraction(1)}


def test_unit_tensor_n3():
    T = unit_tensor(3)
    assert T.entries == {(i, i, i): Fraction(1) for i in (1, 2, 3)}


def test_unit_tensor_support_size():
    assert len(unit_tensor(5).support()) == 5


def test_build_W_n1_empty():
    assert len(build_W(1, "W")) == 0


def test_build_W_sizes():
    # closed form (4n^3 - 3n^2 - n)/6, all three variants, n <= 6
    for n in range(1, 7):
        want = (4 * n**3 - 3 * n**2 - n) // 6
        for variant in W_VARIANTS:
            assert len(build_W(n, variant)) == want
    assert len(build_W(3, "W")) == 13
    assert len(build_W(4, "W")) == 34


def test_build_W_n2_exhaustive():
    assert set(build_W(2, "W").triples) == {(2, 1, 1), (2, 1, 2), (2, 2, 1)}
    for n in (2, 3):
        for variant in W_VARIANTS:
            assert set(build_W(n, variant).triples) == brute_W(n, variant)


def test_build_W_bad_variant():
    with pytest.raises(InvalidValueError):
        build_W(2, "X")


def test_build_tight_U():
    assert len(build_tight_U(2)) == 0
    assert set(build_tight_U(3).triples) == {(2, 1, 3), (2, 3, 1)}
    # diagonal union gives the whole arithmetic-progression plane
    for n in range(1, 6):
        plane = {t for t in product(range(1, n + 1), repeat=3) if 2 * t[0] == t[1] + t[2]}
        assert set(build_tight_U(n).union(diagonal_support(n)).triples) == plane


def test_tight_U_inside_W():
    for n in range(1, 7):
        assert build_tight_U(n).triples <= build_W(n, "W").triples


def test_apply_permutation_identity_and_swap():
    W2 = build_W(2, "W")
    assert Symmetry(2, (1, 2)).on_support(W2) == W2
    swapped = Symmetry(2, (2, 1)).on_support(W2)
    assert set(swapped.triples) == {(1, 2, 2), (1, 2, 1), (1, 1, 2)}
    # moving the first slot's entry to the second slot turns W into W'
    assert Symmetry(2, (1, 2), (1, 0, 2)).on_support(W2) == build_W(2, "W'")


def test_apply_permutation_preserves_size():
    W3 = build_W(3, "W")
    for g in Symmetry.all(3):
        assert len(g.on_support(W3)) == len(W3)


def test_apply_permutation_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        Symmetry(2, (1, 2)).on_support(build_W(3, "W"))


def test_symmetry_group_lists_every_element_once():
    for n in range(1, 5):
        G = Symmetry.all(n)
        assert len(G) == len(set(G)) == 6 * factorial(n)
        assert G[0] == Symmetry(n, range(1, n + 1))
        assert all(G[0](t) == t for t in product(range(1, n + 1), repeat=3))


@st.composite
def symmetries(draw, n):
    return Symmetry(n, draw(st.permutations(range(1, n + 1))), draw(st.permutations(range(3))))


@st.composite
def cocharacters(draw):
    n = draw(st.integers(1, 4))
    columns = draw(st.lists(st.tuples(st.integers(-5, 5), st.integers(-5, 5)), min_size=n, max_size=n))
    lam, mu = zip(*columns)
    return TorusWeight(n, lam, mu, [-a - b for a, b in columns])


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(cocharacters())
def test_moved_cocharacter_keeps_every_weight(tw):
    cube = list(product(range(1, tw.n + 1), repeat=3))
    for g in Symmetry.all(tw.n):
        moved = TorusWeight(tw.n, *g.on_vectors((tw.lam, tw.mu, tw.nu)))
        assert all(weight_of(moved, g(t)) == weight_of(tw, t) for t in cube)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 4).flatmap(lambda n: st.tuples(
    st.lists(st.tuples(*[st.integers(1, n)] * 3), max_size=12).map(lambda ts: Support.of(n, ts)),
    symmetries(n),
)))
def test_symmetry_maps_an_orbit_onto_itself(case):
    # the group is closed under composition, so a further element only
    # permutes the orbit
    S, h = case
    orbit = {g.on_support(S) for g in Symmetry.all(S.n)}
    assert {h.on_support(X) for X in orbit} == orbit


def test_support_set_operations_reject_another_n():
    for op in (Support.union, Support.difference):
        with pytest.raises(DimensionMismatchError):
            op(build_W(2), build_W(3))


def test_sample_support_rejects_empty_ranges():
    for n, max_size in ((0, 5), (-1, 5), (3, 0)):
        with pytest.raises(InvalidValueError):
            sample_support(n, 0, max_size)


def test_rational_exactness_probes():
    rng = random.Random(3)
    for _ in range(200):
        a = Fraction(rng.randint(-50, 50) or 1, rng.randint(1, 50))
        b = Fraction(rng.randint(-50, 50) or 1, rng.randint(1, 50))
        c = Fraction(rng.randint(-50, 50), rng.randint(1, 50))
        assert a * (1 / a) == 1
        assert a + b == b + a and a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)


def test_tensor_from_support_round_trip():
    rng = random.Random(5)
    W3 = build_W(3, "W")
    coeffs = sample_coefficients(W3, seed=1)
    T = tensor_from_support(W3, coeffs)
    assert len(T.entries) == 13
    assert T.support().triples == W3.triples


def test_tensor_from_support_trivial():
    assert tensor_from_support(Support.of(2, []), {}).is_zero()
    one = tensor_from_support(Support.of(1, [(1, 1, 1)]), {(1, 1, 1): 1})
    assert one == unit_tensor(1)


def test_tensor_from_support_rejects_zero_and_mismatch():
    S = Support.of(2, [(1, 2, 2)])
    with pytest.raises(InvalidValueError):
        tensor_from_support(S, {(1, 2, 2): 0})
    with pytest.raises(InvalidValueError):
        tensor_from_support(S, {(1, 2, 2): 1, (2, 1, 1): 1})


def test_tensor_validation():
    with pytest.raises(InvalidValueError):
        Tensor3(2, {(3, 1, 1): Fraction(1)})
    with pytest.raises(InvalidValueError):
        Tensor3(2, {(1, 1, 1): Fraction(0)})


def test_tensor_refuses_floats():
    # Fraction(0.1) is 3602879701896397/36028797018963968, not 1/10
    with pytest.raises(InvalidValueError):
        Tensor3(2, {(1, 1, 1): 0.1})
    with pytest.raises(InvalidValueError):
        Tensor3(2, {(1, 1, 1): Fraction(1)}).scale(0.5)
    assert Tensor3(2, {(1, 1, 1): "1/10"}).entries == {(1, 1, 1): Fraction(1, 10)}


def test_tensor_refuses_boolean_coefficients():
    # Fraction(True) is 1: a boolean would be read as a coefficient
    with pytest.raises(InvalidValueError):
        Tensor3(1, {(1, 1, 1): True})
    with pytest.raises(InvalidValueError):
        Tensor3(1, {(1, 1, 1): Fraction(1)}).scale(True)


def test_tensor_from_support_refuses_floats_and_booleans():
    S = Support.of(2, [(1, 2, 2)])
    for bad in (0.1, True):
        with pytest.raises(InvalidValueError):
            tensor_from_support(S, {(1, 2, 2): bad})


def test_support_refuses_boolean_index():
    with pytest.raises(InvalidValueError):
        Support.of(2, [(1, 1, True)])
    with pytest.raises(InvalidValueError):
        Tensor3(2, {(1, False, 1): Fraction(1)})
    for n in (2.0, True):
        with pytest.raises(InvalidValueError):
            Support.of(n, [(1, 1, 1)])
        with pytest.raises(InvalidValueError):
            Tensor3(n, {})


def test_tensor_addition_cancels():
    T = Tensor3(2, {(1, 2, 1): Fraction(1)})
    U = Tensor3(2, {(1, 2, 1): Fraction(-1), (2, 1, 1): Fraction(2)})
    assert (T + U).entries == {(2, 1, 1): Fraction(2)}


def test_json_round_trips():
    W3 = build_W(3, "W'")
    assert Support.from_json(W3.to_json()).triples == W3.triples
    T = tensor_from_support(W3, {t: Fraction(i + 1, 3) for i, t in enumerate(W3.sorted_triples())})
    back = Tensor3.from_json(T.to_json())
    assert back == T
    # canonical serialization is stable
    assert back.to_json() == T.to_json()


def test_tensor_json_rejects_decimals():
    with pytest.raises(InvalidValueError):
        Tensor3.from_json({"n": 1, "entries": [[1, 1, 1, "0.5"]]})


def test_permutation_validation():
    with pytest.raises(InvalidValueError):
        Symmetry(3, (1, 1, 2))
    with pytest.raises(InvalidValueError):
        Symmetry(3, (1, 2, 3), (0, 0, 1))
    # a triple outside [1, n]^3; True would read as index 1 and map to (1, 1, 2)
    for t in ((True, 1, 2), (3, 1, 1), (1, 0, 1), (1, 1)):
        with pytest.raises(InvalidValueError):
            Symmetry.all(2)[0](t)


def test_sample_coefficients_deterministic_and_nonzero():
    W4 = build_W(4, "W")
    a = sample_coefficients(W4, seed=9)
    b = sample_coefficients(W4, seed=9)
    assert a == b
    assert all(v != 0 and abs(v) <= 3 for v in a.values())
