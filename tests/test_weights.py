import random
from itertools import product

import pytest

from bordersub import (
    DimensionMismatchError,
    InvalidValueError,
    Tensor3,
    TorusWeight,
    binary_cocharacter,
    build_W,
    check_degeneration_certificate,
    positive_support,
    sample_coefficients,
    tensor_from_support,
    unit_tensor,
    weight_of,
)

EX1 = TorusWeight(3, (5, 0, 2), (0, 1, -3), (-5, -1, 1))
EX2 = TorusWeight(3, (-2, -1, 0), (3, -2, 0), (-1, 3, 0))


def random_cocharacter(n, rng):
    lam = [rng.randint(-9, 9) for _ in range(n)]
    mu = [rng.randint(-9, 9) for _ in range(n)]
    nu = [-a - b for a, b in zip(lam, mu)]
    return TorusWeight(n, tuple(lam), tuple(mu), tuple(nu))


def test_cocharacter_invariant_enforced():
    with pytest.raises(InvalidValueError):
        TorusWeight(2, (1, 0), (0, 0), (0, 0))
    with pytest.raises(InvalidValueError):
        TorusWeight(2, (1,), (0, 0), (-1, 0))


def test_diagonal_weight_vanishes():
    rng = random.Random(2)
    for _ in range(50):
        n = rng.randint(1, 6)
        tw = random_cocharacter(n, rng)
        for i in range(1, n + 1):
            assert weight_of(tw, (i, i, i)) == 0


def test_binary_cocharacter_values():
    assert binary_cocharacter(1).lam == (0,)
    assert binary_cocharacter(1).mu == (0,)
    tw = binary_cocharacter(3)
    assert tw.lam == (0, 4, 6)
    assert tw.mu == (0, -2, -3)
    assert tw.nu == (0, -2, -3)


def test_binary_cocharacter_weight_examples():
    tw = binary_cocharacter(3)
    assert weight_of(tw, (2, 1, 1)) == 4
    assert weight_of(EX1, (1, 2, 2)) == 5


def test_binary_cocharacter_closed_form_and_positivity():
    # weight on (i,j,k) is 2^(n-j) + 2^(n-k) - 2^(n-i+1); >= 1 on all of W(n)
    for n in range(1, 7):
        tw = binary_cocharacter(n)
        W = build_W(n, "W")
        for i, j, k in product(range(1, n + 1), repeat=3):
            w = weight_of(tw, (i, j, k))
            assert w == 2 ** (n - j) + 2 ** (n - k) - 2 ** (n - i + 1)
            if (i, j, k) in W:
                assert w >= 1
        assert W.triples <= positive_support(tw).triples


def test_binary_cocharacter_min_weight_on_W3():
    tw = binary_cocharacter(3)
    assert min(weight_of(tw, t) for t in build_W(3, "W")) == 1


def test_positive_support_sizes_of_examples():
    assert len(positive_support(EX1)) == 13
    assert len(positive_support(EX2)) == 12


def test_positive_support_zero_cocharacter():
    zero = TorusWeight(2, (0, 0), (0, 0), (0, 0))
    assert len(positive_support(zero)) == 0


def test_positive_support_never_diagonal():
    rng = random.Random(4)
    for _ in range(40):
        n = rng.randint(1, 5)
        tw = random_cocharacter(n, rng)
        assert all(not (i == j == k) for (i, j, k) in positive_support(tw))


def test_torus_weight_refuses_floats_and_booleans():
    # int() would read lambda = (1.5, -1.5) as (1, -1), a different certificate
    with pytest.raises(InvalidValueError):
        TorusWeight(2, (1.5, -1.5), (0, 0), (-1.5, 1.5))
    with pytest.raises(InvalidValueError):
        TorusWeight(2.0, (1, -1), (0, 0), (-1, 1))
    with pytest.raises(InvalidValueError):
        TorusWeight(1, (True,), (0,), (-1,))


def test_certificate_unit_tensor_always_valid():
    rng = random.Random(6)
    for n in (1, 2, 4):
        tw = random_cocharacter(n, rng)
        assert check_degeneration_certificate(unit_tensor(n), tw).valid


def test_certificate_unit_plus_W():
    for n in range(1, 7):
        W = build_W(n, "W")
        T = unit_tensor(n) + tensor_from_support(W, sample_coefficients(W, seed=n))
        verdict = check_degeneration_certificate(T, binary_cocharacter(n))
        assert verdict.valid
        assert "unit" in verdict.detail


def test_certificate_rejects_bad_triple():
    T = unit_tensor(2) + Tensor3(2, {(1, 2, 2): 1})
    verdict = check_degeneration_certificate(T, binary_cocharacter(2))
    assert not verdict.valid
    assert verdict.triple == (1, 2, 2)
    assert verdict.weight == -2


def test_certificate_rejects_missing_diagonal():
    T = Tensor3(3, {(1, 1, 1): 1, (3, 3, 3): 1, (2, 1, 1): 1})
    verdict = check_degeneration_certificate(T, binary_cocharacter(3))
    assert not verdict.valid
    assert verdict.reason == "missing diagonal entry"
    assert verdict.triple == (2, 2, 2)


def test_certificate_valid_implies_support_positive():
    rng = random.Random(8)
    for _ in range(30):
        n = rng.randint(2, 4)
        tw = random_cocharacter(n, rng)
        pos = positive_support(tw)
        entries = {(i, i, i): 1 for i in range(1, n + 1)}
        for t in pos.sorted_triples():
            if rng.random() < 0.5:
                entries[t] = rng.choice((1, -2))
        T = Tensor3(n, entries)
        verdict = check_degeneration_certificate(T, tw)
        assert verdict.valid
        off = {t for t in T.entries if not t[0] == t[1] == t[2]}
        assert off <= pos.triples


def test_certificate_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        check_degeneration_certificate(unit_tensor(2), binary_cocharacter(3))


def test_weight_out_of_range():
    # True would read as index 1 and give weight 0
    for t in ((1, 3, 1), (0, 1, 1), (True, 1, 1), (1, 1)):
        with pytest.raises(InvalidValueError):
            weight_of(binary_cocharacter(2), t)


def test_certificate_json_round_trip():
    assert TorusWeight.from_json(EX1.to_json()) == EX1
