import hashlib
import json
import random
from itertools import product

import pytest

import bordersub.tight as tight_module
from bordersub import (
    DimensionMismatchError,
    InvalidValueError,
    Support,
    Symmetry,
    TightWitness,
    binary_cocharacter,
    build_tight_U,
    build_W,
    check_degeneration_certificate,
    check_tight_witness,
    diagonal_support,
    exhaustive_tight_search,
    find_tight_witness,
    sample_coefficients,
    sample_support,
    tensor_from_support,
    unit_tensor,
)


def plane_support(n):
    return Support.of(n, [t for t in product(range(1, n + 1), repeat=3) if 2 * t[0] == t[1] + t[2]])


def affine_witness(n):
    """tau_A(i) = 3 - 2i, tau_B(j) = j, tau_C(k) = k - 3."""
    return TightWitness(
        n,
        tuple(3 - 2 * i for i in range(1, n + 1)),
        tuple(range(1, n + 1)),
        tuple(k - 3 for k in range(1, n + 1)),
    )


def test_affine_witness_on_plane():
    assert check_tight_witness(plane_support(3), affine_witness(3)) is True
    assert affine_witness(3).tau_a == (1, -1, -3)


def test_injectivity_required():
    w = TightWitness(3, (0, 0, 0), (1, 2, 3), (-1, -2, -3))
    assert not check_tight_witness(plane_support(3), w)


def test_tight_witness_refuses_floats():
    # int() would read tau_A = (0.5, 1.9) as (0, 1)
    with pytest.raises(InvalidValueError):
        TightWitness(2, (0.5, 1.9), (0, 1), (0, 1))
    with pytest.raises(InvalidValueError):
        TightWitness(2.0, (0, 1), (0, 1), (0, 1))


def test_empty_support_vacuous():
    assert check_tight_witness(Support.of(2, []), TightWitness(2, (0, 1), (5, 7), (2, 3)))


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        check_tight_witness(plane_support(2), affine_witness(3))


def test_find_witness_on_plane_all_n():
    for n in range(1, 7):
        w = find_tight_witness(plane_support(n))
        assert w is not None
        assert check_tight_witness(plane_support(n), w)
        # canonical normalization
        assert w.tau_c[n - 1] == 0


def test_find_witness_deterministic():
    a = find_tight_witness(plane_support(4))
    b = find_tight_witness(plane_support(4))
    assert a == b


def test_forced_collision_not_tight():
    assert find_tight_witness(Support.of(3, [(1, 1, 1), (1, 1, 2)])) is None


def test_W3_plus_diagonal_not_tight():
    S = build_W(3, "W").union(diagonal_support(3))
    assert find_tight_witness(S) is None
    assert exhaustive_tight_search(S) is False


def test_oracle_agreement_all_n2_supports():
    cube = list(product((1, 2), repeat=3))
    for mask in range(256):
        S = Support.of(2, [t for b, t in enumerate(cube) if mask >> b & 1])
        assert (find_tight_witness(S) is not None) == exhaustive_tight_search(S)


def test_witnesses_pinned():
    # sha256 of the witness reprs per support set: kernel_int's bases and the
    # moment-curve walk fix every witness, so a change to either that moves
    # one fails here on any machine
    cube = list(product((1, 2), repeat=3))
    sets = {
        "n2": [Support.of(2, [t for b, t in enumerate(cube) if mask >> b & 1]) for mask in range(256)],
        "crit9": [sample_support(3, ("tight", s), 10) for s in range(200)],
        "plane": [plane_support(n) for n in range(1, 7)],
    }
    expected = {
        "n2": (33, "e3aeaa0e741e32adff851e79b251bdf5c6ae8188df3c81996bedea576daaa082"),
        "crit9": (53, "94dfd1a808d897c75777cba37c25f446a6a1a1c64c3098663353a9625f8f1346"),
        "plane": (6, "3ccb1a94f734a550ee6525d8a5b328a30b40614d05a8c366bb76cf2ed949ed48"),
    }
    for name, supports in sets.items():
        witnesses = [find_tight_witness(S) for S in supports]
        found = sum(w is not None for w in witnesses)
        assert (found, hashlib.sha256(repr(witnesses).encode()).hexdigest()) == expected[name], name


def test_oracle_shares_no_linear_algebra(monkeypatch):
    def forbidden(*args):
        raise AssertionError("the oracle called kernel_int")

    monkeypatch.setattr(tight_module, "kernel_int", forbidden)
    assert exhaustive_tight_search(plane_support(4)) is True
    assert exhaustive_tight_search(build_W(3, "W").union(diagonal_support(3))) is False


def test_oracle_work_pinned_at_window_81(monkeypatch):
    # the 200 supports of acceptance criterion 9 at the default window
    # (3n)^2 = 81: the number of candidate values the search draws is
    # deterministic, so a slower branching rule fails here on any machine
    drawn = 0
    values = tight_module._value_sequence

    def counting(bound):
        nonlocal drawn
        for x in values(bound):
            drawn += 1
            yield x

    monkeypatch.setattr(tight_module, "_value_sequence", counting)
    for s in range(200):
        exhaustive_tight_search(sample_support(3, ("tight", s), 10))
    assert drawn == 251_467


def test_oracle_answers_pinned():
    # sha256 of the assignments themselves, so a rewrite of the search that
    # keeps the draw count but moves a witness fails here too
    sets = {
        "crit9": (3, [sample_support(3, ("tight", s), 10) for s in range(200)], (18, 81)),
        "tight4": (4, [sample_support(4, ("tight4", s), 12) for s in range(40)], (144,)),
    }
    expected = {
        "crit9": (53, "0da37e9e980d95c7052e9d64f73dcbea1b3f71ec84219c5cd04e6a63c57e59cc"),
        "tight4": (12, "895b026c12ca9ee39f1559acb521a36fbf6027fb2e753635bde5c251cfdfc4ae"),
    }
    for name, (n, supports, windows) in sets.items():
        for bound in windows:
            found = [tight_module.tight_search(n, S.sorted_triples(), bound) for S in supports]
            digest = hashlib.sha256(json.dumps(found).encode()).hexdigest()
            assert (sum(a is not None for a in found), digest) == expected[name], (name, bound)


def test_oracle_matches_brute_force_n1_n2():
    # every pinned injective assignment in the window, enumerated over its
    # 3n - 2 free entries: S has a pinned solution iff S lies inside the set
    # of triples on which one of them sums to zero
    for n in (1, 2):
        cube = list(product(range(1, n + 1), repeat=3))
        for bound in (0, 1, 2):
            window = range(-bound, bound + 1)
            zero_sets = set()
            for free in product(window, repeat=3 * n - 2):
                tau_a, tau_b, tau_c = (0, *free[: n - 1]), (0, *free[n - 1 : 2 * n - 2]), free[2 * n - 2 :]
                if all(len(set(tau)) == n for tau in (tau_a, tau_b, tau_c)):
                    zeros = (tau_a[i - 1] + tau_b[j - 1] + tau_c[k - 1] == 0 for (i, j, k) in cube)
                    zero_sets.add(sum(1 << b for b, zero in enumerate(zeros) if zero))
            for mask in range(1 << len(cube)):
                triples = [t for b, t in enumerate(cube) if mask >> b & 1]
                expected = any(mask & ~z == 0 for z in zero_sets)
                assert (tight_module.tight_search(n, triples, bound) is not None) == expected, (n, bound, triples)


def test_oracle_false_covers_the_pinned_window_only():
    # an injective solution in [-1, 1] exists (tau_A = (-1, 0), tau_B = (0, 1),
    # tau_C = (-1, 1)), but pinning tau_A(1) = tau_B(1) = 0 forces
    # tau_C(1) = -(tau_A(2) + tau_B(2)) out to +/-2 or onto tau_C(2) = 0
    S = Support.of(2, [(1, 1, 2), (2, 2, 1)])
    assert check_tight_witness(S, TightWitness(2, (-1, 0), (0, 1), (-1, 1)))
    assert exhaustive_tight_search(S, 1) is False
    assert exhaustive_tight_search(S, 2) is True


def test_oracle_window_narrower_than_n():
    # bound 0 leaves one value for two entries of a group: fill_free fails
    assert exhaustive_tight_search(Support.of(2, []), 0) is False
    assert exhaustive_tight_search(Support.of(2, []), 1) is True


def test_oracle_depth_is_not_bounded_by_recursion():
    # one branch node per diagonal triple: 600 levels deep
    assert exhaustive_tight_search(diagonal_support(600)) is True


def test_oracle_agreement_n4_supports():
    tight = 0
    for s in range(40):
        S = sample_support(4, ("tight4", s), 12)
        decided = find_tight_witness(S) is not None
        assert decided == exhaustive_tight_search(S)  # default window 144
        tight += decided
    assert tight == 12


def test_oracle_full_cube_n8_not_tight():
    cube = Support.of(8, list(product(range(1, 9), repeat=3)))
    assert find_tight_witness(cube) is None
    assert exhaustive_tight_search(cube) is False


def test_permutation_equivariance():
    rng = random.Random(19)
    cube = list(product((1, 2, 3), repeat=3))
    for _ in range(30):
        S = Support.of(3, rng.sample(cube, rng.randint(1, 9)))
        tight = find_tight_witness(S) is not None
        for g in Symmetry.all(3):
            assert (find_tight_witness(g.on_support(S)) is not None) == tight


def test_plane_tensor_doubly_certified():
    # tight witness and degeneration certificate coexist for n <= 5
    for n in range(1, 6):
        plane = plane_support(n)
        w = find_tight_witness(plane)
        assert w is not None
        off = build_tight_U(n)
        assert off.triples == plane.difference(diagonal_support(n)).triples
        T = unit_tensor(n) + tensor_from_support(off, sample_coefficients(off, seed=n))
        assert T.support().triples <= plane.triples
        assert check_degeneration_certificate(T, binary_cocharacter(n)).valid


def test_witness_json_round_trip():
    w = affine_witness(4)
    assert TightWitness.from_json(w.to_json()) == w
    for key, bad in (("n", 4.0), ("tauA", [1.5, -1, -3, -5]), ("tauC", ["-2", -1, 0, 1])):
        with pytest.raises(InvalidValueError):
            TightWitness.from_json({**w.to_json(), key: bad})
