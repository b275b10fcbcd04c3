"""Acceptance suite: every headline number re-derived exactly (tolerance
zero throughout; everything is integer or rational arithmetic).

One test per criterion; each prints a PASS line so `pytest -s` (or the CLI
`bordersub reproduce`) reads as a checklist.
"""

from collections import Counter
from fractions import Fraction
from itertools import combinations, permutations, product
from math import comb

from bordersub import (
    Monomial,
    Support,
    Tensor3,
    TightWitness,
    TorusWeight,
    binary_cocharacter,
    build_W,
    check_degeneration_certificate,
    check_tight_witness,
    cone_stabilizer_dim,
    cone_stabilizer_structure,
    exhaustive_tight_search,
    find_tight_witness,
    generator_family,
    has_invariant_monomial_within,
    is_maximal_nullcone_support,
    is_torus_invariant,
    nullcone_feasible,
    orbit_cone_tangent_dim,
    orbit_dim_unit,
    positive_support,
    qmax_dimension_bound,
    sample_coefficients,
    sample_support,
    stabilizer_dim,
    tensor_from_support,
    unit_orbit_member,
    unit_tensor,
    weight_of,
)
from bordersub.orbit import gl_invariance_probe
from bordersub.tensors import W_VARIANTS

EX1 = TorusWeight(3, (5, 0, 2), (0, 1, -3), (-5, -1, 1))
EX2 = TorusWeight(3, (-2, -1, 0), (3, -2, 0), (-1, 3, 0))


def _sigma_images_of_staircases():
    out = set()
    for variant in W_VARIANTS:
        base = build_W(3, variant)
        for s in permutations((1, 2, 3)):
            out.add(tuple(sorted((s[i - 1], s[j - 1], s[k - 1]) for i, j, k in base)))
    return out


def test_criterion_1_formula_reproductions():
    for n in range(1, 6):
        w_size = (4 * n**3 - 3 * n**2 - n) // 6
        assert w_size == n**3 - n * (n + 1) * (2 * n + 1) // 6
        for variant in W_VARIANTS:
            assert len(build_W(n, variant)) == w_size
        assert len(generator_family(n)) == n + 3 * comb(n, 2) + 2 * comb(n, 3)
        assert qmax_dimension_bound(n) == (2 * n**3 + 3 * n**2 - 2 * n - 3) // 3
    print("PASS criterion 1: |W(n)|, generator count, dimension bound (n=1..5)")


def test_criterion_2_stabilizer_dimensions():
    for n in range(1, 6):
        full = stabilizer_dim(unit_tensor(n))
        assert full == 2 * n
        assert full - 2 == 2 * n - 2
        assert orbit_dim_unit(n) == 3 * n * n - 2 * n
    print("PASS criterion 2: unit-tensor stabilizer 2n (quotient 2n-2), orbit 3n^2-2n (n=1..5)")


def test_criterion_3_cone_stabilizer():
    for n in range(2, 6):
        want = (3 * n * n + n - 2) // 2
        assert cone_stabilizer_dim(n) == want
        rep = cone_stabilizer_structure(n)
        assert rep.dim_quotient == want
        assert len(rep.basis) == rep.dim_full == want + 2
        assert rep.triangular_ok and rep.trace_ok, rep.violations
    print("PASS criterion 3: cone stabilizer (3n^2+n-2)/2 with triangular structure (n=2..5)")


def test_criterion_4_main_bound_via_tangent_rank():
    expected = {2: 7, 3: 24, 4: 55}
    for n in range(2, 5):
        rep = orbit_cone_tangent_dim(n, seed=0)
        assert rep.value == expected[n]
        assert len(rep.attempts) <= 3
        count = (3 * n * n - 2) - cone_stabilizer_dim(n) + len(build_W(n, "W"))
        assert rep.value == count
    print("PASS criterion 4: tangent-rank dimensions 7/24/55 match the group-count identity (n=2..4)")


def test_criterion_5_degeneration_certificates():
    for n in range(1, 7):
        tw = binary_cocharacter(n)
        for i, j, k in product(range(1, n + 1), repeat=3):
            assert weight_of(tw, (i, j, k)) == 2 ** (n - j) + 2 ** (n - k) - 2 ** (n - i + 1)
        W = build_W(n, "W")
        T = unit_tensor(n) + tensor_from_support(W, sample_coefficients(W, seed=100 + n))
        assert check_degeneration_certificate(T, tw).valid
    print("PASS criterion 5: power-of-two cocharacter certifies unit+W with the closed-form weights (n=1..6)")


def test_criterion_6_example_1():
    sup = positive_support(EX1)
    assert len(sup) == 13
    assert nullcone_feasible(sup).feasible
    maximal, extendable = is_maximal_nullcone_support(sup)
    assert maximal and extendable == []
    assert tuple(sup.sorted_triples()) not in _sigma_images_of_staircases()
    print("PASS criterion 6: example-1 support is feasible, maximal, size 13, and new")


def test_criterion_7_example_2_and_enumeration(components_n3):
    sup = positive_support(EX2)
    assert len(sup) == 12
    maximal, _ = is_maximal_nullcone_support(sup)
    assert maximal
    enum = components_n3
    assert enum.complete
    comps = {tuple(s.sorted_triples()) for s in enum.components}
    assert tuple(sup.sorted_triples()) in comps
    assert tuple(positive_support(EX1).sorted_triples()) in comps
    assert _sigma_images_of_staircases() <= comps
    sizes = {len(s) for s in enum.components}
    assert Counter(len(s) for s in enum.components) == {13: 90, 12: 36}
    for factors in (
        ((1, 2, 3), (2, 1, 1), (3, 3, 2)),
        ((2, 3, 1), (3, 2, 2), (1, 1, 3)),
        ((1, 3, 2), (3, 2, 1), (2, 1, 3)),
    ):
        assert is_torus_invariant(Monomial(3, factors))
    print(
        "PASS criterion 7: example-2 size-12 maximal support, non-equidimensional "
        f"enumeration ({len(enum.components)} components, sizes {sorted(sizes)}), extra invariants"
    )


def test_criterion_8_feasibility_invariant_duality():
    cube2 = list(product((1, 2), repeat=3))
    checked = 0
    for k in range(0, 7):
        for sub in combinations(cube2, k):
            S = Support.of(2, sub)
            feasible = nullcone_feasible(S).feasible
            obstructed = has_invariant_monomial_within(S, 6) if k else False
            assert feasible == (not obstructed), S.sorted_triples()
            checked += 1
    assert checked == 247
    for s in range(300):
        S = sample_support(3, s, 10)
        feasible = nullcone_feasible(S).feasible
        obstructed = has_invariant_monomial_within(S, 9)
        assert feasible == (not obstructed), S.sorted_triples()
    print("PASS criterion 8: LP infeasibility == invariant-monomial obstruction (247 + 300 supports)")


def test_criterion_9_tightness():
    for n in range(2, 7):
        plane = Support.of(n, [t for t in product(range(1, n + 1), repeat=3) if 2 * t[0] == t[1] + t[2]])
        witness = TightWitness(
            n,
            tuple(3 - 2 * i for i in range(1, n + 1)),
            tuple(range(1, n + 1)),
            tuple(k - 3 for k in range(1, n + 1)),
        )
        assert check_tight_witness(plane, witness)
    cube2 = list(product((1, 2), repeat=3))
    for mask in range(256):
        S = Support.of(2, [t for b, t in enumerate(cube2) if mask >> b & 1])
        assert (find_tight_witness(S) is not None) == exhaustive_tight_search(S)
    for s in range(200):
        S = sample_support(3, ("tight", s), 10)
        assert (find_tight_witness(S) is not None) == exhaustive_tight_search(S)
    print("PASS criterion 9: affine witness validates (n=2..6); decision matches oracle (256 + 200 supports)")


def test_criterion_10_unit_orbit():
    for n in range(1, 7):
        assert unit_orbit_member(unit_tensor(n), seed=0).verdict == "member"
    w_state = Tensor3(2, {(1, 1, 2): Fraction(1), (1, 2, 1): Fraction(1), (2, 1, 1): Fraction(1)})
    assert unit_orbit_member(w_state, seed=0).verdict == "non_member"
    rank2 = unit_tensor(2) + Tensor3(2, {(2, 1, 2): Fraction(1)})
    assert unit_orbit_member(rank2, seed=0).verdict == "member"
    assert gl_invariance_probe(3, 50, seed=0) == []
    print("PASS criterion 10: unit orbit membership verdicts and 50-case base-change probe")
