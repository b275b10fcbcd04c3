import random
from fractions import Fraction

from bordersub import (
    Tensor3,
    apply_gl,
    binary_cocharacter,
    check_degeneration_certificate,
    is_concise,
    nullcone_feasible,
    slices_along_a,
    slices_along_b,
    unit_orbit_member,
    unit_tensor,
)
from bordersub.orbit import gl_invariance_probe, random_invertible

W_STATE = Tensor3(2, {(1, 1, 2): Fraction(1), (1, 2, 1): Fraction(1), (2, 1, 1): Fraction(1)})
LEVI_CIVITA = Tensor3(
    3,
    {
        (1, 2, 3): Fraction(1),
        (2, 3, 1): Fraction(1),
        (3, 1, 2): Fraction(1),
        (1, 3, 2): Fraction(-1),
        (3, 2, 1): Fraction(-1),
        (2, 1, 3): Fraction(-1),
    },
)


def laplace_char_poly(mat):
    """det(xI - N) by cofactor expansion over polynomial coefficient lists
    (leading first); independent of the production recurrence."""

    def poly_mul(a, b):
        out = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] += x * y
        return out

    def poly_add(a, b):
        if len(a) < len(b):
            a, b = b, a
        a = list(a)
        for i in range(1, len(b) + 1):
            a[-i] += b[-i]
        return a

    def det(rows):
        if len(rows) == 1:
            return rows[0][0]
        total = [Fraction(0)]
        for j, entry in enumerate(rows[0]):
            if not any(entry):
                continue
            minor = [[r[c] for c in range(len(rows)) if c != j] for r in rows[1:]]
            term = poly_mul(entry, det(minor))
            if j % 2:
                term = [-c for c in term]
            total = poly_add(total, term)
        return total

    n = len(mat)
    rows = [
        [[Fraction(1), -Fraction(mat[i][j])] if i == j else [Fraction(0), -Fraction(mat[i][j])] for j in range(n)]
        for i in range(n)
    ]
    poly = det(rows)
    while len(poly) > 1 and poly[0] == 0:
        poly.pop(0)
    return poly


def test_char_poly_against_laplace_expansion():
    from bordersub.orbit import _char_poly

    rng = random.Random(73)
    for _ in range(40):
        n = rng.randint(1, 4)
        mat = [[Fraction(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)]
        assert _char_poly(mat) == laplace_char_poly(mat)


def test_diagonalizability_decisions():
    from bordersub.orbit import _is_diagonalizable

    one = Fraction(1)
    zero = Fraction(0)
    assert _is_diagonalizable([[one, zero], [zero, one]])  # repeated eigenvalue, still diagonal
    assert not _is_diagonalizable([[one, one], [zero, one]])  # Jordan block
    assert not _is_diagonalizable([[zero, one], [zero, zero]])  # nilpotent
    assert _is_diagonalizable([[zero, one], [-one, zero]])  # complex eigenvalues, squarefree


def test_conciseness():
    for n in range(1, 6):
        assert is_concise(unit_tensor(n))
    assert not is_concise(Tensor3(2, {(1, 1, 1): Fraction(1)}))
    assert is_concise(W_STATE)


def test_conciseness_unit_plus_perturbation():
    T = unit_tensor(3) + Tensor3(3, {(2, 1, 1): Fraction(2), (3, 1, 2): Fraction(-1)})
    assert is_concise(T)


def test_slices():
    fam = slices_along_a(W_STATE)
    assert fam.slices[0] == ((Fraction(0), Fraction(1)), (Fraction(1), Fraction(0)))
    assert fam.slices[1] == ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(0)))
    famb = slices_along_b(W_STATE)
    assert famb.slices[0] == ((Fraction(0), Fraction(1)), (Fraction(1), Fraction(0)))


def test_unit_tensor_member_up_to_6():
    for n in range(1, 7):
        assert unit_orbit_member(unit_tensor(n), seed=0).verdict == "member"


def test_w_state_non_member_with_nilpotent_reason():
    v = unit_orbit_member(W_STATE, seed=0)
    assert v.verdict == "non_member"
    assert "diagonalizable" in v.reason


def test_rank2_perturbation_member():
    T = unit_tensor(2) + Tensor3(2, {(2, 1, 2): Fraction(1)})
    assert unit_orbit_member(T, seed=0).verdict == "member"


def test_non_concise_is_non_member():
    v = unit_orbit_member(Tensor3(2, {(1, 1, 1): Fraction(1)}), seed=0)
    assert v.verdict == "non_member"
    assert "concise" in v.reason


def test_levi_civita_inconclusive():
    v = unit_orbit_member(LEVI_CIVITA, seed=0)
    assert v.verdict == "inconclusive"
    assert v.reason == "no invertible slice combination found within the retry budget"


# (g1, g2, g3) with entries in -2..2 whose product with the unit tensor has
# no invertible basis slice, and whose five seeded slice combinations (at
# the given seed) are all singular too; the combination grid finds one
SINGULAR_SLICE_MEMBERS = (
    (
        15,
        ([[-2, 2, -2], [1, 1, 0], [2, -2, 0]], [[-2, 0, 2], [-2, 1, 0], [0, -1, -2]], [[0, 2, -1], [-2, -2, 2], [2, 2, 2]]),
    ),
    (
        36,
        (
            [[0, 0, 2, -1, -2], [2, -1, -2, 0, -1], [-2, 1, 1, 2, 0], [0, 1, -2, 2, 0], [0, 0, 0, 1, 0]],
            [[-2, 2, -2, -2, 2], [0, 2, -2, -2, 2], [2, 2, -2, 0, 2], [2, 1, 0, -2, -1], [-2, -2, -2, -1, -1]],
            [[0, 1, -1, 2, -1], [0, -2, 2, -2, 2], [1, 2, 0, 0, 1], [-1, -2, -2, 0, 1], [0, 2, -2, -1, 0]],
        ),
    ),
)


def test_members_with_singular_slices_and_seeded_combinations():
    for seed, gs in SINGULAR_SLICE_MEMBERS:
        T = apply_gl(gs, unit_tensor(len(gs[0])))
        assert unit_orbit_member(T, seed=seed).verdict == "member"


def test_apply_gl_identity_and_scaling():
    T = unit_tensor(2) + Tensor3(2, {(2, 1, 2): Fraction(3)})
    eye = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]
    assert apply_gl((eye, eye, eye), T) == T
    two = [[Fraction(2), Fraction(0)], [Fraction(0), Fraction(2)]]
    assert apply_gl((two, eye, eye), T) == T.scale(2)


def test_member_stable_under_gl():
    rng = random.Random(3)
    T = unit_tensor(3)
    for _ in range(5):
        gs = [random_invertible(3, rng) for _ in range(3)]
        assert unit_orbit_member(apply_gl(gs, T), seed=1).verdict == "member"


def test_gl_invariance_probe_small():
    assert gl_invariance_probe(2, 15, seed=4) == []
    assert gl_invariance_probe(3, 10, seed=4) == []


def test_member_coexists_with_degeneration_certificate():
    # full diagonal and feasible off-part: doubly certified maximal tensor
    T = unit_tensor(2) + Tensor3(2, {(2, 1, 2): Fraction(1)})
    assert unit_orbit_member(T, seed=0).verdict == "member"
    off = T.support().difference([(1, 1, 1), (2, 2, 2)])
    outcome = nullcone_feasible(off)
    assert outcome.feasible
    assert check_degeneration_certificate(T, outcome.certificate).valid


def test_border_maximal_but_non_member_never_contradicts():
    # a tensor with a valid degeneration certificate may still fail the
    # orbit test; both verdicts are about different relations and coexist
    from bordersub import build_W, sample_coefficients, tensor_from_support

    W = build_W(3, "W")
    T = unit_tensor(3) + tensor_from_support(W, sample_coefficients(W, seed=0))
    assert check_degeneration_certificate(T, binary_cocharacter(3)).valid
    assert unit_orbit_member(T, seed=0).verdict in ("member", "non_member", "inconclusive")
