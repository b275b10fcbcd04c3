import hashlib
import random
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bordersub import (
    InvalidValueError,
    Tensor3,
    apply_gl,
    binary_cocharacter,
    check_degeneration_certificate,
    is_concise,
    nullcone_feasible,
    sample_support,
    slices_along_a,
    slices_along_b,
    unit_orbit_member,
    unit_tensor,
)
from bordersub import orbit
from bordersub.orbit import gl_invariance_probe, random_invertible
from bordersub.tensors import NONZERO_SMALL

W_STATE = Tensor3(2, {(1, 1, 2): Fraction(1), (1, 2, 1): Fraction(1), (2, 1, 1): Fraction(1)})


def alternating(n, terms):
    """The alternating tensor of the 3-form sum of e_a ^ e_b ^ e_c over the
    index triples (a, b, c) in terms."""
    entries = {}
    for term in terms:
        for perm in permutations(range(3)):
            inversions = sum(perm[x] > perm[y] for x in range(3) for y in range(x + 1, 3))
            entries[tuple(term[p] for p in perm)] = Fraction((-1) ** inversions)
    return Tensor3(n, entries)


LEVI_CIVITA = alternating(3, [(1, 2, 3)])
# e123 + e145 + e245 + e345: concise, and every slice combination is singular
ALTERNATING_5 = alternating(5, [(1, 2, 3), (1, 4, 5), (2, 4, 5), (3, 4, 5)])


def w_state_plus_unit(n):
    """W-state on {1, 2} plus the unit tensor on the rest: concise, not in
    the orbit of the unit tensor."""
    entries = dict(W_STATE.entries)
    entries.update({(i, i, i): Fraction(1) for i in range(3, n + 1)})
    return Tensor3(n, entries)


def laplace_charpoly(mat):
    """det(xI - N) by cofactor expansion over polynomial coefficient lists
    (leading first); a reference for the Bareiss determinant, sharing no code
    with it."""

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


def test_bareiss_determinant_and_adjugate():
    # det(M) = (-1)^n char(M)(0), and M adj(M) = det(M) I
    rng = random.Random(79)
    for _ in range(200):
        n = rng.randint(1, 5)
        mat = [[rng.choice((0, 0, 1, -1, 2, -3)) for _ in range(n)] for _ in range(n)]
        det = orbit._bareiss(mat)
        assert det == (-1) ** n * laplace_charpoly(mat)[-1]
        if det:
            adj = orbit._bareiss(mat, adjugate=True)
            assert orbit._mul(mat, adj) == [[det * int(i == j) for j in range(n)] for i in range(n)]


def test_random_invertible_pinned():
    # sha256 of the reprs computed with the Gauss-Jordan Fraction inverse as
    # the invertibility test: same rng stream, same accepted draws
    mats = [random_invertible(n, random.Random(s)) for n in range(1, 6) for s in range(40)]
    assert all(isinstance(x, Fraction) for m in mats for row in m for x in row)
    assert all(orbit._bareiss(m) for m in mats)
    digest = hashlib.sha256(repr(mats).encode()).hexdigest()
    assert digest == "086a6ac8a8aef98b5758b0cfe9f26609eae52df8ae887c19263c49bb9350baf8"


# monic polynomials, leading coefficient first
SQUAREFREE_BLOCKS = ([1, 0, 1], [1, 0, -2], [1, 0, 0, -2], [1, 1, 1], [1, 0, 0, 0, 1], [1, -3, 2], [1, -1], [1, 2], [1, 0])
REPEATED_ROOT_BLOCKS = ([1, -2, 1], [1, 0, 2, 0, 1], [1, 0, 0])  # (x-1)^2, (x^2+1)^2, x^2


def block_companion(polys):
    """Block-diagonal matrix of the companion matrices of the monic polys."""
    n = sum(len(p) - 1 for p in polys)
    mat = [[0] * n for _ in range(n)]
    at = 0
    for p in polys:
        d = len(p) - 1
        for i in range(d):
            if i:
                mat[at + i][at + i - 1] = 1
            mat[at + i][at + d - 1] = -p[d - i]
        at += d
    return mat


def test_diagonalizability_decisions():
    is_diagonalizable = orbit._is_diagonalizable
    assert is_diagonalizable([[1, 0], [0, 1]])  # repeated eigenvalue, still diagonal
    assert not is_diagonalizable([[1, 1], [0, 1]])  # Jordan block
    assert not is_diagonalizable([[0, 1], [0, 0]])  # nilpotent
    assert is_diagonalizable([[0, 1], [-1, 0]])  # complex eigenvalues, squarefree
    assert is_diagonalizable([[2, 0, 0], [0, 2, 0], [0, 0, 5]])  # repeated root, squarefree minimal polynomial
    assert not is_diagonalizable([[2, 1, 0], [0, 2, 0], [0, 0, 5]])
    # block companion matrices B: B is diagonalizable iff every block's
    # polynomial is squarefree, and P B adj(P) = det(P) P B P^-1 iff B is
    rng = random.Random("companion-blocks")
    cases = [([p], True) for p in SQUAREFREE_BLOCKS] + [([p], False) for p in REPEATED_ROOT_BLOCKS]
    cases += [([[1, -1]] * 3, True), ([[1, 2]] * 2 + [[1, -1]] * 4, True), ([[1, 0, 1]] * 3, True)]
    while len(cases) < 240:
        polys = [rng.choice(SQUAREFREE_BLOCKS) for _ in range(rng.randint(1, 4))]
        if rng.random() < 0.5:
            polys.insert(rng.randrange(len(polys) + 1), rng.choice(REPEATED_ROOT_BLOCKS))
        if sum(len(p) - 1 for p in polys) <= 6:
            cases.append((polys, all(p in SQUAREFREE_BLOCKS for p in polys)))
    assert sum(expected for _, expected in cases) > 80 and sum(not expected for _, expected in cases) > 60
    for polys, expected in cases:
        B = block_companion(polys)
        n = len(B)
        P = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
        while not orbit._bareiss(P):
            P = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
        M = orbit._mul(orbit._mul(P, B), orbit._bareiss(P, adjugate=True))
        assert is_diagonalizable(B) is expected, polys
        assert is_diagonalizable(M) is expected, polys


def test_conciseness():
    for n in range(1, 6):
        assert is_concise(unit_tensor(n))
    assert not is_concise(Tensor3(2, {(1, 1, 1): Fraction(1)}))
    assert is_concise(W_STATE)


def test_conciseness_reads_missing_index_values_before_building_slices(monkeypatch):
    def no_slices(*args):
        raise AssertionError("slice matrices built")

    monkeypatch.setattr(orbit, "_slice_matrices", no_slices)
    monkeypatch.setattr(orbit, "rank_int", no_slices)
    assert not is_concise(Tensor3(200, {}))
    # slots A and B see 1, 2, 3; slot C never sees 3
    T = Tensor3(3, {(1, 1, 1): Fraction(1), (2, 2, 2): Fraction(1), (3, 3, 1): Fraction(1)})
    assert not is_concise(T)
    v = unit_orbit_member(T, seed=0)
    assert (v.verdict, v.reason) == ("non_member", "not concise: some flattening has rank < n")


def test_conciseness_matches_fraction_rank_of_flattenings():
    # random tensors at n <= 4, sparse enough that many leave some index
    # value without an entry, against a Fraction elimination of the dense
    # n x n^2 flattenings
    from test_linalg import fraction_rank

    rng = random.Random(71)
    seen = set()
    for _ in range(300):
        n = rng.randint(1, 4)
        entries = {}
        for _ in range(rng.randint(0, 2 * n)):
            t = (rng.randint(1, n), rng.randint(1, n), rng.randint(1, n))
            entries[t] = Fraction(rng.choice((1, 2, -1, -3)), rng.randint(1, 3))
        T = Tensor3(n, entries)
        index = range(1, n + 1)
        at = lambda slot, a, b, c: (b, c)[:slot] + (a,) + (b, c)[slot:]
        flattening = lambda s: [[T.entries.get(at(s, a, b, c), 0) for b in index for c in index] for a in index]
        expected = all(fraction_rank(flattening(s)) == n for s in range(3))
        assert is_concise(T) is expected
        seen.add((expected, all(len({t[s] for t in T.entries}) == n for s in range(3))))
    # concise tensors, and non-concise ones with and without an empty slice
    assert seen == {(True, True), (False, True), (False, False)}


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


GRID_REASON = "slices span only singular matrices (grid of (n+1)^(n-1) points)"


def test_skew_slices_at_odd_n_are_non_members():
    # independent of the grid: every first-slot slice is skew-symmetric and n
    # is odd, so every combination M has det M = det M^T = det(-M) = -det M
    rng = random.Random("skew-slices")
    for T in (LEVI_CIVITA, ALTERNATING_5):
        n = T.n
        assert n % 2 and is_concise(T)
        slices = [[[T.coeff((i, j, k)) for k in range(1, n + 1)] for j in range(1, n + 1)] for i in range(1, n + 1)]
        assert all(s[j][k] == -s[k][j] for s in slices for j in range(n) for k in range(n))
        for _ in range(20):
            c = [rng.randint(-3, 3) for _ in range(n)]
            combo = [[sum(x * s[j][k] for x, s in zip(c, slices)) for k in range(n)] for j in range(n)]
            assert laplace_charpoly(combo)[-1] == 0
        v = unit_orbit_member(T, seed=0)
        assert (v.verdict, v.reason, v.side) == ("non_member", GRID_REASON, "A")


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


def orbit_corpus():
    """318 (tensor, seed) pairs: g . unit and g . (W-state + unit) at
    n = 2..5 with g entries in -2..2, the singular-slice members, rational
    base changes, random rational tensors (many not concise), unit tensors
    with a diagonal entry missing, and two alternating tensors."""
    cases = []
    for n in range(2, 6):
        unit, w_unit = unit_tensor(n), w_state_plus_unit(n)
        for k in range(30):
            rng = random.Random(f"orbit-pin:{n}:{k}")
            gs = [random_invertible(n, rng) for _ in range(3)]
            cases += [(apply_gl(gs, unit), k), (apply_gl(gs, w_unit), k)]
    for seed, gs in SINGULAR_SLICE_MEMBERS:
        cases.append((apply_gl(gs, unit_tensor(len(gs[0]))), seed))
    for k in range(30):
        rng = random.Random(f"orbit-pin:rational:{k}")
        n = 2 + k % 3
        gs = [[[Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(n)] for _ in range(n)] for _ in range(3)]
        cases.append((apply_gl(gs, unit_tensor(n) if k % 2 else w_state_plus_unit(n)), k))
    for k in range(40):
        rng = random.Random(f"orbit-pin:support:{k}")
        n = 2 + k % 3
        sup = sample_support(n, ("orbit-pin", k), n**3)
        coeffs = {t: Fraction(rng.choice(NONZERO_SMALL), rng.randint(1, 3)) for t in sup.sorted_triples()}
        cases.append((Tensor3(n, coeffs), k))
    for n in range(2, 6):
        cases.append((Tensor3(n, {(i, i, i): Fraction(1) for i in range(1, n)}), 0))
    cases += [(LEVI_CIVITA, 0), (ALTERNATING_5, 0)]
    return cases


def test_unit_orbit_verdicts_pinned():
    # sha256 of the verdict reprs computed with the Fraction slice algebra
    # (both slot families tested, one Fraction inverse per combination); the
    # two alternating tensors give the grid reason
    cases = orbit_corpus()
    reprs = [repr(unit_orbit_member(T, seed)) for T, seed in cases]
    assert len(reprs) == 318
    assert sum(r.startswith("OrbitVerdict(verdict='member'") for r in reprs) == 142
    digest = hashlib.sha256("\n".join(reprs).encode()).hexdigest()
    assert digest == "465a712e10852d4013703b5970a02ab6d5b5a2cdc01dc228340e141c95ce10a9"


def test_unit_orbit_verdicts_pinned_n6_to_8():
    # g . unit and g . (W-state + unit), three draws of g per n; sha256 of
    # the verdict reprs computed with the characteristic-polynomial test
    reprs = []
    for n in range(6, 9):
        for k in range(3):
            rng = random.Random(f"orbit-pin:{n}:{k}")
            gs = [random_invertible(n, rng) for _ in range(3)]
            for T in (unit_tensor(n), w_state_plus_unit(n)):
                reprs.append(repr(unit_orbit_member(apply_gl(gs, T), k)))
    assert sum(r.startswith("OrbitVerdict(verdict='member'") for r in reprs) == 9
    digest = hashlib.sha256("\n".join(reprs).encode()).hexdigest()
    assert digest == "7ac8bc6c095db73e2b5745ef45b23aeccb2ddd064f5057a2b3e5abfdd4b401cb"


def test_alternating_5_walks_the_whole_grid(monkeypatch):
    # every combination is singular: 5 basis slices, 5 seeded combinations
    # and the 6^4 grid points are each tested by one determinant
    tested = [0]
    real = orbit._bareiss

    def counted(m, adjugate=False):
        tested[0] += not adjugate
        return real(m, adjugate)

    monkeypatch.setattr(orbit, "_bareiss", counted)
    assert is_concise(ALTERNATING_5)
    v = unit_orbit_member(ALTERNATING_5, seed=0)
    assert (v.verdict, v.reason, v.side) == ("non_member", GRID_REASON, "A")
    assert tested[0] == 5 + 5 + 6**4 == 1306


@st.composite
def base_changed(draw):
    n = draw(st.integers(2, 4))
    entry = st.integers(-2, 2)
    gs = [
        draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n).filter(orbit._bareiss))
        for _ in range(3)
    ]
    member = draw(st.booleans())
    T = apply_gl(gs, unit_tensor(n) if member else w_state_plus_unit(n))
    c = Fraction(draw(st.integers(1, 5)) * draw(st.sampled_from((1, -1))), draw(st.integers(1, 5)))
    return T, member, c, draw(st.integers(0, 50))


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(base_changed())
def test_second_slot_agrees_and_scaling_invariance(case):
    T, member, c, seed = case
    expected = "member" if member else "non_member"
    assert orbit._side_verdict(T, seed, "A").verdict == expected
    assert orbit._side_verdict(T, seed, "B").verdict == expected
    assert unit_orbit_member(T, seed) == unit_orbit_member(T.scale(c), seed)


def test_apply_gl_identity_and_scaling():
    T = unit_tensor(2) + Tensor3(2, {(2, 1, 2): Fraction(3)})
    eye = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]
    assert apply_gl((eye, eye, eye), T) == T
    two = [[Fraction(2), Fraction(0)], [Fraction(0), Fraction(2)]]
    assert apply_gl((two, eye, eye), T) == T.scale(2)


def test_apply_gl_refuses_floats_and_booleans():
    # Fraction(0.1) keeps its binary expansion and Fraction(True) is 1
    for bad in (0.1, True):
        for slot in range(3):
            gs = [[[1]], [[1]], [[1]]]
            gs[slot] = [[bad]]
            with pytest.raises(InvalidValueError):
                apply_gl(gs, unit_tensor(1))


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
    assert unit_orbit_member(T, seed=0).verdict in ("member", "non_member")
