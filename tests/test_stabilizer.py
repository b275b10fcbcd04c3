import hashlib
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from bordersub import (
    InternalError,
    InvalidValueError,
    LieTriple,
    Support,
    Tensor3,
    act,
    build_W,
    cone_stabilizer_dim,
    cone_stabilizer_structure,
    orbit_cone_tangent_dim,
    orbit_dim_unit,
    qmax_dimension_bound,
    sample_coefficients,
    stabilizer_basis,
    stabilizer_dim,
    tensor_from_support,
    unit_tensor,
)

# sha256 of the outputs below, one repr per line, as computed when the cone
# condition was an RREF reduction against <unit, W> and the tangent rows
# kept the W unit vectors: the canonical kernel basis pins the row space
CONE_BASIS_DIGEST = "f267a3699832d6f4b90b41e223c504560107f0397e522e9a7697d18ce447bc5e"
TANGENT_ATTEMPTS_DIGEST = "2870d0e1b2eb9c7c964ae20303cd262fd85a629b2e131d6a579c9b4d2651aefc"
# (stabilizer_dim, stabilizer_basis) of non_integral_tensors(), computed when
# each action row was scaled to integers by the lcm of its own denominators
NON_INTEGRAL_STABILIZERS_DIGEST = "3085be222172932dd550349412a2e59a4a4397dd35a9ac30d398ac6ee62a2564"


def _digest(results):
    return hashlib.sha256("\n".join(map(repr, results)).encode()).hexdigest()


def matrix_unit(n, p, q):
    return tuple(tuple(Fraction(int(r == p - 1 and c == q - 1)) for c in range(n)) for r in range(n))


def zero_matrix(n):
    return tuple(tuple(Fraction(0) for _ in range(n)) for _ in range(n))


def identity(n, scale=1):
    return tuple(tuple(Fraction(scale * int(r == c)) for c in range(n)) for r in range(n))


def random_lie(n, rng):
    mat = lambda: tuple(tuple(Fraction(rng.randint(-3, 3)) for _ in range(n)) for _ in range(n))
    return LieTriple(n, mat(), mat(), mat())


def random_tensor(n, rng):
    entries = {}
    for _ in range(rng.randint(1, n**3)):
        t = (rng.randint(1, n), rng.randint(1, n), rng.randint(1, n))
        entries[t] = Fraction(rng.choice((1, 2, -1, -3)))
    return Tensor3(n, entries)


def non_integral_tensors():
    """Seeded tensors with entries p/q, q <= 5, at n = 2..4, each followed
    by its multiple by -7/3."""
    rng = random.Random(53)
    out = []
    for n in (2, 3, 4):
        for _ in range(8):
            entries = {}
            for _ in range(rng.randint(1, n * n)):
                t = (rng.randint(1, n), rng.randint(1, n), rng.randint(1, n))
                entries[t] = Fraction(rng.choice((1, 2, 3, -1, -2, -3)), rng.randint(1, 5))
            T = Tensor3(n, entries)
            out += [T, T.scale(Fraction(-7, 3))]
    return out


def test_act_scalar_kernel_element():
    lt = LieTriple(3, identity(3), identity(3, -1), zero_matrix(3))
    rng = random.Random(1)
    for _ in range(10):
        assert act(lt, random_tensor(3, rng)).is_zero()


def test_act_matrix_unit_on_unit_tensor():
    lt = LieTriple(2, matrix_unit(2, 2, 1), zero_matrix(2), zero_matrix(2))
    out = act(lt, unit_tensor(2))
    assert out.entries == {(2, 1, 1): Fraction(1)}


def test_act_additive_in_algebra_and_tensor():
    rng = random.Random(9)
    for _ in range(15):
        a, b = random_lie(2, rng), random_lie(2, rng)
        T, U = random_tensor(2, rng), random_tensor(2, rng)
        assert act(a + b, T) == act(a, T) + act(b, T)
        assert act(a, T + U) == act(a, T) + act(a, U)
        for c in (0, Fraction(-7, 3)):
            assert act(a.scale(c), T) == act(a, T).scale(c) == act(a, T.scale(c))


def test_stabilizer_dim_unit():
    for n in range(1, 7):
        assert stabilizer_dim(unit_tensor(n)) == 2 * n


def test_stabilizer_dim_zero_tensor():
    assert stabilizer_dim(Tensor3(3, {})) == 27


def test_stabilizer_dim_scaling_invariant():
    rng = random.Random(13)
    for _ in range(10):
        T = random_tensor(3, rng)
        assert stabilizer_dim(T.scale(Fraction(-7, 3))) == stabilizer_dim(T)


def test_stabilizer_basis_annihilates():
    rng = random.Random(15)
    for T in [unit_tensor(3), random_tensor(2, rng), random_tensor(3, rng)]:
        for lt in stabilizer_basis(T):
            assert act(lt, T).is_zero()


def test_stabilizer_basis_of_unit_is_diagonal_zero_sum():
    for n in range(1, 11):
        basis = stabilizer_basis(unit_tensor(n))
        assert len(basis) == 2 * n
        for lt in basis:
            for m in (lt.x, lt.y, lt.z):
                for r in range(n):
                    for c in range(n):
                        if r != c:
                            assert m[r][c] == 0
            for i in range(n):
                assert lt.x[i][i] + lt.y[i][i] + lt.z[i][i] == 0


def test_orbit_dim_unit():
    assert orbit_dim_unit(1) == 1
    assert orbit_dim_unit(2) == 8
    assert orbit_dim_unit(3) == 21
    for n in range(1, 6):
        assert orbit_dim_unit(n) == 3 * n * n - 2 * n


def test_cone_stabilizer_dims():
    assert cone_stabilizer_dim(1) == 1
    assert cone_stabilizer_dim(2) == 6
    assert cone_stabilizer_dim(3) == 14
    assert cone_stabilizer_dim(4) == 25


def test_cone_stabilizer_structure():
    rep1 = cone_stabilizer_structure(1)
    assert rep1.dim_full == 3 and rep1.passes
    for n in range(2, 6):
        rep = cone_stabilizer_structure(n)
        assert rep.dim_full == (3 * n * n + n + 2) // 2
        assert rep.dim_quotient == (3 * n * n + n - 2) // 2
        assert rep.passes, rep.violations


def test_cone_stabilizer_structure_n3_dim16():
    assert cone_stabilizer_structure(3).dim_full == 16


def test_tangent_dims():
    for n, want in ((2, 7), (3, 24), (4, 55)):
        rep = orbit_cone_tangent_dim(n, seed=0)
        assert rep.value == want
        assert rep.attempts[0][0] == 0


def test_tangent_identity_up_to_n5():
    for n in range(2, 6):
        rep = orbit_cone_tangent_dim(n, seed=3)
        identity_count = (3 * n * n - 2) - cone_stabilizer_dim(n) + len(build_W(n, "W"))
        assert rep.value == identity_count


def test_tangent_reports_attempts():
    rep = orbit_cone_tangent_dim(2, seed=11)
    assert all(isinstance(s, int) and isinstance(v, int) for s, v in rep.attempts)
    assert rep.value == max(v for _, v in rep.attempts)


def _coordinate(n, t):
    return (t[0] - 1) * n * n + (t[1] - 1) * n + (t[2] - 1)


def _tangent_oracle(n, coeffs):
    """The general path for the tangent value at unit + w, w given as
    {triple: coefficient} on every triple of its support, zeros allowed:
    the action map of unit + w outside the support, with zero coefficients
    dropped, one more column 3n^2 for the unit tensor at the diagonal, and
    |support| + rank - 1."""
    from bordersub.linalg import rank_int
    from bordersub.stabilizer import _action_map

    entries = {(i, i, i): 1 for i in range(1, n + 1)}
    entries.update((t, int(c)) for t, c in coeffs.items() if c)
    skip = {_coordinate(n, t) for t in coeffs}
    amap = {c: f for c, f in _action_map(n, entries).items() if c not in skip}
    for i in range(1, n + 1):
        amap[_coordinate(n, (i, i, i))][3 * n * n] = 1
    return len(coeffs) + rank_int(amap.values()) - 1


def test_tangent_rank_n2_never_degenerate():
    # exhaustive over all 6^3 coefficient assignments on the staircase
    # support: the general path gives 7 at every point
    from itertools import product as iproduct

    triples = build_W(2, "W").sorted_triples()
    values = {_tangent_oracle(2, dict(zip(triples, combo))) for combo in iproduct((1, 2, 3, -1, -2, -3), repeat=3)}
    assert values == {7}


def test_tangent_matches_general_path():
    for n in range(1, 11):
        W = build_W(n, "W")
        for s in range(3):
            assert orbit_cone_tangent_dim(n, s).value == _tangent_oracle(n, sample_coefficients(W, s))


@hs.composite
def staircase_points(draw):
    """n = 1..6 and integer coefficients on W(n), zeros included."""
    n = draw(hs.integers(1, 6))
    triples = build_W(n, "W").sorted_triples()
    values = draw(hs.lists(hs.integers(-50, 50) | hs.just(0), min_size=len(triples), max_size=len(triples)))
    return n, dict(zip(triples, values))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(staircase_points())
def test_tangent_rank_at_every_staircase_point(case):
    n, coeffs = case
    assert _tangent_oracle(n, coeffs) == qmax_dimension_bound(n)


def _lemma_sets(n, support):
    """(U, forced) by the general path: the unknowns of the unit tensor's
    terms at off-diagonal coordinates outside ``support``, and those of
    the terms of every e_w, w in ``support``, outside it."""
    from bordersub.stabilizer import _action_map

    inside = {_coordinate(n, t) for t in support}
    diag = {_coordinate(n, (i, i, i)) for i in range(1, n + 1)}
    unit = _action_map(n, {(i, i, i): 1 for i in range(1, n + 1)})
    forced = {u for t in support for c, form in _action_map(n, {t: 1}).items() if c not in inside for u in form}
    return {u for c, form in unit.items() if c not in inside | diag for u in form}, forced


def test_unit_forced_refuses_supports_outside_the_lemma(monkeypatch):
    import bordersub.stabilizer as st

    # H1: W' has triples of negative weight under W's cocharacter
    monkeypatch.setattr(st, "staircase_triples", lambda n: build_W(n, "W'").triples)
    for run in (lambda: st.cone_stabilizer_dim(3), lambda: st.orbit_cone_tangent_dim(3, 0)):
        with pytest.raises(InternalError, match="H1"):
            run()
    # H2: without (3,1,2), e_(2,1,2) puts x_32 there, and x_32 is not in U
    # since the unit's term of x_32 lands at (3,2,2), inside W
    smaller = Support.of(3, [t for t in build_W(3, "W").triples if t != (3, 1, 2)])
    U, forced = _lemma_sets(3, smaller)
    assert (3 - 1) * 3 + (2 - 1) in forced - U  # x_32
    monkeypatch.setattr(st, "staircase_triples", lambda n: smaller.triples)
    for run in (lambda: st.cone_stabilizer_dim(3), lambda: st.orbit_cone_tangent_dim(3, 0)):
        with pytest.raises(InternalError, match="H2"):
            run()


def test_unit_forced_matches_general_path_on_smaller_supports(monkeypatch):
    # W(n) less one triple at n = 3, 4, and less two at n = 3 where the one
    # term off U is y_12 or z_12 alone: the bitmask check raises exactly
    # when some e_w term outside the support falls off U, and where H2
    # holds the lemma gives the general path's tangent value there too
    import bordersub.stabilizer as st

    for n in (1, 2, 3, 4):
        W = build_W(n, "W")
        U, forced = _lemma_sets(n, W)
        assert forced <= U and st._unit_forced(n) == (len(W), sorted(U))
    cases = [(n, {t}) for n in (3, 4) for t in build_W(n, "W").sorted_triples()]
    cases += [(3, {(2, 1, 3), (3, 1, 3)}), (3, {(2, 3, 1), (3, 3, 1)})]
    held = 0
    for n, drop in cases:
        smaller = Support.of(n, [t for t in build_W(n, "W").triples if t not in drop])
        monkeypatch.setattr(st, "staircase_triples", lambda n: smaller.triples)
        U, forced = _lemma_sets(n, smaller)
        if not forced <= U:
            with pytest.raises(InternalError, match="H2"):
                st._unit_forced(n)
            continue
        held += 1
        assert st._unit_forced(n) == (len(smaller), sorted(U))
        value = _tangent_oracle(n, sample_coefficients(smaller, 0))
        assert st.orbit_cone_tangent_dim(n, 0).value == value == len(smaller) + len(U) + n - 1
    assert held == 10


def test_cone_structure_reports_planted_violations(monkeypatch):
    # n = 2 vectors as (position, value) pairs over (x, y, z) row-major: a
    # clean one, one with a non-constant diagonal sum only, and one with
    # x[1][2] and z[2][1] set
    import bordersub.stabilizer as st

    clean = ((0, 1), (3, 1))
    trace = ((0, 2), (3, 1))
    shape = ((1, 1), (10, 1))
    monkeypatch.setattr(st, "_cone_kernel", lambda n: (clean, trace))
    rep = st.cone_stabilizer_structure(2)
    assert rep.violations == ("basis[1]: diagonal sums not constant",)
    assert (rep.triangular_ok, rep.trace_ok, rep.passes) == (True, False, False)
    monkeypatch.setattr(st, "_cone_kernel", lambda n: (shape, clean))
    rep = st.cone_stabilizer_structure(2)
    assert rep.violations == (
        "basis[0]: x[1][2] nonzero above diagonal",
        "basis[0]: y/z[2][1] nonzero below diagonal",
    )
    assert (rep.triangular_ok, rep.trace_ok, rep.passes) == (False, True, False)
    assert rep.basis[0].z[1][0] == 1 and rep.dim_full == 2


def _full_cone_forms(n):
    """The unsplit cone condition as one list of sparse forms over the 3n^2
    unknowns per generator g, the unit tensor first and then e_w in sorted
    order: act(g) at every coordinate outside W + diag, and act(g) at
    (i,i,i) minus act(g) at (1,1,1) for i >= 2."""
    from bordersub.stabilizer import _action_map

    nn = n * n
    index = lambda t: (t[0] - 1) * nn + (t[1] - 1) * n + (t[2] - 1)
    W = build_W(n, "W")
    diag = [index((i, i, i)) for i in range(1, n + 1)]
    outside = set(range(n**3)) - {index(t) for t in W} - set(diag)
    per_generator = []
    for g in [{(i, i, i): 1 for i in range(1, n + 1)}] + [{t: 1} for t in W.sorted_triples()]:
        amap = _action_map(n, g)
        forms = [amap.get(c, {}) for c in sorted(outside)]
        for c in diag[1:]:
            form = dict(amap.get(c, {}))
            for unk, v in amap.get(diag[0], {}).items():
                form[unk] = form.get(unk, 0) - v
            forms.append(form)
        per_generator.append(forms)
    return per_generator


def test_cone_forms_match_per_generator_forms():
    from bordersub.linalg import _peel
    from bordersub.stabilizer import _cone_forms

    for n in range(1, 11):
        unit, *singles = _full_cone_forms(n)
        # the _cone_forms argument: an e_w generator gives one-term forms only
        assert all(len(form) <= 1 for forms in singles for form in forms)
        assert _peel(_cone_forms(n)) == _peel(unit + [form for forms in singles for form in forms])


def test_cone_condition_split():
    from bordersub.linalg import _peel, kernel_int, rank_int
    from bordersub.stabilizer import _cone_forms

    for n in range(1, 11):
        nn = n * n
        zero, rows = _peel(_cone_forms(n))
        triangular = sorted(
            [p * n + q for p in range(n) for q in range(p + 1, n)]
            + [off + p * n + q for off in (nn, 2 * nn) for p in range(n) for q in range(p)]
        )
        assert sorted(zero) == triangular and len(zero) == 3 * n * (n - 1) // 2
        # at n = 1 there is no trace row, and the three unknowns stay free
        diagonal = sorted(off + d * (n + 1) for off in (0, nn, 2 * nn) for d in range(n))
        cols = sorted({unk for row in rows for unk in row})
        assert len(rows) == n - 1 and cols == (diagonal if n > 1 else [])
    for n in range(2, 9):
        full = [form for per_generator in _full_cone_forms(n) for form in per_generator]
        assert [lt.flat() for lt in cone_stabilizer_structure(n).basis] == kernel_int(full, 3 * n * n)
        assert cone_stabilizer_dim(n) == 3 * n * n - rank_int(full) - 2
    # the closed-form basis is kernel_int's, the elimination staying the oracle
    for n in range(1, 13):
        want = tuple(tuple((c, a) for c, a in enumerate(v) if a) for v in kernel_int(_cone_forms(n), 3 * n * n))
        assert cone_stabilizer_structure(n).kernel == want


def test_cone_kernel_is_sparse():
    # each vector is e_f (1 pair), x_ii - y_ii or x_ii - z_ii (2 pairs, the
    # 2(n - 1) diagonal differences) or x_11 + ... + x_(n-1)(n-1) plus
    # x_nn, y_nn or z_nn (n pairs), so the pairs total dim_full + 5(n - 1)
    for n in range(1, 41):
        rep = cone_stabilizer_structure(n)
        for v in rep.kernel:
            positions = [c for c, _ in v]
            assert positions == sorted(set(positions)) and all(a for _, a in v) and len(v) <= n
        assert sum(map(len, rep.kernel)) == rep.dim_full + 5 * (n - 1)


def test_cone_kernel_recheck_fires(monkeypatch):
    # the closed form reads U off the one-term forms, so a form of two terms
    # or more beside the trace rows fails a check: x_nn - y_nn and
    # t_1 = x_11 + y_11 + z_11 are 1 on v_(x_nn) = x_11 + ... + x_nn, and a
    # repeated trace row keeps every vector in the kernel but leaves one
    # vector too many
    import bordersub.stabilizer as st

    real = st._cone_forms
    for n in (2, 3, 5):
        x_nn, y_nn = n * n - 1, 2 * n * n - 1
        for extra, message in (
            ({x_nn: 1, y_nn: -1}, "fails its re-check"),
            ({0: 1, n * n: 1, 2 * n * n: 1}, "fails its re-check"),
            (dict(real(n)[-1]), "cone kernel vectors for"),
        ):
            monkeypatch.setattr(st, "_cone_forms", lambda n: real(n) + [extra])
            with pytest.raises(InternalError, match=message):
                st.cone_stabilizer_structure(n)


def test_cone_basis_and_tangent_attempts_pinned():
    assert _digest([cone_stabilizer_structure(n).basis for n in range(2, 7)]) == CONE_BASIS_DIGEST
    attempts = [orbit_cone_tangent_dim(n, s).attempts for n in range(2, 8) for s in range(3)]
    assert _digest(attempts) == TANGENT_ATTEMPTS_DIGEST


def test_non_integral_stabilizers_pinned():
    results = [(stabilizer_dim(T), stabilizer_basis(T)) for T in non_integral_tensors()]
    assert _digest(results) == NON_INTEGRAL_STABILIZERS_DIGEST


def test_closed_forms_above_n8():
    for n in (9, 10, 16, 20, 30):
        assert cone_stabilizer_dim(n) == (3 * n * n + n - 2) // 2
    for n in (9, 10, 12, 16, 20):
        assert orbit_cone_tangent_dim(n, 0).value == qmax_dimension_bound(n)


def test_cone_and_tangent_counts_run_no_elimination(monkeypatch):
    # both counts and the cone basis are read off the lemma's U;
    # _unit_forced still checks H1 and H2, and the general path stays the
    # tests' oracle
    import bordersub.linalg as la
    import bordersub.stabilizer as st

    def refuse(*args):
        raise AssertionError("an elimination ran")

    for module, name in ((st, "rank_int"), (st, "kernel_int"), (la, "echelon_rows"), (la, "_peel")):
        monkeypatch.setattr(module, name, refuse)
    for n in range(1, 13):
        assert cone_stabilizer_dim(n) == (3 * n * n + n - 2) // 2
        assert orbit_cone_tangent_dim(n, 0).value == (2 * n**3 + 3 * n**2 - 2 * n - 3) // 3
        rep = cone_stabilizer_structure(n)
        assert rep.dim_full == (3 * n * n + n + 2) // 2 and rep.passes


def test_reproduce_tangent_checks_n5():
    from bordersub.suite import check_tangent

    checks = check_tangent(5)
    assert [name for name, _, _ in checks] == ["tangent-dim/n=5", "tangent-identity/n=5"]
    assert all(passed for _, passed, _ in checks)


def test_stabilizer_basis_of_sampled_staircase_point():
    # unit + w, w sampled on W(6): the cascade forces 45 unknowns and
    # leaves a 131 x 63 residue, so the basis comes from both parts
    from test_linalg import dense, fraction_kernel

    from bordersub.linalg import _peel
    from bordersub.stabilizer import _action_map
    from bordersub.tensors import integer_entries

    T = unit_tensor(6) + Tensor3(6, sample_coefficients(build_W(6, "W"), 0))
    forms = _action_map(6, integer_entries(T)).values()
    zero, rows = _peel(forms)
    assert (len(zero), len(rows), len({c for row in rows for c in row})) == (45, 131, 63)
    rows = dense(forms, 3 * 36)
    assert [lt.flat() for lt in stabilizer_basis(T)] == fraction_kernel(rows, 3 * 36)


def test_bound_values():
    assert qmax_dimension_bound(1) == 0
    assert qmax_dimension_bound(3) == 24
    assert qmax_dimension_bound(10) == 759


def test_bound_divisibility_invariant():
    for n in range(1, 40):
        assert (2 * n**3 + 3 * n**2 - 2 * n - 3) % 3 == 0
        qmax_dimension_bound(n)


def test_bound_rejects_nonpositive():
    with pytest.raises(InvalidValueError):
        qmax_dimension_bound(0)


def test_lie_triple_refuses_floats():
    with pytest.raises(InvalidValueError):
        LieTriple(1, ((0.1,),), ((0,),), ((0,),))
    with pytest.raises(InvalidValueError):
        LieTriple.zero(1).scale(0.5)
    with pytest.raises(InvalidValueError):
        LieTriple(1.0, ((0,),), ((0,),), ((0,),))
    assert LieTriple(1, ((Fraction(1, 10),),), ((0,),), ((0,),)).x == ((Fraction(1, 10),),)


def test_lie_triple_refuses_booleans():
    with pytest.raises(InvalidValueError):
        LieTriple(1, ((True,),), ((0,),), ((0,),))
    # an integer 1 seen first must not let True through as the same entry
    with pytest.raises(InvalidValueError):
        LieTriple(1, ((1,),), ((True,),), ((0,),))
    with pytest.raises(InvalidValueError):
        LieTriple(1, ((1,),), ((1.0,),), ((0,),))
    with pytest.raises(InvalidValueError):
        LieTriple.zero(1).scale(False)


def test_act_dimension_mismatch():
    from bordersub import DimensionMismatchError

    with pytest.raises(DimensionMismatchError):
        act(LieTriple.zero(2), unit_tensor(3))


def test_unit_plus_W_keeps_border_certificate_consistency():
    # stabilizer of unit + generic staircase perturbation is the scalar
    # kernel only: the perturbation breaks all diagonal freedom beyond it
    W = build_W(3, "W")
    T = unit_tensor(3) + tensor_from_support(W, sample_coefficients(W, seed=2))
    assert stabilizer_dim(T) >= 2
