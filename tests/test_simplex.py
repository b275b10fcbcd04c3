import hashlib
import random
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bordersub import InvalidValueError, build_W, nullcone_feasible
from bordersub.simplex import Dictionary, phase_one

# sha256 of the outputs below, one repr per line.  The random systems were
# digested over their homogenisations by the simplex that still took
# negative right-hand sides (its pivots matched the full tableau's); the W
# certificates by the full-tableau simplex itself: the pivot rule must
# still visit the same vertices and return the same point
RANDOM_SYSTEMS_DIGEST = "e4ab2b022b0d0b08267edfb43dac59a44672ae31b15569ddc61920d8089afb1b"
W_CERTIFICATES_DIGEST = "eb34591e3b9f2a0e90f10d07a426347fc4f53eafadacdab55572172158ce032f"
# sha256 of the raw phase_one outputs ((x, den), None) or (None, y) over the
# same random systems, computed before pivots skipped identity rescales
RANDOM_OUTPUTS_DIGEST = "e205caa2a4042ea93757d50341dacf864ff420417bcf84d56fd7aebf7e284c8a"
# Dictionary.pivots of nullcone_feasible(build_W(n)) for n = 2..8, the sha256
# of the n = 7, 8 certificates, and the sha256 of the (raw output, pivots)
# of every warm solve in the add/copy sequences below; all computed before
# pivots with piv == den skipped the cross-multiplication and before
# ``add`` put artificials at a fixed offset
W_PIVOTS = [3, 21, 67, 229, 402, 778, 1325]
W_LARGE_CERTIFICATES_DIGEST = "a534fb6b8e70a257b9e201863cc05de1f4ebabaadd9bab1738f65df5beab4af7"
WARM_OUTPUTS_COUNT = 4181
WARM_OUTPUTS_DIGEST = "9d7a8ff2ce588b0f87af43f82af41510c6999562c283290f4c4a93f6b208bc53"


def _digest(results):
    return hashlib.sha256("\n".join(map(repr, results)).encode()).hexdigest()


def integer_rows(cons):
    """Each rational row and its rhs times the lcm of their denominators,
    the integer rows the simplex takes."""
    out = []
    for row, b in cons:
        row = [Fraction(c) for c in row]
        b = Fraction(b)
        den = lcm(b.denominator, *(c.denominator for c in row))
        out.append(([int(c * den) for c in row], int(b * den)))
    return out


def homogenised(num_vars, cons):
    """The integer rows (a, -b) >= 0 and t >= 1 over (x, t), for rational
    rows (a, b) of any sign: a solution (x, t) gives the solution x / t of
    {a . x >= b}, and Farkas multipliers on the first rows refute it."""
    rows = [(row + [-b], 0) for row, b in integer_rows(cons)]
    return rows + [([0] * num_vars + [1], 1)]


def solution(num_vars, cons):
    """The simplex's solution of the integer system, whose right-hand
    sides are >= 0, as Fractions, or None when it is infeasible."""
    point, _ = phase_one(num_vars, cons)
    if point is None:
        return None
    x, den = point
    return [Fraction(v, den) for v in x]


def general_solution(num_vars, cons):
    """A solution of the rational system {a . x >= b} as Fractions, found
    through its homogenisation, or None when it is infeasible."""
    point = solution(num_vars + 1, homogenised(num_vars, cons))
    if point is None:
        return None
    *x, t = point
    return [v / t for v in x]


def test_empty_system():
    assert phase_one(3, []) == (([0, 0, 0], 1), None)


def test_negative_right_hand_side_is_refused():
    with pytest.raises(InvalidValueError):
        phase_one(2, [([1, 0], 1), ([0, 1], -1)])


def test_trivially_infeasible():
    assert solution(2, [([0, 0], 1)]) is None


def test_single_constraint():
    x = solution(2, [([1, -1], 1)])
    assert x[0] - x[1] >= 1


def test_opposing_pair_infeasible():
    # a >= 1 and -a >= 0 cannot hold together
    assert solution(1, [([1], 1), ([-1], 0)]) is None


def test_planted_feasible_systems():
    # constraints generated from a known solution are always satisfiable
    rng = random.Random(31)
    for _ in range(120):
        d = rng.randint(1, 6)
        target = [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(d)]
        cons = []
        for _ in range(rng.randint(1, 12)):
            row = [rng.randint(-3, 3) for _ in range(d)]
            value = sum(c * t for c, t in zip(row, target))
            slack = Fraction(rng.randint(0, 4), rng.randint(1, 3))
            cons.append((row, value - slack))
        x = general_solution(d, cons)
        assert x is not None
        for row, b in cons:
            assert sum(c * xi for c, xi in zip(row, x)) >= b


def test_gordan_infeasible_systems():
    # plant a positive combination of rows summing to the zero form while
    # requiring each row >= 1: infeasible by construction
    rng = random.Random(37)
    for _ in range(60):
        d = rng.randint(1, 5)
        k = rng.randint(2, 4)
        rows = [[rng.randint(-3, 3) for _ in range(d)] for _ in range(k - 1)]
        last = [-sum(r[j] for r in rows) for j in range(d)]
        rows.append(last)
        cons = [(row, 1) for row in rows]
        assert solution(d, cons) is None


def test_determinism():
    cons = [([1, 2, -1], 1), ([-1, 0, 1], 0), ([0, 1, 1], 2)]
    assert solution(3, cons) == solution(3, cons)


def fourier_motzkin_feasible(num_vars, constraints):
    """Independent decision procedure: eliminate variables one at a time by
    combining opposing pairs.  Exponential, fine for tiny systems."""
    cons = [([Fraction(c) for c in row], Fraction(b)) for row, b in constraints]
    for var in range(num_vars):
        pos, neg, rest = [], [], []
        for row, b in cons:
            a = row[var]
            if a > 0:
                pos.append(([c / a for c in row], b / a))
            elif a < 0:
                neg.append(([c / -a for c in row], b / -a))
            else:
                rest.append((row, b))
        new = rest
        for prow, pb in pos:
            for nrow, nb in neg:
                # x >= pb - sum(p) and -x >= nb + sum(n): combine
                row = [p + q for p, q in zip(prow, nrow)]
                row[var] = Fraction(0)
                new.append((row, pb + nb))
        cons = new
    return all(b <= 0 for _, b in cons)


def test_against_fourier_motzkin_oracle():
    rng = random.Random(43)
    agree_feasible = agree_infeasible = 0
    for _ in range(250):
        d = rng.randint(1, 3)
        m = rng.randint(1, 6)
        cons = [([rng.randint(-2, 2) for _ in range(d)], rng.randint(-2, 2)) for _ in range(m)]
        simplex_says = general_solution(d, cons) is not None
        fm_says = fourier_motzkin_feasible(d, cons)
        assert simplex_says == fm_says, cons
        if simplex_says:
            agree_feasible += 1
        else:
            agree_infeasible += 1
    # the sample must actually exercise both outcomes
    assert agree_feasible > 20 and agree_infeasible > 20


def random_systems():
    """500 seeded systems (d, rational rows); every fifth has fractional
    coefficients."""
    rng = random.Random(2208)
    for case in range(500):
        d = rng.randint(1, 6)
        m = rng.randint(0, 25)
        rational = case % 5 == 0
        cons = []
        for _ in range(m):
            if rational:
                row = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(d)]
            else:
                row = [rng.randint(-3, 3) for _ in range(d)]
            cons.append((row, rng.randint(-3, 3)))
        yield d, cons


def test_same_points_as_full_tableau():
    results = [general_solution(d, cons) for d, cons in random_systems()]
    assert sum(x is None for x in results) == 322
    assert _digest(results) == RANDOM_SYSTEMS_DIGEST


def test_same_points_and_farkas_multipliers_as_before():
    # the raw ((x, den), y) of every homogenised system: the integer
    # numerators and denominator as well as the multipliers; unlike the
    # nullcone systems', most pivots here rescale (piv != den)
    results = [phase_one(d + 1, homogenised(d, cons)) for d, cons in random_systems()]
    assert sum(point is None for point, _ in results) == 322
    assert _digest(results) == RANDOM_OUTPUTS_DIGEST


def verdict(num_vars, rows, outcome):
    """Whether outcome, a simplex result over the integer rows, is a point;
    checked here against every row: the point meets each, or y >= 0 with
    y^T A = 0 and y^T b > 0."""
    point, y = outcome
    assert (point is None) != (y is None)
    if point is not None:
        x, den = point
        assert den > 0
        for row, b in rows:
            assert sum(c * xi for c, xi in zip(row, x)) >= b * den
        return True
    assert len(y) == len(rows) and all(v >= 0 for v in y)
    for j in range(num_vars):
        assert sum(v * row[j] for v, (row, _) in zip(y, rows)) == 0
    assert sum(v * b for v, (_, b) in zip(y, rows)) > 0
    return False


def warm_equals_cold(num_vars, rows, prefix):
    """Solve rows[:prefix] from the start, then add the other rows one at a
    time to a copy of the last dictionary and solve again; every verdict
    must equal the one of solving the same rows from the start.  Returns
    the raw output and the pivot count of every warm solve."""
    first = lp = Dictionary(num_vars, rows[:prefix])
    feasible = phase_one(num_vars, rows[:prefix])[0] is not None
    out = lp.solve()
    assert verdict(num_vars, rows[:prefix], out) == feasible
    outputs = [(out, lp.pivots)]
    for r in range(prefix, len(rows)):
        lp = lp.copy()
        lp.add(*rows[r])
        feasible = phase_one(num_vars, rows[: r + 1])[0] is not None
        out = lp.solve()
        assert verdict(num_vars, rows[: r + 1], out) == feasible
        outputs.append((out, lp.pivots))
    # the copies left the first dictionary as it was: it takes all the
    # other rows at once and reaches the same verdict
    for row in rows[prefix:]:
        first.add(*row)
    out = first.solve()
    assert verdict(num_vars, rows, out) == feasible
    outputs.append((out, first.pivots))
    return outputs


def test_added_rows_give_the_verdicts_of_solving_from_the_start():
    # the homogenised systems with t >= 1 first, so that a prefix can be
    # infeasible, and a seeded prefix solved before the rest are added
    rng = random.Random(73)
    outputs = []
    for d, cons in random_systems():
        rows = homogenised(d, cons)
        rows = rows[-1:] + rows[:-1]
        outputs += warm_equals_cold(d + 1, rows, rng.randint(0, len(rows)))
    # and the same raw outputs and pivot counts as before ``add`` put the
    # new row's artificial at a fixed offset
    assert len(outputs) == WARM_OUTPUTS_COUNT
    assert _digest(outputs) == WARM_OUTPUTS_DIGEST


def test_same_W_certificates_as_full_tableau():
    certs = [nullcone_feasible(build_W(n)).certificate for n in range(2, 7)]
    assert _digest(certs) == W_CERTIFICATES_DIGEST


def test_same_W_pivots_and_certificates_up_to_n8(monkeypatch):
    # the pivot count of each W(n) LP, and the n = 7, 8 certificates, as
    # before pivots with piv == den skipped the cross-multiplication
    pivots = []
    real = Dictionary.solve

    def counted(lp):
        out = real(lp)
        pivots.append(lp.pivots)
        return out

    monkeypatch.setattr(Dictionary, "solve", counted)
    certs = [nullcone_feasible(build_W(n)).certificate for n in range(2, 9)]
    assert pivots == W_PIVOTS
    assert _digest(certs[5:]) == W_LARGE_CERTIFICATES_DIGEST


def _coefficient(rational):
    if rational:
        return st.fractions(min_value=-3, max_value=3, max_denominator=4)
    return st.integers(min_value=-3, max_value=3)


@st.composite
def systems(draw):
    d = draw(st.integers(min_value=0, max_value=6))
    rational = draw(st.booleans())
    row = st.lists(_coefficient(rational), min_size=d, max_size=d)
    cons = draw(st.lists(st.tuples(row, _coefficient(rational)), max_size=25))
    return d, cons


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(systems())
def test_phase_one_returns_a_point_or_farkas_multipliers(system):
    d, cons = system
    rows = integer_rows(cons)
    point, y = phase_one(d + 1, homogenised(d, cons))
    assert (point is None) != (y is None)
    if point is not None:
        x, den = point
        assert len(x) == d + 1 and all(type(v) is int for v in x)
        assert type(den) is int and den > 0 and x[d] >= den
        for row, b in cons:
            assert sum(c * Fraction(xi, x[d]) for c, xi in zip(row, x)) >= b
    else:
        # y >= 0, and on the original rows y^T A = 0 and y^T b > 0: no x
        # can meet every row
        assert len(y) == len(cons) + 1 and all(type(v) is int and v >= 0 for v in y)
        for j in range(d):
            assert sum(v * row[j] for v, (row, _) in zip(y, rows)) == 0
        assert sum(v * b for v, (_, b) in zip(y, rows)) > 0


def test_farkas_multipliers_on_planted_contradiction():
    # x0 - x1 >= 1, x1 >= 0, -x0 >= 0: the sum of all three rows reads 0 >= 1
    point, y = phase_one(2, [([1, -1], 1), ([0, 1], 0), ([-1, 0], 0)])
    assert point is None and y == [y[0]] * 3 and y[0] > 0


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(systems(), st.integers(min_value=0, max_value=26))
def test_added_rows_agree_with_solving_from_the_start(system, prefix):
    d, cons = system
    rows = homogenised(d, cons)
    warm_equals_cold(d + 1, rows[-1:] + rows[:-1], min(prefix, len(rows)))
