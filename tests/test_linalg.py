"""Cross-checks of ``bordersub.linalg`` (the structured echelon kernel and
what is built on it) against independent Fraction-based eliminations
written here, sharing no code with the package."""

import copy
import random
from fractions import Fraction
from math import gcd, lcm

from hypothesis import given, settings
from hypothesis import strategies as hs

from bordersub.linalg import _peel, kernel_int, primitive_int_vector, rank_int


def fraction_rref(rows):
    """Plain Gauss-Jordan elimination over Fraction: (pivot columns, RREF
    rows)."""
    m = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    cols = len(m[0]) if m else 0
    for c in range(cols):
        rank = len(pivots)
        piv = next((i for i in range(rank, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        pivval = m[rank][c]
        m[rank] = [x / pivval for x in m[rank]]
        for i in range(len(m)):
            if i != rank and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        pivots.append(c)
    return pivots, m[: len(pivots)]


def fraction_rank(rows):
    return len(fraction_rref(rows)[0])


def fraction_kernel(rows, ncols):
    """The canonical kernel basis read off the Fraction RREF: for each free
    column f in order, e_f minus the RREF entries of column f at the pivot
    columns, as a primitive integer vector with positive first nonzero
    entry."""
    pivots, rref = fraction_rref(rows)
    basis = []
    for f in range(ncols):
        if f in pivots:
            continue
        vec = [Fraction(int(c == f)) for c in range(ncols)]
        for r, c in enumerate(pivots):
            vec[c] = -rref[r][f]
        den = lcm(*(x.denominator for x in vec))
        ints = [int(x * den) for x in vec]
        g = gcd(*ints)
        if next(x for x in ints if x) < 0:
            g = -g
        basis.append([x // g for x in ints])
    return basis


def dense(forms, width):
    return [[form.get(c, 0) for c in range(width)] for form in forms]


def sparse(rows):
    return [dict(enumerate(row)) for row in rows]


def test_rank_against_fraction_elimination():
    rng = random.Random(61)
    for _ in range(150):
        nrows = rng.randint(1, 12)
        ncols = rng.randint(1, 10)
        rows = [[rng.randint(-7, 7) for _ in range(ncols)] for _ in range(nrows)]
        assert rank_int(sparse(rows)) == fraction_rank(rows)


def test_kernel_vectors_annihilate_and_count():
    rng = random.Random(67)
    for _ in range(80):
        nrows = rng.randint(1, 8)
        ncols = rng.randint(1, 9)
        rows = [[rng.randint(-5, 5) for _ in range(ncols)] for _ in range(nrows)]
        basis = kernel_int(sparse(rows), ncols)
        assert len(basis) == ncols - fraction_rank(rows)
        for vec in basis:
            for row in rows:
                assert sum(r * v for r, v in zip(row, vec)) == 0
        # primitive integer vectors
        for vec in basis:
            assert vec == primitive_int_vector(vec)
        assert basis == fraction_kernel(rows, ncols)


def test_kernel_of_empty_system_is_identity():
    assert kernel_int([], 3) == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


def test_primitive_int_vector():
    assert primitive_int_vector([Fraction(-1, 2), Fraction(3, 4), 0]) == [2, -3, 0]
    assert primitive_int_vector([0, Fraction(6), Fraction(-9)]) == [0, 2, -3]
    assert primitive_int_vector([0, 0]) == [0, 0]


@hs.composite
def sparse_forms(draw):
    """Sparse integer forms with explicit zero coefficients, empty forms,
    duplicate rows, one-entry rows sharing a column, and a chain
    {u0}, {u0, u1}, {u1, u2}, ... where each peeled unit row leaves the
    next one-term row."""
    width = draw(hs.integers(1, 7))
    coef = hs.integers(-3, 3)
    forms = draw(hs.lists(hs.dictionaries(hs.integers(0, width - 1), coef, max_size=width), max_size=9))
    if forms:
        forms += draw(hs.lists(hs.sampled_from(forms), max_size=3))
    shared = draw(hs.integers(0, width - 1))
    forms += [{shared: draw(coef)} for _ in range(draw(hs.integers(0, 3)))]
    chain = draw(hs.lists(hs.integers(0, width - 1), unique=True, max_size=width))
    nonzero = coef.filter(bool)
    forms += [{u: draw(nonzero) for u in chain[max(i - 1, 0) : i + 1]} for i in range(len(chain))]
    return width, chain, draw(hs.permutations(forms))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(sparse_forms())
def test_sparse_rank_and_kernel_match_fraction_rref(case):
    width, chain, forms = case
    before = copy.deepcopy(forms)
    rows = dense(forms, width)
    transpose = [{r: row[c] for r, row in enumerate(rows)} for c in range(width)]
    assert rank_int(forms) == fraction_rank(rows)
    assert rank_int(transpose) == fraction_rank(rows)
    assert kernel_int(forms, width) == fraction_kernel(rows, width)
    zero, residue = _peel(forms)
    assert set(chain) <= zero
    assert all(len(row) > 1 and not zero & set(row) and all(row.values()) for row in residue)
    assert forms == before  # the caller's rows are never modified


def test_dense_rows_with_and_without_a_one_term_row():
    # dense rows have no one-term row, so no row is peeled; one added
    # one-term row {c: v} peels c from every row, which must give the rank
    # and kernel of the same rows with e_c added
    rng = random.Random(83)
    for _ in range(60):
        nrows = rng.randint(2, 7)
        ncols = rng.randint(2, 8)
        rows = [[rng.choice([-3, -2, -1, 1, 2, 3]) for _ in range(ncols)] for _ in range(nrows)]
        c = rng.randrange(ncols)
        unit = [int(j == c) for j in range(ncols)]
        with_unit = rows + [unit]
        forms = sparse(rows)
        zero, residue = _peel(forms)
        keys = [tuple(sorted(row.items())) for row in residue]
        assert zero == set() and keys == sorted(set(keys))  # sorted, deduplicated
        assert set(keys) == {tuple(sorted(form.items())) for form in forms}
        assert rank_int(forms) == fraction_rank(rows)
        assert kernel_int(forms, ncols) == fraction_kernel(rows, ncols)
        forms = forms + [{c: rng.choice([-2, -1, 1, 2])}]
        zero, residue = _peel(forms)
        assert zero >= {c} and all(c not in row for row in residue)
        assert rank_int(forms) == fraction_rank(with_unit)
        assert kernel_int(forms, ncols) == fraction_kernel(with_unit, ncols)
