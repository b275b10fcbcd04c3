"""Cross-checks of ``bordersub.linalg`` (the echelon kernel and what is
built on it) against independent Fraction-based eliminations written here,
sharing no code with the package."""

import random
from fractions import Fraction

from bordersub.linalg import kernel_int, primitive_int_vector, rank_int


def fraction_rank(rows):
    """Plain Gaussian elimination over Fraction."""
    m = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    cols = len(m[0]) if m else 0
    for c in range(cols):
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
        rank += 1
    return rank


def test_rank_against_fraction_elimination():
    rng = random.Random(61)
    for _ in range(150):
        nrows = rng.randint(1, 12)
        ncols = rng.randint(1, 10)
        rows = [[rng.randint(-7, 7) for _ in range(ncols)] for _ in range(nrows)]
        assert rank_int(rows) == fraction_rank(rows)


def test_kernel_vectors_annihilate_and_count():
    rng = random.Random(67)
    for _ in range(80):
        nrows = rng.randint(1, 8)
        ncols = rng.randint(1, 9)
        rows = [[rng.randint(-5, 5) for _ in range(ncols)] for _ in range(nrows)]
        basis = kernel_int(rows, ncols)
        assert len(basis) == ncols - fraction_rank(rows)
        for vec in basis:
            for row in rows:
                assert sum(r * v for r, v in zip(row, vec)) == 0
        # primitive integer vectors
        for vec in basis:
            assert vec == primitive_int_vector(vec)


def test_kernel_of_empty_system_is_identity():
    assert kernel_int([], 3) == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


def test_primitive_int_vector():
    assert primitive_int_vector([Fraction(-1, 2), Fraction(3, 4), 0]) == [2, -3, 0]
    assert primitive_int_vector([0, Fraction(6), Fraction(-9)]) == [0, 2, -3]
    assert primitive_int_vector([0, 0]) == [0, 0]
