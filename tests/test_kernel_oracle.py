"""The integer kernel (Smith normal form, bareiss, det, matroid rank) checked
against sympy, an implementation that shares no code with it."""

import itertools
import random

import sympy
from sympy.matrices.normalforms import invariant_factors

from toruscount.intlinalg import IntMatrix, bareiss, smith_normal_form
from toruscount.matroid import LinearMatroid


def to_sympy(m):
    return sympy.Matrix(m.rows, m.cols, [x for row in m.entries for x in row])


def random_matrices(rng, count, max_dim=6):
    """Empty and zero matrices, then random ones, every third of low rank."""
    for rows, cols in ((0, 0), (0, 3), (3, 0), (1, 1), (3, 4), (4, 4)):
        yield IntMatrix.zeros(rows, cols)
    for k in range(count):
        rows, cols = rng.randrange(1, max_dim + 1), rng.randrange(1, max_dim + 1)
        if k % 3 == 0:
            inner = rng.randrange(1, min(rows, cols) + 1)
            left = IntMatrix.from_rows(
                [[rng.randrange(-3, 4) for _ in range(inner)] for _ in range(rows)])
            right = IntMatrix.from_rows(
                [[rng.randrange(-3, 4) for _ in range(cols)] for _ in range(inner)])
            yield left @ right
        else:
            yield IntMatrix.from_rows(
                [[rng.randrange(-9, 10) for _ in range(cols)] for _ in range(rows)])


def test_snf_invariant_factors_match_sympy():
    rng = random.Random(8128)
    for m in random_matrices(rng, 150):
        expected = tuple(int(d) for d in invariant_factors(to_sympy(m), domain=sympy.ZZ))
        assert smith_normal_form(m).diagonal == expected, m


def test_bareiss_rank_matches_sympy():
    rng = random.Random(496)
    for m in random_matrices(rng, 200):
        assert bareiss(m.entries, m.cols)[0] == to_sympy(m).rank(), m


def test_det_matches_sympy():
    rng = random.Random(28)
    square = [m for m in random_matrices(rng, 400) if m.rows == m.cols]
    assert len(square) > 40
    for m in square:
        assert m.det() == to_sympy(m).det(), m


def test_matroid_rank_on_rational_strings_matches_sympy():
    rng = random.Random(6)
    for _ in range(40):
        ncols = rng.randrange(1, 5)
        rows = []
        for _ in range(rng.randrange(1, 7)):
            if rows and rng.random() < 0.3:
                # a rational multiple of an earlier row keeps some subsets dependent
                base = rng.choice(rows)
                factor = sympy.Rational(rng.randrange(1, 5), rng.randrange(1, 4))
                rows.append([str(sympy.Rational(x) * factor) for x in base])
            else:
                rows.append([f"{rng.randrange(-4, 5)}/{rng.randrange(1, 6)}"
                             for _ in range(ncols)])
        matroid = LinearMatroid(rows)
        for size in range(len(rows) + 1):
            for subset in itertools.combinations(range(len(rows)), size):
                expected = sympy.Matrix(
                    size, ncols, [sympy.Rational(x) for i in subset for x in rows[i]]).rank()
                assert matroid.rank(subset) == expected, (rows, subset)
