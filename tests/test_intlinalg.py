import random

import pytest

from toruscount.errors import EnumerationCapError, LatticeNotPreservedError
from toruscount.intlinalg import (
    FinAbGroup,
    IntMatrix,
    LatticeQuotient,
    bareiss,
    finite_cokernel_order,
    induced_endomorphism,
    smith_normal_form,
    torsion_elements,
    unimodular_inverse,
)


def check_snf(m):
    snf = smith_normal_form(m)
    assert snf.U @ m @ snf.V == snf.D
    assert snf.U @ snf.U_inv == IntMatrix.identity(m.rows)
    assert snf.U.is_unimodular()
    assert snf.V.is_unimodular()
    diag = snf.diagonal
    for i in range(snf.D.rows):
        for j in range(snf.D.cols):
            if i != j:
                assert snf.D.entries[i][j] == 0
    assert all(d >= 0 for d in diag)
    nonzero = [d for d in diag if d != 0]
    # zeros trail the nonzero factors
    assert list(diag[: len(nonzero)]) == nonzero
    for a, b in zip(nonzero, nonzero[1:]):
        assert b % a == 0
    return snf


def invariant_factors(snf):
    return tuple(d for d in snf.diagonal if d != 0)


def test_from_rows_rejects_ragged_rows_and_column_mismatch():
    for rows, cols in (([[1, 2], [3]], None), ([[1], [2, 3]], None), ([[1, 2]], 3),
                       ([[1, 2], [3, 4]], 1)):
        with pytest.raises(ValueError):
            IntMatrix.from_rows(rows, cols=cols)
    with pytest.raises(ValueError, match="explicit column count"):
        IntMatrix.from_rows([])
    assert IntMatrix.from_rows([], cols=2) == IntMatrix.zeros(0, 2)
    assert IntMatrix.from_rows(iter([[1, 2], [3, 4]]), cols=2).entries == ((1, 2), (3, 4))


def test_snf_identity():
    m = IntMatrix.identity(2)
    snf = check_snf(m)
    assert snf.D == m
    assert snf.U == IntMatrix.identity(2)
    assert snf.V == IntMatrix.identity(2)


def test_snf_column_matrix_gcd():
    m = IntMatrix.from_rows([[2], [3]])
    snf = check_snf(m)
    assert invariant_factors(snf) == (1,)


def test_snf_diag_2_3():
    m = IntMatrix.from_rows([[2, 0], [0, 3]])
    snf = check_snf(m)
    assert invariant_factors(snf) == (1, 6)


def test_snf_empty_matrices():
    for m in (IntMatrix.zeros(0, 3), IntMatrix.zeros(3, 0), IntMatrix.zeros(0, 0)):
        snf = check_snf(m)
        assert invariant_factors(snf) == ()


def test_snf_random_matrices_satisfy_invariants():
    rng = random.Random(20240)
    for _ in range(300):
        rows = rng.randrange(0, 7)
        cols = rng.randrange(0, 7)
        m = IntMatrix.from_rows(
            [[rng.randrange(-9, 10) for _ in range(cols)] for _ in range(rows)], cols=cols
        )
        snf = check_snf(m)
        assert len(invariant_factors(snf)) == bareiss(m.entries, m.cols)[0]


def test_unimodular_inverse_roundtrip():
    rng = random.Random(7)
    for _ in range(50):
        n = rng.randrange(1, 5)
        # random unimodular matrix from elementary operations
        m = [[int(i == j) for j in range(n)] for i in range(n)]
        for _ in range(10):
            i, j = rng.randrange(n), rng.randrange(n)
            if i != j:
                q = rng.randrange(-3, 4)
                m[i] = [x + q * y for x, y in zip(m[i], m[j])]
        mat = IntMatrix.from_rows(m, cols=n)
        inv = unimodular_inverse(mat)
        assert mat @ inv == IntMatrix.identity(n)


def test_lattice_quotient_trivial_group():
    q = LatticeQuotient(1, IntMatrix.from_rows([[2], [3]]))
    assert q.group.free_rank == 0
    assert q.group.invariant_factors == ()


def test_lattice_quotient_mu3():
    q = LatticeQuotient(1, IntMatrix.from_rows([[3]]))
    assert q.group.free_rank == 0
    assert q.group.invariant_factors == (3,)


def test_lattice_quotient_coordinate_kernel():
    q = LatticeQuotient(2, IntMatrix.from_rows([[0, 1]]))
    assert q.group.free_rank == 1
    assert q.group.invariant_factors == ()


def test_lattice_quotient_roundtrip_and_kill_relations():
    rng = random.Random(99)
    for _ in range(100):
        n = rng.randrange(1, 5)
        k = rng.randrange(0, 5)
        rel = IntMatrix.from_rows(
            [[rng.randrange(-6, 7) for _ in range(n)] for _ in range(k)], cols=n
        )
        q = LatticeQuotient(n, rel)
        for row in rel.entries:
            tors, free = q.to_full_coords(row)
            assert not any(tors) and not any(free)
            assert q.contains(row)
        for y in torsion_elements(q.group):
            assert q.to_full_coords(q.from_coords(y))[0] == tuple(y)


def test_lattice_quotient_full_rank_square_order_is_det():
    rng = random.Random(5150)
    for _ in range(100):
        n = rng.randrange(1, 5)
        rel = IntMatrix.from_rows(
            [[rng.randrange(-5, 6) for _ in range(n)] for _ in range(n)], cols=n
        )
        d = rel.det()
        if d == 0:
            continue
        q = LatticeQuotient(n, rel)
        assert q.group.free_rank == 0
        assert q.group.torsion_order == abs(d)


def test_induced_endomorphism_identity_and_negation():
    q = LatticeQuotient(1, IntMatrix.from_rows([[3]]))
    ident = induced_endomorphism(q, IntMatrix.identity(1))
    neg = induced_endomorphism(q, IntMatrix.from_rows([[-1]]))
    for y in torsion_elements(q.group):
        assert ident.apply(y) == y
        assert neg.apply(y) == tuple((-c) % 3 for c in y)


def test_induced_endomorphism_swap_on_diagonal_quotient():
    # Z^2 / <(3,3)>: torsion Z/3 generated by the class of (1,1); the swap fixes it
    q = LatticeQuotient(2, IntMatrix.from_rows([[3, 3]]))
    assert q.group.invariant_factors == (3,)
    swap = induced_endomorphism(q, IntMatrix.from_rows([[0, 1], [1, 0]]))
    for y in torsion_elements(q.group):
        assert swap.apply(y) == y


def test_induced_endomorphism_rejects_nonpreserving_matrix():
    q = LatticeQuotient(2, IntMatrix.from_rows([[0, 2]]))
    with pytest.raises(LatticeNotPreservedError):
        induced_endomorphism(q, IntMatrix.from_rows([[0, 1], [1, 0]]))


def test_induced_endomorphism_composition():
    rng = random.Random(321)
    trials = 0
    while trials < 40:
        n = rng.randrange(1, 4)
        rel = IntMatrix.from_rows(
            [[rng.randrange(-4, 5) for _ in range(n)] for _ in range(n)], cols=n
        )
        # diagonal-ish scalings always preserve the lattice
        s1 = rng.choice([1, -1, 2])
        s2 = rng.choice([1, -1, 3])
        p1 = IntMatrix.from_rows([[s1 * int(i == j) for j in range(n)] for i in range(n)])
        p2 = IntMatrix.from_rows([[s2 * int(i == j) for j in range(n)] for i in range(n)])
        q = LatticeQuotient(n, rel)
        if q.group.torsion_order > 500:
            continue
        e1 = induced_endomorphism(q, p1)
        e2 = induced_endomorphism(q, p2)
        e12 = induced_endomorphism(q, p1 @ p2)
        for y in torsion_elements(q.group):
            assert e12.apply(y) == e1.apply(e2.apply(y))
        trials += 1


def test_finite_cokernel_order_examples():
    assert finite_cokernel_order(2, IntMatrix.from_rows([[1, 0]])) is None
    # mu_3 with q = 7 and trivial Frobenius: relations (3) and (7 - 1)
    assert finite_cokernel_order(1, IntMatrix.from_rows([[3], [6]])) == 3
    assert finite_cokernel_order(1, IntMatrix.from_rows([[2], [6]])) == 2


def test_torsion_elements_enumeration():
    assert list(torsion_elements(FinAbGroup((), 0))) == [()]
    assert list(torsion_elements(FinAbGroup((3,), 0))) == [(0,), (1,), (2,)]
    assert len(list(torsion_elements(FinAbGroup((2, 6), 0)))) == 12


def test_torsion_elements_cap():
    with pytest.raises(EnumerationCapError):
        torsion_elements(FinAbGroup((2, 4), 0), cap=5)
