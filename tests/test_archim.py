import random
from fractions import Fraction

import pytest

from toruscount import archim, matroid
from toruscount.archim import ArchBlocks, arch_abscissa, assemble, check_domination
from toruscount.cli import build_report
from toruscount.gallery import GL1_STANDARD
from toruscount.intlinalg import IntMatrix
from toruscount.matroid import LinearMatroid, _best_ratio
from toruscount.torus import load_spec

from matroidutil import best_ratio_oracle


def blocks_from(**kw):
    doc = {"n1": 0, "n2": 0, "n3": 0, "m1": 0, "m2": 0, "m3": 0,
           "A1": [], "A2": [], "A3": [], "C": [], "B1": [], "B2": [], "B3": []}
    doc.update(kw)
    return ArchBlocks.from_dict(doc)


def test_assemble_split_line():
    blocks = blocks_from(n1=1, m1=1, A1=[[1]], B1=[[]])
    mats = assemble(blocks)
    assert mats.M_re == IntMatrix.from_rows([[1]])
    assert mats.M_int.rows == 0
    assert mats.M_prime == IntMatrix.from_rows([[1]])


def test_assemble_compact_circle():
    blocks = blocks_from(n2=1, m3=1, A3=[[]], C=[[1]], B3=[[]])
    mats = assemble(blocks)
    assert mats.M_re.rows == 1 and mats.M_re.cols == 0
    assert mats.M_int == IntMatrix.from_rows([[1]])
    assert mats.M_prime == IntMatrix.from_rows([[1], [-1]])


def test_b3_plus_minus_arithmetic():
    blocks = blocks_from(n3=1, m3=1, A3=[[]], C=[[]], B3=[[(1, 0)]])
    assert blocks.b3_plus() == IntMatrix.from_rows([[1]])
    assert blocks.b3_minus() == IntMatrix.from_rows([[1]])


def test_pair_row_validity_enforced():
    with pytest.raises(ValueError, match="swapped-pair"):
        blocks_from(n3=1, m3=1, A3=[[]], C=[[]], B3=[[(2, 2)]])


def test_dimension_mismatch_detected():
    with pytest.raises(ValueError, match="dimension mismatch"):
        blocks_from(n1=2, m1=1, A1=[[1]], B1=[[]])


def test_arch_abscissa_gl1_real():
    mats = assemble(blocks_from(n1=1, m1=1, A1=[[1]], B1=[[]]))
    assert arch_abscissa(mats) == 1
    assert check_domination(mats)


def test_arch_abscissa_identity_two_split_rows():
    blocks = blocks_from(n1=2, m1=2, A1=[[1, 0], [0, 1]], B1=[[], []])
    assert arch_abscissa(assemble(blocks)) == 1


def test_arch_abscissa_single_integral_row():
    mats = assemble(blocks_from(n2=1, m3=1, A3=[[]], C=[[1]], B3=[[]]))
    assert arch_abscissa(mats) == Fraction(1, 2)
    assert check_domination(mats)


def test_rank_deficient_m_prime_is_an_error_not_false():
    # valid pair row, but the first column of M' is identically zero
    blocks = blocks_from(n1=1, n2=1, m3=1, A3=[[0]], C=[[1]], B3=[[]])
    mats = assemble(blocks)
    assert mats.M_prime == IntMatrix.from_rows([[0, 1], [0, -1]])
    with pytest.raises(ValueError, match="rank deficient"):
        check_domination(mats)


def random_blocks(rng, max_dim=3):
    while True:
        n1, n2, n3 = (rng.randrange(0, max_dim + 1) for _ in range(3))
        m1, m2, m3 = (rng.randrange(0, max_dim + 1) for _ in range(3))
        if n1 + n2 + 2 * n3 == 0 or m1 + m2 + 2 * m3 == 0:
            continue
        rnd = lambda r, c: [[rng.randrange(-2, 3) for _ in range(c)] for _ in range(r)]
        doc = {
            "n1": n1, "n2": n2, "n3": n3, "m1": m1, "m2": m2, "m3": m3,
            "A1": rnd(m1, n1), "A2": rnd(m2, n1), "A3": rnd(m3, n1),
            "C": rnd(m3, n2), "B1": rnd(m1, n3), "B2": rnd(m2, n3),
            "B3": [[(rng.randrange(-2, 3), rng.randrange(-2, 3)) for _ in range(n3)]
                   for _ in range(m3)],
        }
        try:
            blocks = ArchBlocks.from_dict(doc)
        except ValueError:
            continue
        mats = assemble(blocks)
        if mats.M_re.rows and not LinearMatroid(mats.M_re.entries).full_rank():
            continue
        if not LinearMatroid(mats.M_prime.entries).full_rank():
            continue
        return mats


def test_domination_on_random_blocks():
    rng = random.Random(909)
    for _ in range(40):
        mats = random_blocks(rng)
        assert check_domination(mats)


def test_best_ratio_matches_subset_scan_on_random_blocks():
    rng = random.Random(4711)
    for _ in range(40):
        mats = random_blocks(rng)
        split = mats.m1 + mats.m2
        for matrix, weights in (
                (mats.M_re, [1 if i < split else 2 for i in range(mats.M_re.rows)]),
                (mats.M_int, [1] * mats.M_int.rows),
                (mats.M_prime, [1] * mats.M_prime.rows)):
            if matrix.rows:
                assert (_best_ratio(LinearMatroid(matrix.entries), weights)
                        == best_ratio_oracle(LinearMatroid(matrix.entries), weights))


def test_m_prime_with_more_columns_than_rows_is_rejected_before_assembly():
    with pytest.raises(ValueError, match=r"n1\+n2\+2\*n3 = 1000000001.*m1\+m2\+2\*m3 = 1"):
        blocks_from(n1=1, n2=10**9, m1=1, A1=[[1]], B1=[[]])


def test_report_searches_each_matrix_once(monkeypatch):
    # M', M_re and M_int once each; check_domination is not run a second time
    searched = []

    def counting(matroid_, weights):
        searched.append(matroid_.ground)
        return _best_ratio(matroid_, weights)

    monkeypatch.setattr(matroid, "_best_ratio", counting)
    monkeypatch.setattr(archim, "_best_ratio", counting)
    doc = dict(GL1_STANDARD, archimedean={
        "n1": 1, "n2": 1, "n3": 0, "m1": 1, "m2": 0, "m3": 1,
        "A1": [[1]], "A3": [[1]], "C": [[1]], "B1": [[]], "B3": [[]]})
    blocks = build_report(load_spec(doc), doc)["archimedean_blocks"]
    assert len(searched) == 3 and len(set(searched)) == 3
    mats = assemble(ArchBlocks.from_dict(doc["archimedean"]))
    assert blocks["dominated"] == check_domination(mats)


def test_row_subsets_match_kernel_data_for_split_gl1():
    # for the split line, the single row corresponds to the single coweight:
    # deleting it drops the rank by 1, matching a kernel of dimension 1
    mats = assemble(blocks_from(n1=1, m1=1, A1=[[1]], B1=[[]]))
    matroid = LinearMatroid(mats.M_prime.entries)
    assert matroid.rank((0,)) == 1
    assert matroid.rank(()) == 0


def test_row_subsets_match_kernel_data_for_complex_restriction():
    # restriction of scalars from C to R: one swapped pair with weights (1, 0);
    # the pair of rows of the combined matrix behaves like the two coweights
    blocks = blocks_from(n3=1, m3=1, A3=[[]], C=[[]], B3=[[(1, 0)]])
    mats = assemble(blocks)
    assert mats.M_prime == IntMatrix.from_rows([[2, 0], [0, 2]])
    matroid = LinearMatroid(mats.M_prime.entries)
    total = matroid.rank((0, 1))
    # each single row drops the rank by one (kernel dimension 1 for singletons),
    # the pair drops it by two (the whole dual torus)
    assert total - matroid.rank((1,)) == 1
    assert total - matroid.rank(()) == 2
    assert check_domination(mats)
