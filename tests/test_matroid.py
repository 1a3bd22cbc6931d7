import random
from fractions import Fraction

import pytest

from toruscount.errors import EnumerationCapError
from toruscount.matroid import (
    BEST_RATIO_ROW_CAP,
    LinearMatroid,
    _best_ratio,
    b_infinity,
    b_infinity_oracle,
    bases,
)

from matroidutil import RankOracleMatroid, best_ratio_oracle, is_biased, max_common_independent


def test_rank_examples():
    m = LinearMatroid([(1, 0), (2, 0)])
    assert m.rank(()) == 0
    assert m.rank((0, 1)) == 1
    m2 = LinearMatroid([(1, 0), (0, 1), (1, 1)])
    assert m2.rank((0, 1, 2)) == 2


def test_rank_axioms_on_random_instances():
    rng = random.Random(42)
    for _ in range(30):
        rows = [[rng.randrange(-2, 3) for _ in range(3)] for _ in range(5)]
        m = LinearMatroid(rows)
        universe = range(m.size)
        import itertools

        subsets = [frozenset(s) for r in range(m.size + 1)
                   for s in itertools.combinations(universe, r)]
        for a in subsets:
            assert 0 <= m.rank(a) <= len(a)
            for e in universe:
                assert m.rank(a | {e}) <= m.rank(a) + 1
        rng.shuffle(subsets)
        for a, b in zip(subsets[:40], subsets[40:80]):
            assert m.rank(a) + m.rank(b) >= m.rank(a | b) + m.rank(a & b)
            if a <= b:
                assert m.rank(a) <= m.rank(b)


def test_b_infinity_identity():
    # the full set witnesses (3,3)-bias; the declared tie-break prefers the
    # smallest maximizing subset, so a singleton of ratio 1 is returned
    m = LinearMatroid([(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    value, cert = b_infinity(m)
    assert value == 1
    assert cert.subset == (0,)
    assert Fraction(cert.beta, cert.alpha) == 1
    ok, witness = is_biased(m, 3, 3)
    assert ok and witness == (0, 1, 2)


def test_b_infinity_parallel_rows():
    value, cert = b_infinity(LinearMatroid([(1,), (1,)]))
    assert value == Fraction(1, 2)
    assert cert.subset == (0, 1)


def test_b_infinity_three_rows_in_plane():
    value, cert = b_infinity(LinearMatroid([(1, 0), (0, 1), (1, 1)]))
    assert value == Fraction(2, 3)
    assert cert.subset == (0, 1, 2)
    assert cert.beta == 2


def test_b_infinity_requires_full_rank():
    with pytest.raises(ValueError, match="not full rank"):
        b_infinity(LinearMatroid([(1, 0), (2, 0)]))


def test_oracle_matches_on_named_instances():
    for rows in ([(1, 0), (0, 1)], [(1,), (1,)], [(1, 0), (0, 1), (1, 1)]):
        m = LinearMatroid(rows)
        assert b_infinity_oracle(m) == b_infinity(m)[0]


def test_oracle_ground_cap():
    m = LinearMatroid([(1,)] * 11)
    with pytest.raises(EnumerationCapError, match="too large"):
        b_infinity_oracle(m)


def test_is_biased_examples():
    ident = LinearMatroid([(1, 0), (0, 1)])
    ok, witness = is_biased(ident, 1, 1)
    assert ok and witness in ((0,), (1,))
    plane = LinearMatroid([(1, 0), (0, 1), (1, 1)])
    assert is_biased(plane, 1, 1) == (False, None)
    ok, witness = is_biased(plane, 3, 2)
    assert ok and witness == (0, 1, 2)


def test_full_rank_matrix_is_m_n_biased():
    rng = random.Random(11)
    for _ in range(20):
        n = rng.randrange(1, 4)
        m_rows = rng.randrange(n, 6)
        rows = [[rng.randrange(-3, 4) for _ in range(n)] for _ in range(m_rows)]
        m = LinearMatroid(rows)
        if not m.full_rank():
            continue
        ok, witness = is_biased(m, m_rows, n)
        assert ok and witness == tuple(range(m_rows))


def test_bias_definition_matches_rank_characterization():
    rng = random.Random(23)
    for _ in range(40):
        n = rng.randrange(1, 4)
        m_rows = rng.randrange(1, 6)
        m = LinearMatroid([[rng.randrange(-2, 3) for _ in range(n)] for _ in range(m_rows)])
        all_bases = bases(m)
        total = m.rank(range(m.size))
        import itertools

        for subset in itertools.chain.from_iterable(
                itertools.combinations(range(m.size), r) for r in range(1, m.size + 1)):
            rest = tuple(i for i in range(m.size) if i not in subset)
            drop = total - m.rank(rest)
            literal = min(len(set(b) & set(subset)) for b in all_bases)
            for beta in range(1, total + 1):
                assert (drop >= beta) == (literal >= beta)


def test_b_infinity_matches_oracle_on_random_instances():
    rng = random.Random(314)
    done = 0
    while done < 60:
        n = rng.randrange(1, 5)
        m_rows = rng.randrange(n, 8)
        rows = [[Fraction(rng.randrange(-3, 4), rng.choice((1, 1, 2)))
                 for _ in range(n)] for _ in range(m_rows)]
        m = LinearMatroid(rows)
        if not m.full_rank():
            continue
        assert b_infinity(m)[0] == b_infinity_oracle(m)
        done += 1


def test_abstract_rank_oracle_matroid():
    # uniform matroid U(2, 4): every pair is a basis
    u24 = RankOracleMatroid(4, lambda s: min(len(s), 2))
    value, cert = b_infinity(u24)
    assert value == Fraction(2, 4)
    assert b_infinity_oracle(u24) == Fraction(1, 2)
    assert cert.alpha == 4 and cert.beta == 2


def test_matroid_intersection_minmax_on_random_pairs():
    rng = random.Random(555)
    import itertools

    for _ in range(25):
        n = rng.randrange(1, 4)
        m_rows = rng.randrange(1, 5)
        m1 = LinearMatroid([[rng.randrange(-2, 3) for _ in range(n)] for _ in range(m_rows)])
        m2 = LinearMatroid([[rng.randrange(-2, 3) for _ in range(n)] for _ in range(m_rows)])
        lhs = max_common_independent(m1, m2)
        universe = range(m_rows)
        rhs = min(
            m1.rank(a) + m2.rank(tuple(i for i in universe if i not in a))
            for r in range(m_rows + 1)
            for a in itertools.combinations(universe, r)
        )
        assert lhs == rhs


def random_ratio_instance(rng, max_rows=12):
    """Rows (1..max_rows of 1-5 columns, with zero, parallel and low-rank rows)
    and weights 1-3."""
    size = rng.randrange(1, max_rows + 1)
    cols = rng.randrange(1, 6)
    basis = [[rng.randrange(-3, 4) for _ in range(cols)]
             for _ in range(rng.randrange(1, cols + 1))]
    low_rank = rng.random() < 0.4
    rows = []
    for _ in range(size):
        kind = rng.random()
        if kind < 0.15:
            rows.append([0] * cols)
        elif kind < 0.35 and rows:
            scale = rng.choice((-2, -1, Fraction(1, 2), 2))
            rows.append([scale * x for x in rng.choice(rows)])
        elif low_rank:
            rows.append([sum(rng.randrange(-2, 3) * b[j] for b in basis) for j in range(cols)])
        else:
            rows.append([Fraction(rng.randrange(-3, 4), rng.choice((1, 2, 3)))
                         for _ in range(cols)])
    return rows, [rng.randrange(1, 4) for _ in range(size)]


def test_best_ratio_matches_subset_scan_on_random_instances():
    rng = random.Random(2718)
    for _ in range(100):
        rows, weights = random_ratio_instance(rng)
        got = _best_ratio(LinearMatroid(rows), weights)
        assert got == best_ratio_oracle(LinearMatroid(rows), weights), (rows, weights)
        assert type(got[0]) is Fraction


def test_best_ratio_of_rank_zero_matroid():
    assert _best_ratio(LinearMatroid([(0, 0), (0, 0)]), [2, 1]) == (0, ((0,), 0))


def test_flats_match_closed_subsets():
    rng = random.Random(1618)
    for _ in range(60):
        rows, _ = random_ratio_instance(rng, max_rows=8)
        m = LinearMatroid(rows)
        got = list(m.flats())
        assert len(got) == len(set(got))
        assert sorted(got) == sorted(RankOracleMatroid(m.size, m.rank).flats())


def test_flat_count_of_rank_two_general_position():
    # cl(empty), the 12 points and the whole set
    m = LinearMatroid([(1, k) for k in range(11)] + [(0, 1)])
    assert sum(1 for _ in m.flats()) == 14


def test_best_ratio_ranks_only_the_ground_set():
    class Counting(LinearMatroid):
        calls = 0

        def rank(self, indices):
            Counting.calls += 1
            return super().rank(indices)

    rng = random.Random(5)
    m = Counting([[rng.randrange(-4, 5) for _ in range(3)] for _ in range(12)])
    assert _best_ratio(m, [1] * 12) == best_ratio_oracle(LinearMatroid(m.ground), [1] * 12)
    # the flat search and _best_ratio each ask once for r(N); the subset scan
    # asked 2^12 times
    assert Counting.calls == 2


def test_best_ratio_row_cap():
    rows = [(1, k) for k in range(BEST_RATIO_ROW_CAP + 1)]
    with pytest.raises(EnumerationCapError,
                       match=f"{BEST_RATIO_ROW_CAP + 1} rows exceed the cap of "
                             f"{BEST_RATIO_ROW_CAP}"):
        b_infinity(LinearMatroid(rows))
    assert b_infinity(LinearMatroid(rows[:-1]))[0] == Fraction(2, BEST_RATIO_ROW_CAP)
