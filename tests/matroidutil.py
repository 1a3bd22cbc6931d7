"""Matroid utilities that only the tests use: an abstract matroid given by a
rank function, the exhaustive best-ratio search over all subsets, an
exhaustive bias test, and an exhaustive matroid intersection."""

import itertools
from fractions import Fraction


class RankOracleMatroid:
    """Abstract matroid given by an explicit rank function."""

    def __init__(self, size, rank_fn):
        self.size = size
        self._fn = rank_fn
        self._rank_cache = {}

    def rank(self, indices):
        key = frozenset(indices)
        if key not in self._rank_cache:
            self._rank_cache[key] = self._fn(key)
        return self._rank_cache[key]

    def flats(self):
        """Every closed subset as (bitmask, rank), found through the rank function."""
        universe = range(self.size)
        for r in range(self.size + 1):
            for subset in itertools.combinations(universe, r):
                rank = self.rank(subset)
                if all(self.rank(subset + (i,)) > rank for i in universe if i not in subset):
                    yield sum(1 << i for i in subset), rank


def best_ratio_oracle(matroid, weights):
    """Largest (r(N) - r(N \\ A)) / sum(weights[i] for i in A) over nonempty A.

    Subsets are searched by size, then lexicographically, and only a strictly
    larger ratio replaces the best, so the witness (A, rank drop) is the first
    maximizer in that order.  An empty ground set gives (None, None).
    """
    universe = tuple(range(matroid.size))
    total = matroid.rank(universe)
    best = None
    witness = None
    for size in range(1, len(universe) + 1):
        for subset in itertools.combinations(universe, size):
            rest = tuple(i for i in universe if i not in subset)
            beta = total - matroid.rank(rest)
            ratio = Fraction(beta, sum(weights[i] for i in subset))
            if best is None or ratio > best:
                best = ratio
                witness = (subset, beta)
    return best, witness


def is_biased(matroid, alpha, beta):
    """Whether some alpha-element subset meets every basis in >= beta elements."""
    if not 1 <= beta <= alpha <= matroid.size:
        raise ValueError("need 1 <= beta <= alpha <= ground size")
    universe = tuple(range(matroid.size))
    total = matroid.rank(universe)
    for subset in itertools.combinations(universe, alpha):
        rest = tuple(i for i in universe if i not in subset)
        if total - matroid.rank(rest) >= beta:
            return True, subset
    return False, None


def max_common_independent(m1, m2):
    """Largest common independent set of two matroids, by exhaustive search."""
    if m1.size != m2.size:
        raise ValueError("matroids must share a ground set")
    universe = tuple(range(m1.size))
    best = 0
    for size in range(len(universe), 0, -1):
        for subset in itertools.combinations(universe, size):
            if m1.rank(subset) == size and m2.rank(subset) == size:
                return size
    return best
