"""Linear matroids over Q with exact rank computations, the base-polytope
minimum of the sup norm, and bias certificates.

A rational row is scaled once, by the lcm of its denominators, to a row of
integers; scaling a row by a nonzero constant changes no rank, so every rank
is then computed by the package's one fraction-free integer kernel,
``intlinalg.bareiss``.

The optimum value is computed from rank differences: the best ratio
(r(N) - r(N \\ A)) / w(A) over nonempty subsets A of the ground set, for
positive weights w, found by the same best-ratio search that bounds the
archimedean abscissa.  The search visits flats, not subsets: replacing N \\ A
by its closure keeps the rank drop and, the weights being positive, strictly
lowers the weight of A whenever the closure is larger.  So every maximizer of
positive ratio is the complement of a flat, and the first maximizer in
(size, lex) order over all subsets is the first one over flat complements.
An independent oracle recovers the same number from the polytope definition by
searching candidate levels and testing, with exact rational arithmetic,
whether some convex combination of basis indicators stays inside the box.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .errors import EnumerationCapError
from .intlinalg import bareiss

ORACLE_GROUND_CAP = 10
# The flat search costs O(rows * cols) integer operations per flat.  A square
# matrix in general position has the most flats for its row count, one per
# subset: 16 x 16 with entries in -50..50 takes about 5 s (Python 3.11), and
# each further row roughly doubles that.
BEST_RATIO_ROW_CAP = 16


def _integer_row(row):
    """The rational row scaled by the lcm of its denominators."""
    row = [Fraction(x) for x in row]
    scale = lcm(*(x.denominator for x in row))
    return tuple(int(x * scale) for x in row)


def _primitive(vector):
    """The nonzero integer vector divided by the gcd of its entries, its first
    nonzero entry made positive: two vectors are parallel exactly when their
    primitive forms are equal."""
    g = gcd(*vector)
    for x in vector:
        if x:
            break
    if x < 0:
        g = -g
    return tuple([x // g for x in vector]) if g != 1 else tuple(vector)


class LinearMatroid:
    """Ground set of rational row vectors, held as integer rows, with a cached rank oracle."""

    def __init__(self, rows):
        self.ground = tuple(_integer_row(row) for row in rows)
        if self.ground:
            self.ncols = len(self.ground[0])
            if any(len(row) != self.ncols for row in self.ground):
                raise ValueError("ragged rows")
        else:
            self.ncols = 0
        self._rank_cache = {}

    @property
    def size(self):
        return len(self.ground)

    def rank(self, indices):
        """Dimension of the span of the selected rows, by fraction-free elimination."""
        key = frozenset(indices)
        if key not in self._rank_cache:
            self._rank_cache[key] = bareiss([self.ground[i] for i in key], self.ncols)[0]
        return self._rank_cache[key]

    def full_rank(self):
        return self.rank(range(self.size)) == self.ncols

    def flats(self):
        """Every flat as (bitmask of its rows, rank), each listed once.

        N comes first, then a depth-first search from cl(empty), the zero rows.
        Each flat keeps, for every row outside it, a primitive integer residual
        modulo the flat's span, so its covers are the classes of equal
        residuals.  Going to the cover of residual v, with pivot p its first
        nonzero entry, maps every other residual u to v[p]*u - u[p]*v, which
        is zero exactly on the multiples of v; coordinate p of the result is
        zero and is dropped.  A hyperplane (rank r(N) - 1) is listed without
        residuals, since its one cover is N.
        """
        full = (1 << self.size) - 1
        total = self.rank(range(self.size))
        yield full, total
        residuals = {i: _primitive(row) for i, row in enumerate(self.ground) if any(row)}
        start = full ^ sum(1 << i for i in residuals)
        seen = {full, start}
        stack = [(start, 0, residuals)] if start != full else []
        while stack:
            mask, rank, residuals = stack.pop()
            yield mask, rank
            classes = {}
            for i, u in residuals.items():
                classes[u] = classes.get(u, 0) | 1 << i
            for v, members in classes.items():
                cover = mask | members
                if cover in seen:
                    continue
                seen.add(cover)
                if rank + 2 == total:
                    yield cover, rank + 1
                    continue
                p = next(k for k, x in enumerate(v) if x)
                a, head, tail = v[p], p + 1, v[p + 1:]
                reduced = {}
                for i, u in residuals.items():
                    if members >> i & 1:
                        continue
                    b = u[p]
                    if b:
                        reduced[i] = _primitive(
                            [a * x for x in u[:p]]
                            + [a * x - b * y for x, y in zip(u[head:], tail)])
                    else:  # a*u, whose primitive form is u itself
                        reduced[i] = u[:p] + u[head:]
                stack.append((cover, rank + 1, reduced))


@dataclass(frozen=True)
class BiasCertificate:
    """Witness subset: every basis meets it in at least beta elements."""

    subset: tuple
    alpha: int
    beta: int


def _require_full_rank(matroid):
    if isinstance(matroid, LinearMatroid) and not matroid.full_rank():
        raise ValueError("not full rank")


def _best_ratio(matroid, weights):
    """Largest (r(N) - r(N \\ A)) / w(A) over nonempty A, for positive weights w.

    The search runs over the flats of the matroid (see the module docstring):
    A is the complement of a flat other than N.  Ratios are compared by
    integer cross-multiplication, and among equal ratios the smallest
    (len(A), A) wins, so the witness (A, rank drop) is the first maximizer in
    (size, lex) order over all nonempty subsets.  A matroid of rank 0 has only
    ratio 0, first met at A = (0,).  The ground set must be nonempty, with at
    most BEST_RATIO_ROW_CAP elements, which is checked before any work.
    """
    size = matroid.size
    if size > BEST_RATIO_ROW_CAP:
        raise EnumerationCapError(
            f"best-ratio search too large: {size} rows exceed the cap of "
            f"{BEST_RATIO_ROW_CAP}")
    total = matroid.rank(range(size))
    if total == 0:
        return Fraction(0), ((0,), 0)
    full = (1 << size) - 1
    best_beta, best_weight, best_key = 0, 1, None
    for mask, rank in matroid.flats():
        if mask == full:
            continue
        rest = full ^ mask
        beta = total - rank
        weight = sum(w for i, w in enumerate(weights) if rest >> i & 1)
        gain = beta * best_weight - best_beta * weight
        if gain < 0:
            continue
        subset = tuple(i for i in range(size) if rest >> i & 1)
        key = (len(subset), subset)
        if gain == 0 and key >= best_key:
            continue
        best_beta, best_weight, best_key = beta, weight, key
    return Fraction(best_beta, best_weight), (best_key[1], best_beta)


def b_infinity(matroid):
    """Largest drop-rate of the rank, with a maximizing subset as certificate.

    Ties are broken by smallest subset size, then lexicographically.
    """
    if matroid.size == 0:
        raise ValueError("empty ground set")
    _require_full_rank(matroid)
    best, (subset, beta) = _best_ratio(matroid, (1,) * matroid.size)
    return best, BiasCertificate(subset=subset, alpha=len(subset), beta=beta)


def bases(matroid):
    """All maximal independent subsets, by exhaustive rank checks."""
    universe = tuple(range(matroid.size))
    total = matroid.rank(universe)
    return [b for b in itertools.combinations(universe, total) if matroid.rank(b) == total]


def b_infinity_oracle(matroid):
    """Minimum sup norm over the base polytope, straight from its definition.

    Searches the candidate levels beta/alpha and, for each, decides with an
    exact phase-one simplex whether some convex combination of basis
    indicators fits under the level.  Independent of the rank-difference
    formula used by b_infinity.
    """
    if matroid.size > ORACLE_GROUND_CAP:
        raise EnumerationCapError(
            f"instance too large: more than {ORACLE_GROUND_CAP} ground elements")
    _require_full_rank(matroid)
    m = matroid.size
    total = matroid.rank(range(m))
    indicators = [frozenset(b) for b in bases(matroid)]
    candidates = sorted({Fraction(beta, alpha)
                         for alpha in range(1, m + 1) for beta in range(0, total + 1)})
    lo, hi = 0, len(candidates) - 1
    if not _box_feasible(indicators, m, candidates[hi]):
        raise AssertionError("base polytope of a full-rank matroid cannot be empty")
    while lo < hi:
        mid = (lo + hi) // 2
        if _box_feasible(indicators, m, candidates[mid]):
            hi = mid
        else:
            lo = mid + 1
    return candidates[lo]


def _box_feasible(indicators, m, level):
    """Is there a convex combination x of the indicators with every x_i <= level?

    Phase-one simplex with Bland's rule on: sum(theta) + a = 1, and for each
    ground element i, sum(theta_B : i in B) + s_i = level; minimize a.
    """
    k = len(indicators)
    art = k + m
    nvars = k + m + 1
    rows = []
    rhs = []
    row0 = [Fraction(1)] * k + [Fraction(0)] * m + [Fraction(1)]
    rows.append(row0)
    rhs.append(Fraction(1))
    for i in range(m):
        row = [Fraction(1) if i in b else Fraction(0) for b in indicators]
        row += [Fraction(1) if j == i else Fraction(0) for j in range(m)]
        row += [Fraction(0)]
        rows.append(row)
        rhs.append(Fraction(level))
    basis = [art] + [k + i for i in range(m)]
    cost = [Fraction(0)] * nvars
    cost[art] = Fraction(1)
    # reduced cost row: z_j = c_j - sum over rows of c_basis * row; start value
    z = [cost[j] - rows[0][j] for j in range(nvars)]  # only row 0 has a costed basic var
    value = -rhs[0]
    while True:
        enter = next((j for j in range(nvars) if z[j] < 0), None)
        if enter is None:
            break
        leave = None
        best_ratio = None
        for r in range(len(rows)):
            if rows[r][enter] > 0:
                ratio = rhs[r] / rows[r][enter]
                if best_ratio is None or ratio < best_ratio or (
                        ratio == best_ratio and basis[r] < basis[leave]):
                    best_ratio = ratio
                    leave = r
        if leave is None:
            raise AssertionError("phase-one objective is unbounded")
        piv = rows[leave][enter]
        rows[leave] = [x / piv for x in rows[leave]]
        rhs[leave] /= piv
        for r in range(len(rows)):
            if r != leave and rows[r][enter] != 0:
                f = rows[r][enter]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[leave])]
                rhs[r] -= f * rhs[leave]
        if z[enter] != 0:
            f = z[enter]
            z = [x - f * y for x, y in zip(z, rows[leave])]
            value -= f * rhs[leave]
        basis[leave] = enter
    return -value == 0
