"""Assembly of the archimedean convergence matrices from block data, and the
bias-derived abscissa bounds that link them.

Block data describes how an m-dimensional representation splits over the real
points of a torus with n1 split, n2 compact, and n3 complex coordinate
factors: m1 and m2 rows of weights fixed by conjugation (plain and
sign-twisted), and m3 rows in swapped pairs, recorded as integer pairs
(b, b').  Every pair row must be genuinely non-fixed: some compact-factor
entry nonzero or some b different from b'.  The combined matrix M' has
m1+m2+2*m3 rows and n1+n2+2*n3 columns, so block data with more columns than
rows is rejected before assembly; every best-ratio search is bounded by
``matroid.BEST_RATIO_ROW_CAP`` rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import SchemaError
from .intlinalg import IntMatrix
from .matroid import LinearMatroid, _best_ratio, b_infinity

SIZE_FIELDS = ("n1", "n2", "n3", "m1", "m2", "m3")


def _is_int(x):
    return isinstance(x, int) and not isinstance(x, bool)


def _is_rows(data):
    return isinstance(data, (list, tuple)) and all(isinstance(r, (list, tuple)) for r in data)


def _as_int_matrix(name, data, rows, cols):
    if not _is_rows(data) or not all(_is_int(x) for r in data for x in r):
        raise SchemaError(f"archimedean.{name}: expected a list of rows of integers")
    if len(data) != rows or any(len(r) != cols for r in data):
        raise ValueError(f"dimension mismatch: {name} must be {rows}x{cols}")
    return IntMatrix.from_rows(data, cols=cols)


@dataclass(frozen=True)
class ArchBlocks:
    """Validated block data for one real place."""

    n1: int
    n2: int
    n3: int
    m1: int
    m2: int
    m3: int
    A1: IntMatrix
    A2: IntMatrix
    A3: IntMatrix
    C: IntMatrix
    B1: IntMatrix
    B2: IntMatrix
    B3: tuple  # m3 rows of (b, b') integer pairs, n3 per row

    @staticmethod
    def from_dict(doc):
        if not isinstance(doc, dict):
            raise SchemaError("archimedean: expected an object")
        for key in SIZE_FIELDS:
            if key not in doc:
                raise ValueError(f"dimension mismatch: missing size field '{key}'")
            if not _is_int(doc[key]):
                raise SchemaError(f"archimedean.{key}: expected an integer")
        n1, n2, n3, m1, m2, m3 = (doc[key] for key in SIZE_FIELDS)
        a1 = _as_int_matrix("A1", doc.get("A1", []), m1, n1)
        a2 = _as_int_matrix("A2", doc.get("A2", []), m2, n1)
        a3 = _as_int_matrix("A3", doc.get("A3", []), m3, n1)
        c = _as_int_matrix("C", doc.get("C", []), m3, n2)
        b1 = _as_int_matrix("B1", doc.get("B1", []), m1, n3)
        b2 = _as_int_matrix("B2", doc.get("B2", []), m2, n3)
        raw_b3 = doc.get("B3", [])
        if not _is_rows(raw_b3) or not all(
                isinstance(p, (list, tuple)) and len(p) == 2 and all(_is_int(x) for x in p)
                for row in raw_b3 for p in row):
            raise SchemaError("archimedean.B3: expected a list of rows of integer pairs")
        if len(raw_b3) != m3 or any(len(r) != n3 for r in raw_b3):
            raise ValueError(f"dimension mismatch: B3 must be {m3}x{n3} pairs")
        b3 = tuple(tuple((p[0], p[1]) for p in row) for row in raw_b3)
        blocks = ArchBlocks(n1, n2, n3, m1, m2, m3, a1, a2, a3, c, b1, b2, b3)
        blocks.validate()
        # The blocks are no larger than the document, but assembly allocates
        # zero blocks of m1 x n2 and m2 x n2, which it does not bound.
        if n1 + n2 + 2 * n3 > m1 + m2 + 2 * m3:
            raise ValueError(
                f"dimension mismatch: M' has n1+n2+2*n3 = {n1 + n2 + 2 * n3} columns but "
                f"only m1+m2+2*m3 = {m1 + m2 + 2 * m3} rows, so it cannot have full rank")
        return blocks

    def validate(self):
        for i in range(self.m3):
            c_row = self.C.entries[i]
            pairs = self.B3[i]
            if not (any(x != 0 for x in c_row) or any(b != bp for b, bp in pairs)):
                raise ValueError(
                    f"B3/C row {i}: swapped-pair row needs a nonzero compact entry "
                    "or b != b'")

    def b3_plus(self):
        return IntMatrix.from_rows(
            [[b + bp for b, bp in row] for row in self.B3], cols=self.n3)

    def b3_minus(self):
        return IntMatrix.from_rows(
            [[b - bp for b, bp in row] for row in self.B3], cols=self.n3)


@dataclass(frozen=True)
class ArchMatrices:
    """The three assembled integer matrices, with the row-class split sizes."""

    M_re: IntMatrix
    M_int: IntMatrix
    M_prime: IntMatrix
    m1: int
    m2: int
    m3: int


def _hstack(*mats):
    rows = mats[0].rows
    if any(m.rows != rows for m in mats):
        raise ValueError("dimension mismatch: row counts differ")
    return IntMatrix.from_rows(
        [sum((list(m.entries[i]) for m in mats), []) for i in range(rows)],
        cols=sum(m.cols for m in mats),
    )


def assemble(blocks: ArchBlocks) -> ArchMatrices:
    """Stack the blocks into the real, integral, and combined matrices."""
    b3p = blocks.b3_plus()
    b3m = blocks.b3_minus()
    m_re = (
        _hstack(blocks.A1, blocks.B1)
        .stack(_hstack(blocks.A2, blocks.B2))
        .stack(_hstack(blocks.A3, b3p))
    )
    m_int = _hstack(blocks.C, b3m)

    zeros1 = IntMatrix.zeros(blocks.m1, blocks.n2)
    zeros2 = IntMatrix.zeros(blocks.m2, blocks.n2)
    neg_c = IntMatrix.from_rows(
        [[-x for x in row] for row in blocks.C.entries], cols=blocks.n2)
    plus_plus = IntMatrix.from_rows(
        [[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(b3p.entries, b3m.entries)],
        cols=blocks.n3)
    plus_minus = IntMatrix.from_rows(
        [[a - b for a, b in zip(r1, r2)] for r1, r2 in zip(b3p.entries, b3m.entries)],
        cols=blocks.n3)
    m_prime = (
        _hstack(blocks.A1, zeros1, blocks.B1, blocks.B1)
        .stack(_hstack(blocks.A2, zeros2, blocks.B2, blocks.B2))
        .stack(_hstack(blocks.A3, blocks.C, plus_plus, plus_minus))
        .stack(_hstack(blocks.A3, neg_c, plus_minus, plus_plus))
    )
    return ArchMatrices(M_re=m_re, M_int=m_int, M_prime=m_prime,
                        m1=blocks.m1, m2=blocks.m2, m3=blocks.m3)


def _weighted_ratio(matroid, weights):
    """Best rank drop over total weight; 0 for a matrix without rows."""
    return _best_ratio(matroid, weights)[0] if matroid.size else Fraction(0)


def arch_abscissa(mats: ArchMatrices) -> Fraction:
    """Convergence bound from weighted bias ratios of the two matrices.

    Rows among the first m1+m2 of M_re count once, swapped-pair rows twice;
    the integral matrix contributes half its plain bias ratio.
    """
    re_matroid = LinearMatroid(mats.M_re.entries)
    if mats.M_re.rows and not re_matroid.full_rank():
        raise ValueError("M_re rank deficient")
    split = mats.m1 + mats.m2
    best_re = _weighted_ratio(
        re_matroid, [1 if i < split else 2 for i in range(re_matroid.size)])
    best_int = _weighted_ratio(LinearMatroid(mats.M_int.entries), [1] * mats.M_int.rows)
    return max(best_re, best_int / 2)


def check_domination(mats: ArchMatrices) -> bool:
    """Whether the abscissa bound is dominated by the combined matrix's optimum."""
    prime = LinearMatroid(mats.M_prime.entries)
    if not prime.full_rank():
        raise ValueError("M' rank deficient")
    value, _ = b_infinity(prime)
    return arch_abscissa(mats) <= value
