"""Exact integer matrix algebra: one fraction-free elimination kernel, Smith
normal form, lattice quotients, finite abelian groups, induced maps.

Everything here works over Z with Python's arbitrary-precision integers; no
floating point and no rational arithmetic is used anywhere.  Rank and
determinant come from a single routine, ``bareiss`` (fraction-free elimination,
Bareiss, Math. Comp. 22, 1968).  Inverses come from the Smith normal form,
which records U^-1 next to U, so a unimodular m has inverse V @ U.  Vectors are
tuples of ints treated as column vectors, so a matrix ``a`` acts on a vector
``v`` by ``a.apply(v)``.  A lattice L inside Z^n is presented by a relations
matrix whose *rows* are generators of L.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from operator import mul

from .errors import EnumerationCapError, LatticeNotPreservedError

DEFAULT_ENUMERATION_CAP = 10**6


@dataclass(frozen=True)
class IntMatrix:
    """Immutable integer matrix, entries stored row-major."""

    rows: int
    cols: int
    entries: tuple

    @staticmethod
    def from_rows(rows, cols=None):
        rows = tuple(map(tuple, rows))
        if cols is None:
            if not rows:
                raise ValueError("empty matrix needs an explicit column count")
            cols = len(rows[0])
        return IntMatrix(len(rows), cols, rows)

    @staticmethod
    def identity(n):
        return IntMatrix(n, n, tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))

    @staticmethod
    def zeros(rows, cols):
        return IntMatrix(rows, cols, tuple(tuple(0 for _ in range(cols)) for _ in range(rows)))

    def __post_init__(self):
        if len(self.entries) != self.rows or any(len(r) != self.cols for r in self.entries):
            raise ValueError("entry shape does not match rows x cols")

    def __matmul__(self, other):
        if self.cols != other.rows:
            raise ValueError("dimension mismatch in product")
        ot = tuple(zip(*other.entries)) if other.entries else ()
        data = tuple(
            tuple(sum(map(mul, row, col)) for col in ot)
            for row in self.entries
        )
        if self.cols == 0:
            data = tuple(tuple(0 for _ in range(other.cols)) for _ in range(self.rows))
        return IntMatrix(self.rows, other.cols, data)

    def apply(self, vec):
        """Matrix times column vector, returned as a tuple."""
        if len(vec) != self.cols:
            raise ValueError("vector length mismatch")
        return tuple(sum(map(mul, row, vec)) for row in self.entries)

    def transpose(self):
        data = tuple(zip(*self.entries)) if self.entries else tuple(() for _ in range(self.cols))
        if self.rows == 0:
            data = tuple(() for _ in range(self.cols))
        return IntMatrix(self.cols, self.rows, tuple(tuple(r) for r in data))

    def stack(self, other):
        """Rows of self followed by rows of other."""
        if self.cols != other.cols:
            raise ValueError("column mismatch in stack")
        return IntMatrix(self.rows + other.rows, self.cols, self.entries + other.entries)

    def det(self):
        """Determinant by fraction-free (Bareiss) elimination."""
        if self.rows != self.cols:
            raise ValueError("determinant of a non-square matrix")
        rank, pivot = bareiss(self.entries, self.cols)
        return pivot if rank == self.rows else 0

    def is_unimodular(self):
        return self.rows == self.cols and self.det() in (1, -1)


def bareiss(rows, ncols):
    """(rank, signed last pivot) of an integer matrix, by fraction-free elimination.

    Rows are swapped to find a pivot, columns without one are skipped, and each
    step divides exactly by the previous pivot.  For a nonsingular square
    matrix the signed last pivot is the determinant.
    """
    a = list(rows)
    rank, prev, sign = 0, 1, 1
    for col in range(ncols):
        piv = next((i for i in range(rank, len(a)) if a[i][col] != 0), None)
        if piv is None:
            continue
        if piv != rank:
            a[rank], a[piv] = a[piv], a[rank]
            sign = -sign
        top = a[rank]
        pc = top[col]
        for i in range(rank + 1, len(a)):
            f = a[i][col]
            a[i] = [(x * pc - f * y) // prev for x, y in zip(a[i], top)]
        prev = pc
        rank += 1
    return rank, sign * prev


def unimodular_inverse(m: IntMatrix) -> IntMatrix:
    """Exact inverse of a unimodular integer matrix: V @ U, since U @ m @ V = I."""
    if m.rows != m.cols:
        raise ValueError("not square")
    snf = smith_normal_form(m)
    if any(d != 1 for d in snf.diagonal):
        raise ValueError("matrix is not unimodular")
    return snf.V @ snf.U


@dataclass(frozen=True)
class SNFDecomposition:
    """U @ M @ V = D for the input M: U, V unimodular, U_inv = U^-1, D diagonal, d_i | d_{i+1}."""

    U: IntMatrix
    U_inv: IntMatrix
    D: IntMatrix
    V: IntMatrix

    @property
    def diagonal(self):
        return tuple(self.D.entries[i][i] for i in range(min(self.D.rows, self.D.cols)))


def smith_normal_form(m: IntMatrix) -> SNFDecomposition:
    """Smith normal form by elementary row/column operations.

    Pivots are chosen by minimal absolute value, which keeps intermediate
    entries small at the scales this package works at.  Each row operation on
    U is mirrored by its inverse column operation on U^-1.  Empty matrices are
    legal and produce identity transforms.
    """
    nr, nc = m.rows, m.cols
    a = [list(row) for row in m.entries]
    u = [[int(i == j) for j in range(nr)] for i in range(nr)]
    uinv = [[int(i == j) for j in range(nr)] for i in range(nr)]
    v = [[int(i == j) for j in range(nc)] for i in range(nc)]

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]
        for row in uinv:
            row[i], row[j] = row[j], row[i]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def add_row(src, dst, q):
        # row_dst += q * row_src
        a[dst] = [x + q * y for x, y in zip(a[dst], a[src])]
        u[dst] = [x + q * y for x, y in zip(u[dst], u[src])]
        for row in uinv:
            row[src] -= q * row[dst]

    def add_col(src, dst, q):
        for row in a:
            row[dst] += q * row[src]
        for row in v:
            row[dst] += q * row[src]

    def negate_row(i):
        a[i] = [-x for x in a[i]]
        u[i] = [-x for x in u[i]]
        for row in uinv:
            row[i] = -row[i]

    t = 0
    while t < min(nr, nc):
        piv = None
        for i in range(t, nr):
            for j in range(t, nc):
                if a[i][j] != 0 and (piv is None or abs(a[i][j]) < abs(a[piv[0]][piv[1]])):
                    piv = (i, j)
        if piv is None:
            break
        if piv[0] != t:
            swap_rows(t, piv[0])
        if piv[1] != t:
            swap_cols(t, piv[1])
        if a[t][t] < 0:
            negate_row(t)
        while True:
            # clear the pivot column with row operations
            dirty = False
            for i in range(t + 1, nr):
                if a[i][t] != 0:
                    q = a[i][t] // a[t][t]
                    if q:
                        add_row(t, i, -q)
                    if a[i][t] != 0:
                        # remainder is a strictly smaller pivot candidate
                        swap_rows(t, i)
                        if a[t][t] < 0:
                            negate_row(t)
                        dirty = True
            if dirty:
                continue
            # clear the pivot row with column operations
            for j in range(t + 1, nc):
                if a[t][j] != 0:
                    q = a[t][j] // a[t][t]
                    if q:
                        add_col(t, j, -q)
                    if a[t][j] != 0:
                        swap_cols(t, j)
                        dirty = True
            if dirty:
                continue
            # force the pivot to divide the remaining submatrix
            offender = None
            for i in range(t + 1, nr):
                for j in range(t + 1, nc):
                    if a[i][j] % a[t][t] != 0:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            add_row(offender, t, 1)
        t += 1

    return SNFDecomposition(
        U=IntMatrix.from_rows(u, cols=nr),
        U_inv=IntMatrix.from_rows(uinv, cols=nr),
        D=IntMatrix.from_rows(a, cols=nc) if nr else IntMatrix.zeros(0, nc),
        V=IntMatrix.from_rows(v, cols=nc),
    )


@dataclass(frozen=True)
class FinAbGroup:
    """Finitely generated abelian group: invariant factors (each >= 2) plus free rank.

    Torsion elements are tuples of residues modulo the invariant factors.
    """

    invariant_factors: tuple
    free_rank: int = 0

    def __post_init__(self):
        for d, e in zip(self.invariant_factors, self.invariant_factors[1:]):
            if e % d != 0:
                raise ValueError("invariant factors must form a divisibility chain")
        if any(d < 2 for d in self.invariant_factors):
            raise ValueError("invariant factors of 1 are dropped by convention")

    @property
    def torsion_order(self):
        n = 1
        for d in self.invariant_factors:
            n *= d
        return n

    @property
    def is_trivial(self):
        return self.free_rank == 0 and not self.invariant_factors


def torsion_elements(g: FinAbGroup, cap: int = DEFAULT_ENUMERATION_CAP):
    """All torsion elements of ``g`` as residue tuples, each yielded once."""
    if g.torsion_order > cap:
        raise EnumerationCapError(
            f"enumeration cap exceeded: torsion order {g.torsion_order} > {cap}")
    return itertools.product(*(range(d) for d in g.invariant_factors))


class LatticeQuotient:
    """Z^n modulo the row span of a relations matrix.

    Coordinates come from a Smith normal form of the transposed relations:
    with U @ R^T @ V = D, the map v -> U @ v carries the quotient to
    (+) Z/d_i  x  Z^(free_rank).  Torsion coordinates keep only the positions
    with d_i >= 2.
    """

    def __init__(self, ambient_rank: int, relation_rows: IntMatrix):
        if relation_rows.cols != ambient_rank:
            raise ValueError("relations must have ambient_rank columns")
        self.ambient_rank = ambient_rank
        self.relation_rows = relation_rows
        snf = smith_normal_form(relation_rows.transpose())
        self._u = snf.U
        self._uinv = snf.U_inv
        diag = list(snf.diagonal) + [0] * (ambient_rank - len(snf.diagonal))
        self._diag = tuple(diag)
        self.torsion_positions = tuple(i for i, d in enumerate(diag) if d >= 2)
        self.free_positions = tuple(i for i, d in enumerate(diag) if d == 0)
        self.group = FinAbGroup(
            invariant_factors=tuple(diag[i] for i in self.torsion_positions),
            free_rank=len(self.free_positions),
        )

    def to_full_coords(self, vec):
        """(torsion residues, free integer coordinates) of the class of vec."""
        w = self._u.apply(vec)
        tors = tuple(w[i] % self._diag[i] for i in self.torsion_positions)
        free = tuple(w[i] for i in self.free_positions)
        return tors, free

    def from_coords(self, coords):
        """A representative in Z^n of the torsion element with the given coordinates."""
        if len(coords) != len(self.torsion_positions):
            raise ValueError("coordinate length mismatch")
        w = [0] * self.ambient_rank
        for pos, c in zip(self.torsion_positions, coords):
            w[pos] = c % self._diag[pos]
        return self._uinv.apply(w)

    def contains(self, vec):
        """Whether vec lies in the relation lattice."""
        w = self._u.apply(vec)
        for i, d in enumerate(self._diag):
            if d == 0:
                if w[i] != 0:
                    return False
            elif w[i] % d != 0:
                return False
        return True


@dataclass(frozen=True)
class TorsionEndomorphism:
    """Endomorphism of a finite abelian group in torsion coordinates."""

    moduli: tuple
    matrix: tuple  # matrix[j][i] = j-th coordinate of the image of generator i

    def apply(self, coords):
        if len(coords) != len(self.moduli):
            raise ValueError("coordinate length mismatch")
        return tuple(
            sum(self.matrix[j][i] * coords[i] for i in range(len(coords))) % self.moduli[j]
            for j in range(len(self.moduli))
        )


def induced_endomorphism(q: LatticeQuotient, p: IntMatrix) -> TorsionEndomorphism:
    """Map induced by ``p`` on the torsion coordinates of ``q``.

    Requires p to map the relation lattice into itself; composition of
    matrices induces composition of the returned maps.
    """
    n = q.ambient_rank
    if p.rows != n or p.cols != n:
        raise ValueError("endomorphism must be n x n")
    for row in q.relation_rows.entries:
        if not q.contains(p.apply(row)):
            raise LatticeNotPreservedError("lattice not preserved")
    factors = q.group.invariant_factors
    cols = []
    for i in range(len(factors)):
        unit = tuple(1 if k == i else 0 for k in range(len(factors)))
        image = p.apply(q.from_coords(unit))
        tors, free = q.to_full_coords(image)
        if any(free):
            raise LatticeNotPreservedError("lattice not preserved")
        cols.append(tors)
    matrix = tuple(tuple(cols[i][j] for i in range(len(factors))) for j in range(len(factors)))
    return TorsionEndomorphism(moduli=factors, matrix=matrix)


def finite_cokernel_order(ambient_rank: int, combined_relations: IntMatrix):
    """Order of Z^n modulo the row span, or None when the quotient is infinite."""
    quot = LatticeQuotient(ambient_rank, combined_relations)
    if quot.group.free_rank > 0:
        return None
    return quot.group.torsion_order
