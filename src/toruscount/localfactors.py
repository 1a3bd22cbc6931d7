"""Exact unramified local computations: equivariant homomorphism counts into
kernel subgroups, Frobenius fixed points on component groups, and the integer
coefficients of truncated local Euler factors.

The residue field of the base has q = p^k elements; the splitting extension is
unramified of degree f, the multiplicative order of the chosen Frobenius
element.  A character chi of the kernel's lattice pairs with the Frobenius
through the dual map chi -> q*chi - Fr^{-1}(chi); counting is done with exact
cokernel orders, with brute-force enumeration as the independent oracle.

A Frobenius-fixed conductor vector is constant on each cycle of the Frobenius
on the distinct coweights, so the truncated Euler factor lives on a grid with
one entry a_j per cycle and weight sum_j a_j w_j, w_j the cycle's total
multiplicity.  `local_factor` sums pi_leq over the grid as a series in x^{a.w}
and multiplies it by prod_j (1 - x^{w_j}); pi_leq visits only the distinct
entry values, and each hom_count is an exact cokernel order, computed once per
kernel and place.  The 2^k-term inclusion-exclusion of `pi_eq` stays as the oracle.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt, prod

from .errors import EnumerationCapError, SpecValidationError
from .intlinalg import (
    DEFAULT_ENUMERATION_CAP,
    IntMatrix,
    LatticeQuotient,
    finite_cokernel_order,
    induced_endomorphism,
    torsion_elements,
)
from .orbits import FiberTransport

VECTOR_CAP = 10**6


def _prime_power_split(q):
    if q < 2:
        raise SpecValidationError(f"q: {q} is not a prime power")
    # the least divisor > 1 is prime; none up to isqrt(q) means q itself is prime
    p = next((d for d in range(2, isqrt(q) + 1) if q % d == 0), q)
    rest = q
    while rest % p == 0:
        rest //= p
    if rest != 1:
        raise SpecValidationError(f"q: {q} is not a prime power")
    return p


@dataclass(frozen=True)
class LocalData:
    """One unramified place: residue size q = p^k and a Frobenius element."""

    q: int
    p: int
    frobenius: int
    f: int


def make_local_data(analysis, q, frobenius_index=0):
    p = _prime_power_split(q)
    if not 0 <= frobenius_index < analysis.spec.order:
        raise SpecValidationError(f"frobenius: element index {frobenius_index} out of range")
    return LocalData(q=q, p=p, frobenius=frobenius_index,
                     f=analysis.spec.element_order(frobenius_index))


class LocalCalculator:
    """Local-factor computations bound to one validated torus input."""

    def __init__(self, analysis):
        self.analysis = analysis
        self.lambda_ = analysis.lambda_invariant()
        # per place: the dual map and the Frobenius cycles; per (kernel, place):
        # hom_count.  DiagGroup compares by identity and is cached per support.
        self._dual_maps = {}
        self._frobenius_cycles = {}
        self._hom_counts = {}

    # -- plumbing ---------------------------------------------------------

    def _check_coprime(self, local):
        if gcd(local.q, self.lambda_) != 1:
            raise SpecValidationError(
                f"q not coprime to lambda: gcd({local.q}, {self.lambda_}) != 1")

    def _dual_map(self, local):
        """q * id - Fr^{-1} on the ambient lattice, built once per place."""
        phi = self._dual_maps.get(local)
        if phi is None:
            n = self.analysis.spec.n
            ainv = self.analysis.spec.inverse(local.frobenius)
            phi = self._dual_maps[local] = IntMatrix.from_rows(
                [[local.q * int(i == j) - ainv.entries[i][j] for j in range(n)]
                 for i in range(n)],
                cols=n,
            )
        return phi

    def frobenius_cycles(self, local):
        """Cycles of the Frobenius on the distinct coweights, computed once per place."""
        cycles = self._frobenius_cycles.get(local)
        if cycles is None:
            perm = self.analysis.coweights.action[local.frobenius]
            cycles = self._frobenius_cycles[local] = tuple(_cycles(perm))
        return cycles

    def frobenius_fixes(self, local, entries):
        perm = self.analysis.coweights.action[local.frobenius]
        return all(entries[perm[i]] == entries[i] for i in range(len(entries)))

    def _orbit_min(self, local, entries):
        out = list(entries)
        for cycle in self.frobenius_cycles(local):
            low = min(entries[i] for i in cycle)
            for i in cycle:
                out[i] = low
        return tuple(out)

    # -- counts -----------------------------------------------------------

    def hom_count(self, diag, local):
        """Number of kernel points z with Fr z = z^q, by exact cokernel order.

        Memoized per (kernel, place) on this calculator.
        """
        self._check_coprime(local)
        order = self._hom_counts.get((diag, local))
        if order is None:
            combined = diag.defining_rows.stack(self._dual_map(local).transpose())
            order = finite_cokernel_order(self.analysis.spec.n, combined)
            if order is None:
                raise AssertionError("infinite cokernel: free-part injectivity violated")
            self._hom_counts[diag, local] = order
        return order

    def hom_count_parts(self, diag, local):
        """(torsion cokernel order, free cokernel order); product equals hom_count."""
        self._check_coprime(local)
        phi = self._dual_map(local)
        quot = diag.quotient
        endo = induced_endomorphism(quot, phi)
        factors = endo.moduli
        r = len(factors)
        image_rows = [tuple(endo.matrix[j][i] for j in range(r)) for i in range(r)]
        modulus_rows = [tuple(d * int(i == j) for j in range(r)) for i, d in enumerate(factors)]
        torsion = finite_cokernel_order(
            r, IntMatrix.from_rows(image_rows + modulus_rows, cols=r))
        free = self._free_block_cokernel(quot, phi)
        return torsion, free

    def _free_block_cokernel(self, quot, phi):
        w = quot._u @ phi @ quot._uinv
        free = quot.free_positions
        block = IntMatrix.from_rows(
            [[w.entries[i][j] for j in free] for i in free], cols=len(free))
        order = finite_cokernel_order(len(free), block.transpose())
        if order is None:
            raise AssertionError("infinite cokernel: free-part injectivity violated")
        return order

    def hom_count_oracle(self, diag, local, cap=DEFAULT_ENUMERATION_CAP):
        """Brute force: enumerate the (q^f - 1)-torsion and test Fr z = z^q pointwise."""
        self._check_coprime(local)
        n = self.analysis.spec.n
        order_n = local.q ** local.f - 1
        scaled = IntMatrix.from_rows(
            [[order_n * int(i == j) for j in range(n)] for i in range(n)], cols=n)
        quot = LatticeQuotient(n, diag.defining_rows.stack(scaled))
        factors = quot.group.invariant_factors
        reps = [quot.from_coords(tuple(int(k == j) for k in range(len(factors))))
                for j in range(len(factors))]
        ainv = self.analysis.spec.inverse(local.frobenius)
        moved = [quot.to_full_coords(ainv.apply(rep))[0] for rep in reps]

        def value(point, coords):
            return sum(Fraction(a * b, d) for a, b, d in zip(point, coords, factors))

        count = 0
        for point in torsion_elements(quot.group, cap):
            ok = True
            for j in range(len(factors)):
                lhs = value(point, moved[j])
                rhs = Fraction(local.q * point[j], factors[j])
                if (lhs - rhs) % 1 != 0:
                    ok = False
                    break
            if ok:
                count += 1
        return count

    def a_count(self, s, local):
        """Fixed points of y -> Fr(y^q) on the component group of the kernel of S."""
        if not self.frobenius_fixes(local, s):
            raise SpecValidationError("frobenius does not fix the sub-multiset")
        diag = self.analysis.diag_group(s)
        transport = FiberTransport(self.analysis, local.frobenius, s)
        factors = diag.pi0.invariant_factors
        count = 0
        for y in torsion_elements(diag.pi0):
            powered = tuple((c * local.q) % d for c, d in zip(y, factors))
            if transport.apply(powered) == tuple(y):
                count += 1
        return count

    def a_count_via_cokernel(self, s, local):
        """Torsion-part cokernel order of the dual map; the classical route."""
        if not self.frobenius_fixes(local, s):
            raise SpecValidationError("frobenius does not fix the sub-multiset")
        torsion, _ = self.hom_count_parts(self.analysis.diag_group(s), local)
        return torsion

    # -- Euler factor coefficients -----------------------------------------

    def _diag_at_level(self, entries, level):
        support = tuple(i for i, c in enumerate(entries) if c <= level)
        return self.analysis.diag_for_support(support)

    def pi_leq(self, c, local):
        """Count of parameters with conductor at most c, for Frobenius-fixed c."""
        entries = tuple(c)
        self.analysis._require_faithful()
        self._check_coprime(local)
        if not self.frobenius_fixes(local, entries):
            raise SpecValidationError("conductor vector is not fixed by the Frobenius")
        return self._pi_leq_fixed(entries, local)

    def _pi_leq_fixed(self, entries, local):
        """hom(D_0) * prod_{k >= 1} p^{dim D_k}, D_k the kernel of the entries <= k;
        D_k changes only at the distinct entry values, and every factor after the
        first zero-dimensional D_k is 1."""
        if any(x < 0 for x in entries):
            return 0
        diag = self._diag_at_level(entries, 0)
        result = self.hom_count(diag, local)
        level = 0
        for value in sorted(set(entries) - {0}):
            if diag.dimension == 0:
                break
            result *= local.p ** (diag.dimension * (value - max(level, 1)))
            level = value
            diag = self._diag_at_level(entries, value)
        return result

    def _pi_leq_reduced(self, entries, local):
        # non-fixed vectors reduce to their orbit-wise minimum
        if any(x < 0 for x in entries):
            return 0
        return self._pi_leq_fixed(self._orbit_min(local, entries), local)

    def pi_eq(self, c, local):
        """Count of parameters with conductor exactly c, by inclusion-exclusion.

        Zero when c is not Frobenius-fixed.  The alternating sum runs over
        decrement patterns on distinct coweights: repeated copies of a coweight
        share one entry, and each decremented coweight contributes one sign.
        """
        entries = tuple(c)
        self.analysis._require_faithful()
        self._check_coprime(local)
        if not self.frobenius_fixes(local, entries):
            return 0
        total = 0
        for pattern in itertools.product((0, 1), repeat=len(entries)):
            lowered = tuple(x - b for x, b in zip(entries, pattern))
            term = self._pi_leq_reduced(lowered, local)
            total += -term if sum(pattern) % 2 else term
        return total

    def local_factor(self, local, cap):
        """Truncated coefficient table: entry e sums pi_eq over fixed c with |c| = e.

        A fixed c is a grid point a, one entry per Frobenius cycle, with
        |c| = sum_j a_j w_j.  Regrouped by cycle, the inclusion-exclusion of
        `pi_eq` runs over the corners a - e_J: a decrement pattern on one cycle
        lowers that cycle's orbit minimum by one, and the nonzero patterns on
        a cycle carry signs that sum to -1.  So pi_eq(a) is
        sum_J (-1)^{|J|} pi_leq(a - e_J), and the table is the series
        sum_a pi_leq(a) x^{a.w} times prod_j (1 - x^{w_j}), truncated at the cap.
        """
        self.analysis._require_faithful()
        self._check_coprime(local)
        cycles = self.frobenius_cycles(local)
        mults = self.analysis.coweights.multiplicity
        weights = tuple(sum(mults[i] for i in cycle) for cycle in cycles)
        box = prod(cap // w + 1 for w in weights)
        if box > VECTOR_CAP:
            raise EnumerationCapError(
                f"enumeration too large: {box} conductor vectors up to --cap {cap} "
                f"exceed the cap of {VECTOR_CAP}")
        coefficients = [0] * (cap + 1)
        entries = [0] * len(mults)
        for a in _grid(weights, cap):
            for value, cycle in zip(a, cycles):
                for i in cycle:
                    entries[i] = value
            coefficients[sum(x * w for x, w in zip(a, weights))] += self._pi_leq_fixed(
                tuple(entries), local)
        for w in weights:
            for e in range(cap, w - 1, -1):
                coefficients[e] -= coefficients[e - w]
        return tuple(coefficients)


def _cycles(perm):
    seen = [False] * len(perm)
    out = []
    for start in range(len(perm)):
        if seen[start]:
            continue
        cycle = [start]
        seen[start] = True
        j = perm[start]
        while j != start:
            cycle.append(j)
            seen[j] = True
            j = perm[j]
        out.append(tuple(cycle))
    return out


def _grid(weights, budget):
    """Points a >= 0 with sum_j a_j * weights[j] <= budget, in lexicographic order."""
    if not weights:
        yield ()
        return
    for x in range(budget // weights[0] + 1):
        for rest in _grid(weights[1:], budget - x * weights[0]):
            yield (x,) + rest
