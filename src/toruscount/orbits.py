"""The enlarged group acting on the fibered attaining set, and orbit counts.

A fiber point over a sub-multiset S is an element of the component group of
its kernel, stored in the torsion coordinates of that kernel's lattice
quotient: the tuple (a_1, ..., a_r) stands for the homomorphism sending the
i-th torsion generator to a_i / d_i in Q/Z.  A lattice automorphism g carries
a fiber point over S to one over gS by precomposition with g^{-1}; a unit u
acts by raising to the u-th power, i.e. by scaling coordinates.

Orbits are the components of the graph that joins each point to its images
under a generating set of the enlarged group, found by union-find, so the
work is |points| x |generators|.  The group's full element list is kept for
the Burnside count, the independent full-group oracle for the orbit count.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, lcm

from .errors import SpecValidationError
from .intlinalg import torsion_elements

GTILDE_CAP = 10**5


@dataclass(frozen=True)
class EnlargedGroup:
    """Subgroup of G x (Z/lambda)^x, as explicit element pairs and generators."""

    lambda_: int
    elements: tuple  # pairs (group element index, unit residue mod lambda)
    mode: str
    generators: tuple  # distinct non-identity pairs that generate ``elements``

    @property
    def order(self):
        return len(self.elements)


def units_mod(lam):
    return tuple(u for u in range(lam) if gcd(u, lam) == 1)


def _generating_pairs(pairs, identity):
    """Distinct pairs in first-seen order, the identity dropped."""
    return tuple(pair for pair in dict.fromkeys(pairs) if pair != identity)


def build_gtilde(analysis, override=None):
    """Default: the full product of the lattice group with the units mod lambda.

    With ``override`` (a list of (element index, unit) pairs) the generated
    subgroup is returned instead; its projection to the lattice group must be
    surjective.
    """
    lam = analysis.lambda_invariant()
    spec = analysis.spec
    group_size = spec.order
    identity = (spec.identity_index, 1 % lam)
    if override is None:
        units = units_mod(lam)
        elements = tuple((g, u) for g in range(group_size) for u in units)
        generators = _generating_pairs(
            [(spec.element_index(m), 1 % lam) for m in spec.generators]
            + [(spec.identity_index, u) for u in units], identity)
        return EnlargedGroup(lambda_=lam, elements=elements, mode="full",
                             generators=generators)

    pairs = []
    for g, u in override:
        if not 0 <= g < group_size:
            raise SpecValidationError(f"gtilde: element index {g} out of range")
        u %= lam
        if gcd(u, lam) != 1:
            raise SpecValidationError(f"gtilde: {u} is not a unit mod {lam}")
        pairs.append((g, u))
    closure = {identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for (g, u) in frontier:
            for (h, v) in pairs:
                prod = (spec.compose(g, h), (u * v) % lam)
                if prod not in closure:
                    closure.add(prod)
                    nxt.append(prod)
                    if len(closure) > GTILDE_CAP:
                        raise SpecValidationError("gtilde: closure cap exceeded")
        frontier = nxt
    if {g for g, _ in closure} != set(range(group_size)):
        raise SpecValidationError("gtilde: projection not surjective onto G")
    return EnlargedGroup(lambda_=lam, elements=tuple(sorted(closure)), mode="explicit",
                         generators=_generating_pairs(pairs, identity))


@dataclass(frozen=True)
class FiberedSubset:
    """A sub-multiset (as its count vector) together with a fiber point."""

    counts: tuple
    fiber: tuple


class FiberTransport:
    """Map on fiber coordinates induced by one group element on one sub-multiset."""

    def __init__(self, analysis, g_index, s):
        source = analysis.diag_group(s)
        target = analysis.diag_group(analysis.act_on_subset(g_index, s))
        self.source_factors = source.pi0.invariant_factors
        self.target_factors = target.pi0.invariant_factors
        if sorted(self.source_factors) != sorted(self.target_factors):
            raise AssertionError("group action changed component-group invariants")
        # target coordinate j is sum_i fiber_i * weight_ji / L times d_j, with L the
        # lcm of the source factors and weight_ji = column_ji * (L / d_i)
        self._lcm = lcm(*self.source_factors)
        self._weights = []
        if not self.target_factors:
            return
        ginv = analysis.spec.inverse(g_index)
        for j in range(len(self.target_factors)):
            unit = tuple(1 if i == j else 0 for i in range(len(self.target_factors)))
            rep = target.quotient.from_coords(unit)
            tors, free = source.quotient.to_full_coords(ginv.apply(rep))
            if any(free):
                raise AssertionError("transported generator is not torsion")
            self._weights.append(
                tuple(t * (self._lcm // di) for t, di in zip(tors, self.source_factors)))

    def apply(self, fiber):
        out = []
        for weights, dj in zip(self._weights, self.target_factors):
            scaled = sum(f * w for f, w in zip(fiber, weights)) * dj
            if scaled % self._lcm:
                raise AssertionError("fiber transport produced a non-integral coordinate")
            out.append(scaled // self._lcm % dj)
        return tuple(out)


class FiberedAttainingSet:
    """The deleted fibered set over the attaining sub-multisets, with its action."""

    def __init__(self, analysis, gtilde=None):
        analysis._require_faithful()
        self.analysis = analysis
        self.lambda_ = analysis.lambda_invariant()
        self.gtilde = gtilde if gtilde is not None else build_gtilde(analysis)
        if self.gtilde.lambda_ != self.lambda_:
            raise SpecValidationError("gtilde was built for a different lambda")
        self._transports = {}
        self.sigma = analysis.sigma_set()
        self.elements = self._build_elements()

    def _build_elements(self):
        out = []
        for s in self.sigma:
            diag = self.analysis.diag_group(s)
            for fiber in torsion_elements(diag.pi0):
                if diag.dimension == 0 and not any(fiber):
                    continue
                out.append(FiberedSubset(s, tuple(fiber)))
        # already in (counts, fiber) order: sigma and each torsion_elements are lex
        return out

    def _transport(self, g_index, counts):
        key = (g_index, self.analysis.complement_support(counts))
        cached = self._transports.get(key)
        if cached is None:
            cached = FiberTransport(self.analysis, g_index, counts)
            self._transports[key] = cached
        return cached

    def act(self, gelem, element):
        """Action of one pair (g, u): move the sub-multiset by g, the fiber by g then u."""
        g_index, unit = gelem
        s2 = self.analysis.act_on_subset(g_index, element.counts)
        moved = self._transport(g_index, element.counts).apply(element.fiber)
        factors = self.analysis.diag_group(s2).pi0.invariant_factors
        fiber2 = tuple((c * unit) % d for c, d in zip(moved, factors))
        return FiberedSubset(s2, fiber2)

    def orbits(self):
        """Deterministic orbit partition under the enlarged group, from its generators.

        Each root is the smallest index in its component, so orbits come out
        ordered by their first element and list their elements in order.
        """
        index = {e: i for i, e in enumerate(self.elements)}
        parent = list(range(len(self.elements)))

        def find(i):
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        for e in self.elements:
            for gelem in self.gtilde.generators:
                img = self.act(gelem, e)
                a, b = find(index[e]), find(index[img])
                if a != b:
                    parent[max(a, b)] = min(a, b)
        buckets = {}
        for i, e in enumerate(self.elements):
            buckets.setdefault(find(i), []).append(e)
        return [buckets[root] for root in sorted(buckets)]

    def orbit_count(self):
        return len(self.orbits())

    def deg_P(self):
        """Orbit count minus one, with per-stratum orbit counts."""
        per_stratum = {}
        for orbit in self.orbits():
            s = orbit[0].counts
            key = (self.analysis.diag_group(s).dimension, sum(s))
            per_stratum[key] = per_stratum.get(key, 0) + 1
        total = sum(per_stratum.values())
        return total - 1, per_stratum

    def burnside_orbit_count(self):
        """Average number of fixed points over the group; must equal orbit_count()."""
        total = 0
        for gelem in self.gtilde.elements:
            total += sum(1 for e in self.elements if self.act(gelem, e) == e)
        if total % self.gtilde.order != 0:
            raise AssertionError("Burnside sum is not divisible by the group order")
        return total // self.gtilde.order
