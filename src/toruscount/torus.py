"""Tori presented by lattice data: the finite group action on the cocharacter
lattice, the multiset of coweights, the diagonalizable kernels it cuts out,
and the exact counting invariants derived from them.

Conventions: a group element is an n x n unimodular integer matrix acting on
column vectors of the rank-n lattice; coweights live in the same lattice and
transform by the same matrices.  A sub-multiset is a tuple of counts, one per
distinct coweight, each between 0 and its multiplicity; its size |S| is the
sum of the counts.  The kernel attached to it depends only on which coweights
remain in the complement.

A, the abscissa and lambda need only the 2^k all-or-nothing sub-multisets
(each count 0 or full), one per complement support T: among the sub-multisets
sharing T it is the smallest and componentwise, hence lexicographically, first,
so it maximizes (dim + 1)/|S| and dim/|S| and is the lex-first maximizer that
the A witness tie-break asks for.  One pass over them, in lex order, gives all
three.  The attaining set sigma lists every count vector that attains A, so it
still filters all of them, once per analysis.

G permutes the coweights, and g carries the rows of a support T onto those of
gT, so D(gT) is isomorphic to D(T).  The invariants read the kernels only
through their dimension and component group, so one Smith normal form serves a
whole G-orbit of supports; a lattice quotient for another member is built only
when its coordinates are needed.  The permutation of every group element comes
from its parent in the closure's Schreier tree, one generator step away.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import lcm, prod

from .errors import EnumerationCapError, NotFaithfulError, SchemaError, SpecValidationError
from .intlinalg import FinAbGroup, IntMatrix, LatticeQuotient, unimodular_inverse

GROUP_CAP = 10**4
DEFAULT_DISTINCT_CAP = 20
# count vectors the sigma filter may visit: 20 distinct coweights of multiplicity 1
SUBSET_CAP = 2**DEFAULT_DISTINCT_CAP


class TorusSpec:
    """Rank-n lattice with a finite group of unimodular automorphisms."""

    def __init__(self, n, generators):
        if n < 1:
            raise SpecValidationError("dim: n = 0 rejected")
        self.n = n
        self.generators = tuple(generators)
        exponent = _finite_order_exponent(n) if self.generators else None
        for idx, g in enumerate(self.generators):
            if g.rows != n or g.cols != n:
                raise SchemaError(f"generators[{idx}]: expected a {n}x{n} matrix")
            if not g.is_unimodular():
                raise SpecValidationError(f"generators[{idx}]: generator not unimodular")
            if _matrix_power(g, exponent) != IntMatrix.identity(n):
                raise SpecValidationError(f"generators[{idx}]: generator has infinite order")
        self.group_elements, self._index, self.schreier_tree = self._closure()
        self._inverses = {}

    def _closure(self):
        """Breadth-first closure under right multiplication by the generators.

        Returns the elements, their index by entries, and the Schreier tree:
        for each element after the identity a pair (parent, k) with
        element = elements[parent] @ generators[k].
        """
        ident = IntMatrix.identity(self.n)
        elements = [ident]
        index = {ident.entries: 0}
        tree = [None]
        frontier = [0]
        while frontier:
            nxt = []
            for parent in frontier:
                for k, g in enumerate(self.generators):
                    prod = elements[parent] @ g
                    if prod.entries not in index:
                        index[prod.entries] = len(elements)
                        nxt.append(len(elements))
                        elements.append(prod)
                        tree.append((parent, k))
                        if len(elements) > GROUP_CAP:
                            raise SpecValidationError(
                                f"generators: group closure cap exceeded ({GROUP_CAP})")
            frontier = nxt
        return tuple(elements), index, tuple(tree)

    @property
    def order(self):
        return len(self.group_elements)

    @property
    def identity_index(self):
        return 0

    def element_index(self, matrix):
        try:
            return self._index[matrix.entries]
        except KeyError:
            raise SpecValidationError("matrix is not a group element") from None

    def inverse(self, i):
        """Inverse matrix of element i, computed on first request and cached."""
        inv = self._inverses.get(i)
        if inv is None:
            inv = self._inverses[i] = unimodular_inverse(self.group_elements[i])
        return inv

    def compose(self, i, j):
        """Index of element_i @ element_j."""
        return self.element_index(self.group_elements[i] @ self.group_elements[j])

    def element_order(self, i):
        ident = IntMatrix.identity(self.n)
        power = self.group_elements[i]
        k = 1
        while power != ident:
            power = power @ self.group_elements[i]
            k += 1
        return k

    def word_to_index(self, word):
        """Resolve a product of generator indices (left to right) to an element index."""
        m = IntMatrix.identity(self.n)
        for w in word:
            if not 0 <= w < len(self.generators):
                raise SchemaError(f"generator index {w} out of range")
            m = m @ self.generators[w]
        return self.element_index(m)


def _finite_order_exponent(n):
    """L = lcm{d : phi(d) <= n}; an element g of GL_n(Z) has finite order iff g^L = I.

    A finite-order g is diagonalizable and each eigenvalue is a primitive d-th
    root of unity of degree phi(d) <= n, so its order divides L.  Since
    phi(d) >= sqrt(d/2), every such d is at most 2n^2.  L = 120 for n = 4.
    """
    bound = 2 * n * n
    phi = list(range(bound + 1))
    for p in range(2, bound + 1):
        if phi[p] == p:  # p is prime
            for k in range(p, bound + 1, p):
                phi[k] -= phi[k] // p
    return lcm(*(d for d in range(1, bound + 1) if phi[d] <= n))


def _matrix_power(m, e):
    """m^e by repeated squaring."""
    result = IntMatrix.identity(m.rows)
    while e:
        if e & 1:
            result = result @ m
        e >>= 1
        if e:
            m = m @ m
    return result


class CoweightSystem:
    """Distinct coweights with multiplicities and the induced index permutations.

    Galois-stability is checked on the generators, which suffices for the group
    they generate.  Each element's permutation then follows its Schreier-tree
    parent's: element = parent @ generators[k] sends v_j to
    v_{action[parent][perm_k[j]]}.
    """

    def __init__(self, spec, distinct, multiplicity):
        self.distinct = tuple(tuple(v) for v in distinct)
        self.multiplicity = tuple(multiplicity)
        self.m = sum(self.multiplicity)
        lookup = {}
        for i, v in enumerate(self.distinct):
            if v in lookup:
                raise SpecValidationError(f"coweights[{i}]: duplicate coweight {list(v)}")
            lookup[v] = i
        generator_perms = []
        for k, g in enumerate(spec.generators):
            perm = []
            for i, v in enumerate(self.distinct):
                image = g.apply(v)
                j = lookup.get(image)
                if j is None or self.multiplicity[j] != self.multiplicity[i]:
                    raise SpecValidationError(
                        "coweights: coweight multiset not Galois-stable "
                        f"(generators[{k}] moves {list(v)} to {list(image)})")
                perm.append(j)
            generator_perms.append(perm)
        action = [tuple(range(len(self.distinct)))]
        for parent, k in spec.schreier_tree[1:]:
            up = action[parent]
            action.append(tuple(up[j] for j in generator_perms[k]))
        self.action = tuple(action)

    def __len__(self):
        return len(self.distinct)


class DiagGroup:
    """Kernel subgroup cut out by the complement coweights, as lattice data.

    Kernels compare by identity.  The dimension and the component group pi0
    are given, shared by every support in one G-orbit; the lattice quotient is
    built from ``defining_rows`` on first use unless it is passed in.
    """

    def __init__(self, defining_rows, dimension, pi0, quotient=None):
        self.defining_rows = defining_rows
        self.dimension = dimension
        self.pi0 = pi0
        self.is_trivial = dimension == 0 and pi0.is_trivial
        self._quotient = quotient

    @property
    def quotient(self):
        if self._quotient is None:
            self._quotient = LatticeQuotient(self.defining_rows.cols, self.defining_rows)
        return self._quotient


class TorusAnalysis:
    """All invariants of one validated torus-plus-coweights input."""

    def __init__(self, spec, coweights):
        self.spec = spec
        self.coweights = coweights
        self._diag_cache = {}
        self._generator_perms = tuple(dict.fromkeys(
            coweights.action[spec.element_index(g)] for g in spec.generators))
        self._supports = None
        self._sigma = None

    # -- sub-multiset plumbing -------------------------------------------------

    def subsets(self):
        """Every sub-multiset, in lexicographic count-vector order."""
        return itertools.product(*(range(m + 1) for m in self.coweights.multiplicity))

    def all_or_nothing(self):
        """The 2^k sub-multisets with every count 0 or full, in lexicographic order."""
        return itertools.product(*((0, m) for m in self.coweights.multiplicity))

    def complement_support(self, s):
        return tuple(
            i for i, (c, m) in enumerate(zip(s, self.coweights.multiplicity)) if c < m)

    def act_on_subset(self, g_index, s):
        perm = self.coweights.action[g_index]
        counts = [0] * len(s)
        for i, c in enumerate(s):
            counts[perm[i]] = c
        return tuple(counts)

    # -- kernels ---------------------------------------------------------------

    def _rows(self, support):
        return IntMatrix.from_rows(
            [self.coweights.distinct[i] for i in support], cols=self.spec.n)

    def diag_for_support(self, support):
        """The kernel cut out by the coweights in ``support``, cached per support.

        A miss builds one lattice quotient, then walks the support's G-orbit
        through the generators' coweight permutations and gives each unseen
        member a kernel with the same dimension and pi0, whose own quotient is
        built only if asked for (see the module docstring).
        """
        support = tuple(sorted(support))
        cached = self._diag_cache.get(support)
        if cached is None:
            rows = self._rows(support)
            quotient = LatticeQuotient(self.spec.n, rows)
            dimension = quotient.group.free_rank
            pi0 = FinAbGroup(quotient.group.invariant_factors, 0)
            cached = self._diag_cache[support] = DiagGroup(rows, dimension, pi0, quotient)
            frontier = [support]
            while frontier:
                member = frontier.pop()
                for perm in self._generator_perms:
                    image = tuple(sorted(perm[i] for i in member))
                    if image not in self._diag_cache:
                        self._diag_cache[image] = DiagGroup(self._rows(image), dimension, pi0)
                        frontier.append(image)
        return cached

    def diag_group(self, s):
        return self.diag_for_support(self.complement_support(s))

    # -- invariants ------------------------------------------------------------

    def is_faithful(self):
        return self.diag_for_support(range(len(self.coweights))).is_trivial

    def _require_faithful(self):
        if not self.is_faithful():
            raise NotFaithfulError("not faithful")

    def _support_invariants(self):
        """(lambda, (A, witness), abscissa) from one pass over the all-or-nothing
        sub-multisets in lex order, memoized.

        The empty sub-multiset counts only towards lambda: its kernel is the
        whole kernel, trivial exactly when the input is faithful, and A and the
        abscissa are read only then.
        """
        if self._supports is None:
            lam = 1
            best = witness = None
            abscissa = Fraction(0)
            for s in self.all_or_nothing():
                diag = self.diag_group(s)
                lam = lcm(lam, diag.pi0.torsion_order)
                size = sum(s)
                if diag.is_trivial or not size:
                    continue
                ratio = Fraction(diag.dimension + 1, size)
                if best is None or ratio > best:
                    best, witness = ratio, s
                if diag.dimension:
                    abscissa = max(abscissa, Fraction(diag.dimension, size))
            self._supports = (lam, (best, witness), abscissa)
        return self._supports

    def invariant_A(self):
        """The conductor exponent with its lex-first maximizing sub-multiset as witness."""
        self._require_faithful()
        return self._support_invariants()[1]

    def sigma_set(self):
        """All nonempty sub-multisets attaining the exponent, trivial kernels included."""
        if self._sigma is None:
            count = prod(m + 1 for m in self.coweights.multiplicity)
            if count > SUBSET_CAP:
                raise EnumerationCapError(
                    f"enumeration too large: {count} sub-multisets exceed the cap of "
                    f"{SUBSET_CAP}")
            value, _ = self.invariant_A()
            self._sigma = tuple(
                s for s in self.subsets()
                if (size := sum(s)) and Fraction(self.diag_group(s).dimension + 1, size) == value)
        return self._sigma

    def lambda_invariant(self):
        return self._support_invariants()[0]

    def strata(self):
        """Partition of the attaining set by (kernel dimension, size)."""
        value, _ = self.invariant_A()
        out = {}
        for s in self.sigma_set():
            diag = self.diag_group(s)
            key = (diag.dimension, sum(s))
            assert Fraction(key[0] + 1, key[1]) == value
            out.setdefault(key, []).append(s)
        return out

    def abscissa(self):
        """Convergence abscissa: max of dim/|S| over S with a positive-dimensional kernel.

        The ramified abscissa, over nontrivial kernels, is the same number: a
        zero-dimensional kernel adds a ratio of 0, and the maximum starts at 0.
        """
        self._require_faithful()
        return self._support_invariants()[2]


def _require(condition, message):
    if not condition:
        raise SchemaError(message)


def load_spec(document, distinct_cap=DEFAULT_DISTINCT_CAP):
    """Validate an input document and build the analysis object.

    Schema: {"dim": n, "generators": [n x n row-major int matrices],
    "coweights": [{"vector": [...], "multiplicity": k}, ...]}, plus optional
    keys consumed by other modules.  Raises SchemaError for shape problems and
    SpecValidationError for semantic ones.
    """
    _require(isinstance(document, dict), "document: expected a JSON object")
    _require("dim" in document, "dim: missing")
    n = document["dim"]
    _require(isinstance(n, int) and not isinstance(n, bool), "dim: expected an integer")
    if n < 1:
        raise SpecValidationError("dim: n = 0 rejected")

    raw_gens = document.get("generators", [])
    _require(isinstance(raw_gens, list), "generators: expected a list")
    generators = []
    for idx, g in enumerate(raw_gens):
        _require(
            isinstance(g, list) and all(isinstance(row, list) for row in g),
            f"generators[{idx}]: expected a row-major matrix",
        )
        _require(
            len(g) == n and all(len(row) == n for row in g),
            f"generators[{idx}]: expected a {n}x{n} matrix",
        )
        _require(
            all(isinstance(x, int) and not isinstance(x, bool) for row in g for x in row),
            f"generators[{idx}]: entries must be integers",
        )
        generators.append(IntMatrix.from_rows(g, cols=n))

    raw_cw = document.get("coweights")
    _require(isinstance(raw_cw, list), "coweights: expected a list")
    distinct = []
    multiplicity = []
    for idx, item in enumerate(raw_cw):
        _require(isinstance(item, dict) and "vector" in item,
                 f"coweights[{idx}]: expected an object with a 'vector'")
        vec = item["vector"]
        _require(
            isinstance(vec, list) and len(vec) == n
            and all(isinstance(x, int) and not isinstance(x, bool) for x in vec),
            f"coweights[{idx}].vector: expected {n} integers",
        )
        mult = item.get("multiplicity", 1)
        _require(isinstance(mult, int) and not isinstance(mult, bool),
                 f"coweights[{idx}].multiplicity: expected an integer")
        if mult < 1:
            raise SpecValidationError(f"coweights[{idx}].multiplicity: must be >= 1")
        distinct.append(tuple(vec))
        multiplicity.append(mult)

    if len(distinct) > distinct_cap:
        raise SpecValidationError(
            f"coweights: {len(distinct)} distinct coweights exceed the cap {distinct_cap}")

    spec = TorusSpec(n, generators)
    coweights = CoweightSystem(spec, distinct, multiplicity)
    return TorusAnalysis(spec, coweights)
