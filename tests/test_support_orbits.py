"""Kernels shared along G-orbits of supports, and the coweight action from the
closure's Schreier tree, checked against fresh per-support and per-element work."""

import itertools
import random

import pytest

from toruscount import gallery, intlinalg
from toruscount.errors import SpecValidationError
from toruscount.intlinalg import IntMatrix, LatticeQuotient
from toruscount.torus import load_spec

from randspecs import random_faithful_spec
from test_orbits import S5_NORM_QUOTIENT


def signed_permutation(n, perm, signs=None):
    """Matrix sending e_j to signs[j] * e_perm[j]."""
    signs = signs or [1] * n
    return [[signs[j] if perm[j] == i else 0 for j in range(n)] for i in range(n)]


# The hyperoctahedral group B4 (|G| = 384) on Z^4 with the eight coweights +-e_i.
B4_PLUS_MINUS = {
    "dim": 4,
    "generators": [signed_permutation(4, [1, 0, 2, 3]), signed_permutation(4, [1, 2, 3, 0]),
                   signed_permutation(4, [0, 1, 2, 3], [-1, 1, 1, 1])],
    "coweights": [{"vector": [s * int(i == j) for j in range(4)]}
                  for i in range(4) for s in (1, -1)],
}


def analyses():
    out = [load_spec(doc) for _, doc, _ in gallery.GALLERY]
    out += [load_spec(S5_NORM_QUOTIENT), load_spec(B4_PLUS_MINUS)]
    rng = random.Random(909)
    out += [random_faithful_spec(rng) for _ in range(30)]
    return out


def supports(analysis):
    k = len(analysis.coweights)
    for bits in itertools.product((0, 1), repeat=k):
        yield tuple(i for i in range(k) if bits[i])


def test_orbit_kernels_match_fresh_quotients():
    rng = random.Random(17)
    derived = 0
    for analysis in analyses():
        n = analysis.spec.n
        vectors = [tuple(rng.randrange(-5, 6) for _ in range(n)) for _ in range(3)]
        for support in supports(analysis):
            diag = analysis.diag_for_support(support)
            derived += diag._quotient is None
            rows = IntMatrix.from_rows(
                [analysis.coweights.distinct[i] for i in support], cols=n)
            fresh = LatticeQuotient(n, rows)
            assert diag.defining_rows == rows
            assert diag.dimension == fresh.group.free_rank
            assert diag.pi0.invariant_factors == fresh.group.invariant_factors
            assert diag.is_trivial == fresh.group.is_trivial
            for v in vectors:
                assert diag.quotient.to_full_coords(v) == fresh.to_full_coords(v)
    assert derived > 0


@pytest.mark.parametrize("doc, snfs", [(B4_PLUS_MINUS, 15), (S5_NORM_QUOTIENT, 6)])
def test_one_snf_per_orbit_of_supports(monkeypatch, doc, snfs):
    calls = []
    snf = intlinalg.smith_normal_form

    def counted(m):
        calls.append(m)
        return snf(m)

    analysis = load_spec(doc)
    monkeypatch.setattr(intlinalg, "smith_normal_form", counted)
    analysis.lambda_invariant()
    assert len(analysis._diag_cache) == 2 ** len(analysis.coweights)
    assert len(calls) == snfs


def test_schreier_action_matches_per_element_apply():
    for analysis in analyses():
        distinct = analysis.coweights.distinct
        index = {v: i for i, v in enumerate(distinct)}
        expected = tuple(tuple(index[g.apply(v)] for v in distinct)
                         for g in analysis.spec.group_elements)
        assert analysis.coweights.action == expected


def test_schreier_tree_reaches_every_element():
    for analysis in analyses():
        spec = analysis.spec
        assert spec.schreier_tree[0] is None
        for i, (parent, k) in enumerate(spec.schreier_tree[1:], start=1):
            assert parent < i
            assert spec.group_elements[parent] @ spec.generators[k] == spec.group_elements[i]


def test_unstable_generator_is_named():
    doc = {
        "dim": 2,
        "generators": [[[1, 0], [0, 1]], [[0, 1], [1, 0]]],
        "coweights": [{"vector": [1, 0]}, {"vector": [-1, 0]}],
    }
    with pytest.raises(SpecValidationError) as info:
        load_spec(doc)
    assert str(info.value) == ("coweights: coweight multiset not Galois-stable "
                               "(generators[1] moves [1, 0] to [0, 1])")
