import itertools
import random

import pytest

from toruscount import gallery, torus
from toruscount.errors import NotFaithfulError, SpecValidationError
from toruscount.localfactors import LocalCalculator, make_local_data
from toruscount.orbits import FiberedSubset, FiberedAttainingSet, build_gtilde, units_mod
from toruscount.torus import load_spec

from randspecs import random_faithful_spec


def space_for(doc, **kw):
    return FiberedAttainingSet(load_spec(doc), **kw)


def test_build_gtilde_square_cube_default():
    analysis = load_spec(gallery.GL1_SQUARE_CUBE)
    gt = build_gtilde(analysis)
    assert gt.lambda_ == 6
    assert gt.elements == ((0, 1), (0, 5))
    assert gt.mode == "full"


def test_build_gtilde_lambda_one_is_plain_group():
    analysis = load_spec(gallery.NORM_QUOTIENT_S4)
    gt = build_gtilde(analysis)
    assert gt.lambda_ == 1
    assert gt.order == analysis.spec.order


def test_build_gtilde_explicit_projection_must_cover_group():
    analysis = load_spec(gallery.NORM_QUOTIENT_Z4)
    with pytest.raises(SpecValidationError, match="not surjective"):
        build_gtilde(analysis, override=[(0, 1)])
    four_cycle = analysis.spec.word_to_index([0])
    gt = build_gtilde(analysis, override=[(four_cycle, 1)])
    assert gt.order == 4


def test_sigma_tilde0_sizes():
    assert len(space_for(gallery.GL1_SQUARE_CUBE).elements) == 4
    assert len(space_for(gallery.GM_TIMES_GM).elements) == 2
    assert len(space_for(gallery.GL1_STANDARD).elements) == 1


def test_sigma_tilde0_square_cube_contents():
    elements = space_for(gallery.GL1_SQUARE_CUBE).elements
    assert elements == [
        FiberedSubset((0, 1), (1,)),   # cube kernel, nontrivial fiber
        FiberedSubset((1, 0), (1,)),   # square kernel, two nontrivial fibers
        FiberedSubset((1, 0), (2,)),
        FiberedSubset((1, 1), ()),     # one-dimensional kernel, identity kept
    ]


def test_act_square_cube_unit_five():
    space = space_for(gallery.GL1_SQUARE_CUBE)
    five = (0, 5)
    swap_a = FiberedSubset((1, 0), (1,))
    swap_b = FiberedSubset((1, 0), (2,))
    assert space.act(five, swap_a) == swap_b
    assert space.act(five, swap_b) == swap_a
    fixed = FiberedSubset((0, 1), (1,))
    assert space.act(five, fixed) == fixed
    identity = (0, 1)
    for e in space.elements:
        assert space.act(identity, e) == e


def test_action_stays_inside_deleted_set():
    for doc in (gallery.GL1_SQUARE_CUBE, gallery.GM_TIMES_GM, gallery.NORM_QUOTIENT_S4):
        space = space_for(doc)
        members = set(space.elements)
        for gelem in space.gtilde.elements:
            for e in space.elements:
                assert space.act(gelem, e) in members


def test_deg_p_golden_values():
    expected = {
        "gl1-standard": 0,
        "gl1-repeated-1001": 0,
        "gl1-square-cube": 2,
        "gm-times-gm": 1,
        "norm-quotient-s3": 1,
        "norm-quotient-s4": 2,
        "norm-quotient-z4": 3,
    }
    for name, doc, fields in gallery.GALLERY:
        space = space_for(doc)
        deg, per_stratum = space.deg_P()
        assert deg == expected[name], name
        assert deg == fields["deg_P"], name
        assert sum(per_stratum.values()) == fields["orbit_count"], name


def test_per_stratum_orbits_square_cube():
    space = space_for(gallery.GL1_SQUARE_CUBE)
    _, per_stratum = space.deg_P()
    assert per_stratum == {(0, 1): 2, (1, 2): 1}


def test_deg_p_requires_faithful():
    doubled = {"dim": 1, "generators": [], "coweights": [{"vector": [2]}]}
    with pytest.raises(NotFaithfulError):
        FiberedAttainingSet(load_spec(doubled))


def test_action_composition_law_on_examples():
    for doc in (gallery.GL1_SQUARE_CUBE, gallery.GM_TIMES_GM,
                gallery.NORM_QUOTIENT_S3, gallery.NORM_QUOTIENT_S4,
                gallery.NORM_QUOTIENT_Z4):
        space = space_for(doc)
        analysis = space.analysis
        lam = space.lambda_
        for (g1, u1), (g2, u2) in itertools.product(space.gtilde.elements, repeat=2):
            prod = (analysis.spec.compose(g1, g2), (u1 * u2) % lam)
            for e in space.elements:
                assert space.act(prod, e) == space.act((g1, u1), space.act((g2, u2), e))


def test_burnside_matches_orbit_enumeration_on_examples():
    for _, doc, fields in gallery.GALLERY:
        space = space_for(doc)
        assert space.orbit_count() == fields["orbit_count"]
        assert space.burnside_orbit_count() == fields["orbit_count"]


def test_lambda_one_reduces_to_plain_subset_orbits():
    # with trivial fibers the orbit count is the group's orbit count on the
    # attaining sub-multisets of size >= 2, plus any size-1 strata that survive
    analysis = load_spec(gallery.NORM_QUOTIENT_S4)
    space = FiberedAttainingSet(analysis)
    sigma = [s for s in analysis.sigma_set() if sum(s) >= 2]
    seen = set()
    count = 0
    for s in sigma:
        if s in seen:
            continue
        count += 1
        for g in range(analysis.spec.order):
            seen.add(analysis.act_on_subset(g, s))
    assert space.orbit_count() == count


def test_burnside_on_random_specs():
    rng = random.Random(777)
    nontrivial_transports = 0
    for _ in range(25):
        analysis = random_faithful_spec(rng)
        space = FiberedAttainingSet(analysis)
        assert space.orbit_count() == space.burnside_orbit_count()
        deg, per_stratum = space.deg_P()
        assert deg == space.orbit_count() - 1
        assert sum(per_stratum.values()) == space.orbit_count()
        if any(e.fiber for e in space.elements) and analysis.spec.order > 1:
            nontrivial_transports += 1
        # composition law on sampled pairs, fibers moved through real transports
        members = set(space.elements)
        pairs = [(rng.choice(space.gtilde.elements), rng.choice(space.gtilde.elements))
                 for _ in range(10)]
        for (g1, u1), (g2, u2) in pairs:
            prod = (analysis.spec.compose(g1, g2), (u1 * u2) % max(space.lambda_, 1))
            for e in space.elements:
                image = space.act(prod, e)
                assert image in members
                assert image == space.act((g1, u1), space.act((g2, u2), e))
    # the sample must actually exercise fibered actions over nontrivial groups
    assert nontrivial_transports >= 3


# Two square-cube tori swapped by G = Z/2: lambda = 36, so G~ = G x (Z/36)^x has
# order 24, and the pair (swap, 5) generates a proper subgroup of order 6.
SWAPPED_SQUARE_CUBE = {
    "dim": 2,
    "generators": [[[0, 1], [1, 0]]],
    "coweights": [{"vector": v} for v in ([2, 0], [0, 2], [3, 0], [0, 3])],
}

# The S5 norm-quotient torus: |G| = 120 acting on the five letters e_1..e_4, -sum e_i.
S5_NORM_QUOTIENT = {
    "dim": 4,
    "generators": [
        [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
        [[0, 0, 0, -1], [1, 0, 0, -1], [0, 1, 0, -1], [0, 0, 1, -1]],
    ],
    "coweights": [{"vector": v} for v in (
        [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [-1, -1, -1, -1])],
}


def orbits_from_all_elements(space):
    """Reference partition: each point's image set under every element of G~."""
    index = {e: i for i, e in enumerate(space.elements)}
    orbits = {}
    for e in space.elements:
        orbit = sorted({index[space.act(gelem, e)] for gelem in space.gtilde.elements})
        orbits[orbit[0]] = [space.elements[i] for i in orbit]
    return [orbits[first] for first in sorted(orbits)]


def test_generator_orbits_match_full_group_orbits():
    spaces = [space_for(doc) for _, doc, _ in gallery.GALLERY]
    rng = random.Random(2024)
    spaces += [FiberedAttainingSet(random_faithful_spec(rng)) for _ in range(25)]
    analysis = load_spec(SWAPPED_SQUARE_CUBE)
    swap = analysis.spec.word_to_index([0])
    subgroup = build_gtilde(analysis, override=[(swap, 5)])
    assert subgroup.order == 6 < build_gtilde(analysis).order
    spaces.append(FiberedAttainingSet(analysis, subgroup))
    for space in spaces:
        assert space.orbits() == orbits_from_all_elements(space)


def test_gtilde_generators():
    analysis = load_spec(SWAPPED_SQUARE_CUBE)
    swap = analysis.spec.word_to_index([0])
    full = build_gtilde(analysis)
    assert full.generators == ((swap, 1),) + tuple((0, u) for u in units_mod(36) if u != 1)
    explicit = build_gtilde(analysis, override=[(swap, 5), (0, 1), (swap, 41)])
    assert explicit.generators == ((swap, 5),)


def test_orbits_act_and_inverse_counts(monkeypatch):
    acts = 0
    act = FiberedAttainingSet.act

    def counting_act(self, gelem, element):
        nonlocal acts
        acts += 1
        return act(self, gelem, element)

    inverted = []
    inverse = torus.unimodular_inverse

    def counting_inverse(m):
        inverted.append(m.entries)
        return inverse(m)

    monkeypatch.setattr(FiberedAttainingSet, "act", counting_act)
    monkeypatch.setattr(torus, "unimodular_inverse", counting_inverse)

    space = space_for(S5_NORM_QUOTIENT)
    assert space.gtilde.order == 120
    assert space.orbit_count() == 4
    assert acts == len(space.elements) * len(space.gtilde.generators)
    assert len(inverted) == len(set(inverted))

    # fibered points over a nontrivial group: transports and the Frobenius
    # (the swap) share one inverse per element
    analysis = load_spec(SWAPPED_SQUARE_CUBE)
    FiberedAttainingSet(analysis).orbits()
    calc = LocalCalculator(analysis)
    local = make_local_data(analysis, 5, analysis.spec.word_to_index([0]))
    calc.local_factor(local, cap=4)
    for s in analysis.sigma_set():
        if calc.frobenius_fixes(local, s):
            calc.a_count(s, local)
    assert inverted
    assert len(inverted) == len(set(inverted))
