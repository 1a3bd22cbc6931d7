import random
from fractions import Fraction
from math import lcm

import pytest

from toruscount import gallery, torus
from toruscount.errors import NotFaithfulError, SchemaError, SpecValidationError
from toruscount.torus import load_spec

from randspecs import random_faithful_spec, scaled_multiplicities


def test_load_gl1_trivial_group():
    analysis = load_spec(gallery.GL1_STANDARD)
    assert analysis.spec.order == 1
    assert analysis.coweights.distinct == ((1,),)
    assert analysis.coweights.m == 1


def test_load_rejects_non_unimodular_generator():
    doc = {"dim": 1, "generators": [[[2]]], "coweights": [{"vector": [1]}]}
    with pytest.raises(SpecValidationError, match="not unimodular"):
        load_spec(doc)


def test_load_rejects_unstable_multiset():
    doc = {
        "dim": 2,
        "generators": [[[0, 1], [1, 0]]],
        "coweights": [{"vector": [1, 0], "multiplicity": 1}],
    }
    with pytest.raises(SpecValidationError, match="not Galois-stable"):
        load_spec(doc)


def test_load_rejects_dim_zero():
    with pytest.raises(SpecValidationError, match="n = 0"):
        load_spec({"dim": 0, "generators": [], "coweights": []})


def test_load_schema_errors_name_the_field():
    with pytest.raises(SchemaError, match="dim"):
        load_spec({"generators": [], "coweights": []})
    with pytest.raises(SchemaError, match=r"coweights\[0\].vector"):
        load_spec({"dim": 2, "generators": [], "coweights": [{"vector": [1]}]})


def test_diag_group_square_cube_cases():
    analysis = load_spec(gallery.GL1_SQUARE_CUBE)
    # order of distinct coweights: (2,) then (3,)
    d_cube = analysis.diag_group((0, 1))
    assert d_cube.dimension == 0
    assert d_cube.pi0.invariant_factors == (2,)
    d_square = analysis.diag_group((1, 0))
    assert d_square.dimension == 0
    assert d_square.pi0.invariant_factors == (3,)
    d_full = analysis.diag_group((1, 1))
    assert d_full.dimension == 1
    assert d_full.pi0.is_trivial


def test_full_subset_gives_whole_dual_torus():
    for doc in (gallery.GL1_STANDARD, gallery.GM_TIMES_GM, gallery.NORM_QUOTIENT_S3):
        analysis = load_spec(doc)
        diag = analysis.diag_group(analysis.coweights.multiplicity)
        assert diag.dimension == analysis.spec.n
        assert diag.pi0.is_trivial


def test_faithfulness():
    assert load_spec(gallery.GL1_STANDARD).is_faithful()
    assert load_spec(gallery.GL1_REPEATED_1001).is_faithful()
    doubled = {"dim": 1, "generators": [], "coweights": [{"vector": [2]}]}
    assert not load_spec(doubled).is_faithful()


def test_invariant_A_values():
    assert load_spec(gallery.GL1_STANDARD).invariant_A()[0] == 2
    assert load_spec(gallery.GL1_REPEATED_1001).invariant_A()[0] == Fraction(2, 1001)
    assert load_spec(gallery.GL1_SQUARE_CUBE).invariant_A()[0] == 1
    assert load_spec(gallery.GM_TIMES_GM).invariant_A()[0] == 2


def test_invariant_A_requires_faithful():
    doubled = {"dim": 1, "generators": [], "coweights": [{"vector": [2]}]}
    with pytest.raises(NotFaithfulError):
        load_spec(doubled).invariant_A()


def test_non_faithful_torus_refuses_A_and_abscissa_after_lambda():
    # the support pass also visits the empty sub-multiset, whose kernel is nontrivial here
    analysis = load_spec({"dim": 2, "coweights": [{"vector": [1, 0]}]})
    assert analysis.lambda_invariant() == 1
    with pytest.raises(NotFaithfulError):
        analysis.invariant_A()
    with pytest.raises(NotFaithfulError):
        analysis.abscissa()


def test_invariant_A_witness_tie_break_is_lex_smallest():
    analysis = load_spec(gallery.GM_TIMES_GM)
    _, witness = analysis.invariant_A()
    assert witness == (0, 1)


def test_sigma_sets():
    assert load_spec(gallery.GL1_STANDARD).sigma_set() == ((1,),)
    assert load_spec(gallery.GL1_SQUARE_CUBE).sigma_set() == ((0, 1), (1, 0), (1, 1))
    assert load_spec(gallery.GM_TIMES_GM).sigma_set() == ((0, 1), (1, 0))


def test_lambda_values():
    assert load_spec(gallery.GL1_STANDARD).lambda_invariant() == 1
    assert load_spec(gallery.GL1_SQUARE_CUBE).lambda_invariant() == 6
    assert load_spec(gallery.GM_TIMES_GM).lambda_invariant() == 1
    assert load_spec(gallery.NORM_QUOTIENT_S4).lambda_invariant() == 1


def test_strata():
    strata = load_spec(gallery.GL1_SQUARE_CUBE).strata()
    assert strata == {
        (0, 1): [(0, 1), (1, 0)],
        (1, 2): [(1, 1)],
    }
    assert set(load_spec(gallery.GL1_STANDARD).strata()) == {(1, 1)}
    assert set(load_spec(gallery.GM_TIMES_GM).strata()) == {(1, 1)}


def test_abscissae():
    a1 = load_spec(gallery.GL1_STANDARD)
    assert a1.abscissa() == 1
    a3 = load_spec(gallery.GL1_SQUARE_CUBE)
    assert a3.abscissa() == Fraction(1, 2)
    a2 = load_spec(gallery.GL1_REPEATED_1001)
    assert a2.abscissa() == Fraction(1, 1001)


def test_action_permutations_compose():
    analysis = load_spec(gallery.NORM_QUOTIENT_S4)
    spec = analysis.spec
    action = analysis.coweights.action
    for i in range(spec.order):
        for j in range(spec.order):
            k = spec.compose(i, j)
            composed = tuple(action[i][action[j][x]] for x in range(len(analysis.coweights)))
            assert composed == action[k]


def test_action_preserves_dimension_and_pi0():
    analysis = load_spec(gallery.NORM_QUOTIENT_S4)
    for s in analysis.subsets():
        base = analysis.diag_group(s)
        for g in range(analysis.spec.order):
            moved = analysis.diag_group(analysis.act_on_subset(g, s))
            assert moved.dimension == base.dimension
            assert moved.pi0.invariant_factors == base.pi0.invariant_factors


def test_diag_group_monotone_in_subset():
    analysis = load_spec(gallery.GL1_SQUARE_CUBE)
    subsets = list(analysis.subsets())
    for s in subsets:
        for t in subsets:
            if all(a <= b for a, b in zip(s, t)):
                assert analysis.diag_group(s).dimension <= analysis.diag_group(t).dimension


def test_exponent_bounds_on_random_faithful_specs():
    rng = random.Random(1234)
    for _ in range(60):
        analysis = random_faithful_spec(rng)
        value, witness = analysis.invariant_A()
        n, m = analysis.spec.n, analysis.coweights.m
        assert Fraction(n + 1, m) <= value <= 2
        assert value.denominator <= m
        diag = analysis.diag_group(witness)
        assert not diag.is_trivial
        assert Fraction(diag.dimension + 1, sum(witness)) == value
        assert analysis.abscissa() < value


def _brute_force(analysis):
    """A with its lex-first witness, both abscissae and lambda, over every count vector."""
    best = witness = None
    ramified = archimedean = Fraction(0)
    lam = 1
    for s in analysis.subsets():
        diag = analysis.diag_group(s)
        lam = lcm(lam, diag.pi0.torsion_order)
        if not any(s) or diag.is_trivial:
            continue
        ratio = Fraction(diag.dimension + 1, sum(s))
        if best is None or ratio > best:
            best, witness = ratio, s
        ramified = max(ramified, Fraction(diag.dimension, sum(s)))
        if diag.dimension >= 1:
            archimedean = max(archimedean, Fraction(diag.dimension, sum(s)))
    return best, witness, ramified, archimedean, lam


def test_all_or_nothing_invariants_match_every_count_vector():
    rng = random.Random(4321)
    analyses = [load_spec(doc) for _, doc, _ in gallery.GALLERY]
    analyses += [scaled_multiplicities(random_faithful_spec(rng), rng, 4) for _ in range(40)]
    for analysis in analyses:
        value, witness, ramified, archimedean, lam = _brute_force(analysis)
        assert analysis.invariant_A() == (value, witness)
        assert analysis.abscissa() == ramified == archimedean
        assert analysis.lambda_invariant() == lam
    # most inputs have count vectors that are not all-or-nothing
    assert sum(max(a.coweights.multiplicity) > 1 for a in analyses) > len(analyses) // 2


def test_generator_free_spec_skips_the_finite_order_sieve(monkeypatch):
    def refused(n):
        raise AssertionError("finite-order sieve run without generators")

    monkeypatch.setattr(torus, "_finite_order_exponent", refused)
    doc = {"dim": 3, "coweights": [{"vector": v} for v in ([1, 0, 0], [0, 1, 0], [0, 0, 1])]}
    assert load_spec(doc).spec.order == 1
    with pytest.raises(AssertionError, match="sieve"):
        load_spec(dict(doc, generators=[[[0, 1, 0], [1, 0, 0], [0, 0, 1]]]))
