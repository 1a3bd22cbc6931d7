import itertools
import random
from math import gcd

import pytest

from toruscount import gallery
from toruscount.errors import EnumerationCapError, SpecValidationError
from toruscount.localfactors import LocalCalculator, make_local_data
from toruscount.torus import SubMultiset, load_spec

from randspecs import random_faithful_spec


def calc_for(doc):
    analysis = load_spec(doc)
    return analysis, LocalCalculator(analysis)


def test_make_local_data_prime_power_and_order():
    analysis, _ = calc_for(gallery.GL1_SQUARE_CUBE)
    local = make_local_data(analysis, 49)
    assert (local.q, local.p, local.f) == (49, 7, 1)
    with pytest.raises(SpecValidationError, match="prime power"):
        make_local_data(analysis, 12)


def test_make_local_data_large_q_splits_by_trial_division_to_sqrt():
    analysis, _ = calc_for(gallery.GL1_STANDARD)
    assert make_local_data(analysis, 1_000_000_007).p == 1_000_000_007
    assert make_local_data(analysis, 3**13).p == 3
    with pytest.raises(SpecValidationError, match="prime power"):
        make_local_data(analysis, 2 * 1_000_000_007)


def test_coprimality_guard():
    analysis, calc = calc_for(gallery.GL1_SQUARE_CUBE)
    local = make_local_data(analysis, 3)
    with pytest.raises(SpecValidationError, match="coprime"):
        calc.pi_leq((0, 0), local)


def test_hom_count_examples():
    analysis, calc = calc_for(gallery.GL1_SQUARE_CUBE)
    local7 = make_local_data(analysis, 7)
    mu3 = analysis.diag_group(SubMultiset((1, 0)))
    assert calc.hom_count(mu3, local7) == 3
    trivial = analysis.diag_group(SubMultiset((0, 0)))
    assert calc.hom_count(trivial, local7) == 1
    whole = analysis.diag_group(SubMultiset((1, 1)))
    assert calc.hom_count(whole, local7) == 6


def test_hom_count_oracle_examples():
    analysis, calc = calc_for(gallery.GL1_SQUARE_CUBE)
    local7 = make_local_data(analysis, 7)
    mu3 = analysis.diag_group(SubMultiset((1, 0)))
    assert calc.hom_count_oracle(mu3, local7) == 3
    trivial = analysis.diag_group(SubMultiset((0, 0)))
    assert calc.hom_count_oracle(trivial, local7) == 1
    a1, c1 = calc_for(gallery.GL1_STANDARD)
    whole = a1.diag_group(SubMultiset((1,)))
    assert c1.hom_count_oracle(whole, make_local_data(a1, 3)) == 2
    assert c1.hom_count_oracle(whole, make_local_data(a1, 7)) == 6


def test_a_count_examples():
    analysis, calc = calc_for(gallery.GL1_SQUARE_CUBE)
    local7 = make_local_data(analysis, 7)
    assert calc.a_count(SubMultiset((1, 0)), local7) == 3
    assert calc.a_count(SubMultiset((0, 1)), local7) == 2
    assert calc.a_count(SubMultiset((1, 1)), local7) == 1


def test_pi_leq_examples():
    analysis, calc = calc_for(gallery.GL1_SQUARE_CUBE)
    local7 = make_local_data(analysis, 7)
    assert calc.pi_leq((0, 0), local7) == 1
    assert calc.pi_leq((0, 1), local7) == 2
    a1, c1 = calc_for(gallery.GL1_STANDARD)
    assert c1.pi_leq((2,), make_local_data(a1, 5)) == 20


def test_pi_eq_examples():
    analysis, calc = calc_for(gallery.GL1_SQUARE_CUBE)
    local7 = make_local_data(analysis, 7)
    assert calc.pi_eq((0, 0), local7) == 1
    assert calc.pi_eq((0, 1), local7) == 1
    assert calc.pi_eq((1, 0), local7) == 2


def test_local_factor_examples():
    analysis, calc = calc_for(gallery.GL1_SQUARE_CUBE)
    table = calc.local_factor(make_local_data(analysis, 7), cap=2)
    assert table.coefficient(0) == 1
    assert table.coefficient(1) == 3
    # tame characters of order exactly 6 in a cyclic group of order 6
    assert table.coefficient(2) == 2
    a1, c1 = calc_for(gallery.GL1_STANDARD)
    t1 = c1.local_factor(make_local_data(a1, 5), cap=1)
    assert t1.coefficient(0) == 1
    assert t1.coefficient(1) == 3


def test_local_factor_coefficient_matches_character_brute_force():
    # brute force over characters of the multiplicative group of F_q, q prime:
    # a character is g -> zeta^k; its component along the coweight z^j is
    # trivial exactly when j*k = 0 mod q-1
    analysis, calc = calc_for(gallery.GL1_SQUARE_CUBE)
    for q in (7, 13):
        table = calc.local_factor(make_local_data(analysis, q), cap=2)
        for e in (0, 1, 2):
            brute = 0
            for k in range(q - 1):
                weight = (2 * k % (q - 1) != 0) + (3 * k % (q - 1) != 0)
                if weight == e:
                    brute += 1
            assert table.coefficient(e) == brute


def test_reduced_vector_vanishing():
    # non-fixed conductor vectors vanish, both by rule and by the alternating sum
    analysis, calc = calc_for(gallery.NORM_QUOTIENT_Z4)
    four_cycle = analysis.spec.word_to_index([0])
    local = make_local_data(analysis, 5, four_cycle)
    assert local.f == 4
    c = (1, 0, 0, 0)
    assert calc.pi_eq(c, local) == 0
    total = 0
    for pattern in itertools.product((0, 1), repeat=4):
        lowered = tuple(x - b for x, b in zip(c, pattern))
        term = calc._pi_leq_reduced(lowered, local)
        total += -term if sum(pattern) % 2 else term
    assert total == 0


def test_inclusion_exclusion_consistency_on_examples():
    for doc in (gallery.GL1_STANDARD, gallery.GL1_SQUARE_CUBE, gallery.GM_TIMES_GM):
        analysis, calc = calc_for(doc)
        local = make_local_data(analysis, 7)
        k = len(analysis.coweights)
        for c in itertools.product(range(3), repeat=k):
            total = 0
            for cp in itertools.product(*(range(x + 1) for x in c)):
                total += calc.pi_eq(cp, local)
            assert total == calc.pi_leq(c, local)


def test_exact_kernel_shape_for_zero_dimensional_attaining_subsets():
    analysis, calc = calc_for(gallery.GL1_SQUARE_CUBE)
    local7 = make_local_data(analysis, 7)
    for s in analysis.sigma_set():
        diag = analysis.diag_group(s)
        if diag.dimension != 0:
            continue
        indicator = s.counts
        if diag.is_trivial:
            assert calc.pi_eq(indicator, local7) == 0
        else:
            assert calc.pi_eq(indicator, local7) == calc.a_count(s, local7) - 1


def test_trivial_kernel_indicator_vanishes():
    analysis, calc = calc_for(gallery.NORM_QUOTIENT_S3)
    local = make_local_data(analysis, 5)
    # singleton sub-multisets have trivial kernels here
    assert calc.pi_eq((1, 0, 0), local) == 0


def test_classical_decomposition_on_trivial_galois_examples():
    for doc in (gallery.GL1_STANDARD, gallery.GL1_SQUARE_CUBE, gallery.GM_TIMES_GM):
        analysis, calc = calc_for(doc)
        for q in (5, 7, 11, 13):
            if gcd(q, calc.lambda_) != 1:
                continue
            local = make_local_data(analysis, q)
            for s in analysis.subsets():
                diag = analysis.diag_group(s)
                torsion, free = calc.hom_count_parts(diag, local)
                assert torsion * free == calc.hom_count(diag, local)
                assert torsion == calc.a_count(s, local)
                assert torsion == calc.a_count_via_cokernel(s, local)


def random_stable_subset(rng, analysis, fr):
    counts = list(rng.randrange(0, m + 1) for m in analysis.coweights.multiplicity)
    perm = analysis.coweights.action[fr]
    # orbit-minimize to make the counts Frobenius-fixed
    for i in range(len(counts)):
        j = perm[i]
        while j != i:
            counts[i] = min(counts[i], counts[j])
            j = perm[j]
    for i in range(len(counts)):
        counts[perm[i]] = counts[i]
    return SubMultiset(tuple(counts))


def test_hom_count_matches_oracle_on_random_inputs():
    rng = random.Random(2718)
    done = 0
    while done < 60:
        analysis = random_faithful_spec(rng, max_n=3, max_m=6)
        calc = LocalCalculator(analysis)
        fr = rng.randrange(analysis.spec.order)
        if analysis.spec.element_order(fr) > 2:
            continue
        qs = [q for q in (2, 3, 5, 7, 11, 13) if gcd(q, calc.lambda_) == 1]
        if not qs:
            continue
        local = make_local_data(analysis, rng.choice(qs), fr)
        s = random_stable_subset(rng, analysis, fr)
        diag = analysis.diag_group(s)
        try:
            oracle = calc.hom_count_oracle(diag, local, cap=10**4)
        except EnumerationCapError:
            continue
        assert calc.hom_count(diag, local) == oracle
        torsion, free = calc.hom_count_parts(diag, local)
        assert torsion * free == oracle
        done += 1
