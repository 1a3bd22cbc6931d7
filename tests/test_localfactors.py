import itertools
import json
import random
from math import gcd

import pytest

from toruscount import gallery, localfactors
from toruscount.cli import main
from toruscount.errors import EnumerationCapError, SpecValidationError
from toruscount.localfactors import LocalCalculator, make_local_data
from toruscount.torus import load_spec

from randspecs import random_faithful_spec, scaled_multiplicities


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
    mu3 = analysis.diag_group((1, 0))
    assert calc.hom_count(mu3, local7) == 3
    trivial = analysis.diag_group((0, 0))
    assert calc.hom_count(trivial, local7) == 1
    whole = analysis.diag_group((1, 1))
    assert calc.hom_count(whole, local7) == 6


def test_hom_count_oracle_examples():
    analysis, calc = calc_for(gallery.GL1_SQUARE_CUBE)
    local7 = make_local_data(analysis, 7)
    mu3 = analysis.diag_group((1, 0))
    assert calc.hom_count_oracle(mu3, local7) == 3
    trivial = analysis.diag_group((0, 0))
    assert calc.hom_count_oracle(trivial, local7) == 1
    a1, c1 = calc_for(gallery.GL1_STANDARD)
    whole = a1.diag_group((1,))
    assert c1.hom_count_oracle(whole, make_local_data(a1, 3)) == 2
    assert c1.hom_count_oracle(whole, make_local_data(a1, 7)) == 6


def test_a_count_examples():
    analysis, calc = calc_for(gallery.GL1_SQUARE_CUBE)
    local7 = make_local_data(analysis, 7)
    assert calc.a_count((1, 0), local7) == 3
    assert calc.a_count((0, 1), local7) == 2
    assert calc.a_count((1, 1), local7) == 1


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
    assert table[0] == 1
    assert table[1] == 3
    # tame characters of order exactly 6 in a cyclic group of order 6
    assert table[2] == 2
    a1, c1 = calc_for(gallery.GL1_STANDARD)
    t1 = c1.local_factor(make_local_data(a1, 5), cap=1)
    assert t1[0] == 1
    assert t1[1] == 3


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
            assert table[e] == brute


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
        if diag.is_trivial:
            assert calc.pi_eq(s, local7) == 0
        else:
            assert calc.pi_eq(s, local7) == calc.a_count(s, local7) - 1


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
    return tuple(counts)


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


def fixed_vectors(calc, local, cap):
    """Every Frobenius-fixed count vector c with |c| = sum_i c_i m_i <= cap."""
    mults = calc.analysis.coweights.multiplicity

    def vectors(i, budget):
        if i == len(mults):
            yield ()
            return
        for x in range(budget // mults[i] + 1):
            for rest in vectors(i + 1, budget - x * mults[i]):
                yield (x,) + rest

    return (c for c in vectors(0, cap) if calc.frobenius_fixes(local, c))


def per_vector_local_factor(analysis, local, cap):
    """Independent table: pi_eq summed over every Frobenius-fixed count vector with |c| <= cap."""
    calc = LocalCalculator(analysis)
    mults = analysis.coweights.multiplicity
    coefficients = [0] * (cap + 1)
    for c in fixed_vectors(calc, local, cap):
        coefficients[sum(x * m for x, m in zip(c, mults))] += calc.pi_eq(c, local)
    return tuple(coefficients)


def pi_leq_by_levels(calc, entries, local):
    """Reference pi_leq: hom(D_0) times p^{dim D_k} for each level k = 1, 2, ... in turn."""
    if any(x < 0 for x in entries):
        return 0
    result = calc.hom_count(calc._diag_at_level(entries, 0), local)
    k = 1
    while True:
        diag = calc._diag_at_level(entries, k)
        if diag.is_trivial:
            break
        result *= local.p ** diag.dimension
        k += 1
    return result


def gallery_places():
    """(name, analysis, calculator, place) for every faithful gallery torus, Frobenius and q."""
    for name, doc, _ in gallery.GALLERY:
        analysis, calc = calc_for(doc)
        if not analysis.is_faithful():
            continue
        for fr in range(analysis.spec.order):
            for q in (5, 7, 11, 13):
                if gcd(q, calc.lambda_) == 1:
                    yield name, analysis, calc, make_local_data(analysis, q, fr)


def test_local_factor_matches_per_vector_pi_eq_on_gallery():
    deep_caps = {"gl1-square-cube": (30,), "gm-times-gm": (20,)}
    cases = 0
    for name, analysis, calc, local in gallery_places():
        for cap in (7,) + deep_caps.get(name, ()):
            table = calc.local_factor(local, cap=cap)
            assert table == per_vector_local_factor(analysis, local, cap)
        cases += 1
    assert cases > 100


def test_pi_leq_matches_the_per_level_walk():
    places = [(calc, local) for _, _, calc, local in gallery_places()]
    rng = random.Random(3141)
    wanted = len(places) + 30
    while len(places) < wanted:
        analysis = scaled_multiplicities(random_faithful_spec(rng, max_n=3, max_m=6), rng, 3)
        calc = LocalCalculator(analysis)
        qs = [q for q in (5, 7, 11, 13) if gcd(q, calc.lambda_) == 1]
        if qs:
            places.append((calc, make_local_data(
                analysis, rng.choice(qs), rng.randrange(analysis.spec.order))))
    for calc, local in places:
        for c in fixed_vectors(calc, local, 10):
            assert calc.pi_leq(c, local) == pi_leq_by_levels(calc, c, local)


def test_pi_leq_looks_up_one_kernel_per_distinct_entry(monkeypatch):
    levels = []
    lookup = LocalCalculator._diag_at_level

    def counted(self, entries, level):
        levels.append(level)
        return lookup(self, entries, level)

    monkeypatch.setattr(LocalCalculator, "_diag_at_level", counted)
    analysis, calc = calc_for(gallery.GL1_STANDARD)
    assert calc.pi_leq((1000,), make_local_data(analysis, 5)) == 4 * 5**999
    assert len(levels) <= 2
    # the level-1 kernel is mu_2, of dimension 0, so the entry 5 needs no lookup
    levels.clear()
    analysis, calc = calc_for(gallery.GL1_SQUARE_CUBE)
    assert calc.pi_leq((1, 5), make_local_data(analysis, 7)) == 6
    assert levels == [0, 1]


def test_local_factor_matches_per_vector_pi_eq_on_random_tori():
    rng = random.Random(1618)
    heavy_cycles = 0
    for _ in range(40):
        analysis = scaled_multiplicities(random_faithful_spec(rng, max_n=3, max_m=6), rng, 3)
        calc = LocalCalculator(analysis)
        qs = [q for q in (5, 7, 11, 13) if gcd(q, calc.lambda_) == 1]
        if not qs:
            continue
        local = make_local_data(analysis, rng.choice(qs), rng.randrange(analysis.spec.order))
        table = calc.local_factor(local, cap=7)
        assert table == per_vector_local_factor(analysis, local, 7)
        mults = analysis.coweights.multiplicity
        heavy_cycles += any(sum(mults[i] for i in cycle) > 1
                            for cycle in calc.frobenius_cycles(local))
    # most inputs have a cycle of weight above 1, so grid steps are not unit steps
    assert heavy_cycles > 20


def test_local_factor_computes_one_cokernel_per_level_support(monkeypatch):
    calls = []
    original = localfactors.finite_cokernel_order

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(localfactors, "finite_cokernel_order", counting)
    analysis = load_spec(gallery.NORM_QUOTIENT_S4)
    for fr in range(analysis.spec.order):
        counts = []
        for cap in (8, 24):
            calls.clear()
            calc = LocalCalculator(analysis)
            local = make_local_data(analysis, 11, fr)
            calc.local_factor(local, cap=cap)
            # every level support is a union of Frobenius cycles
            assert len(calls) <= 2 ** len(calc.frobenius_cycles(local))
            counts.append(len(calls))
        assert counts[0] == counts[1]


def test_frobenius_cycles_partition_the_coweights_once_per_place():
    analysis, calc = calc_for(gallery.NORM_QUOTIENT_Z4)
    local = make_local_data(analysis, 5, analysis.spec.word_to_index([0]))
    cycles = calc.frobenius_cycles(local)
    assert sorted(len(c) for c in cycles) == [4]
    assert calc.frobenius_cycles(local) is cycles
    assert sorted(i for c in cycles for i in c) == list(range(4))


def test_conductor_vector_cap_names_size_cap_and_flag(tmp_path, capsys):
    analysis, calc = calc_for(gallery.GL1_STANDARD)
    message = "2000001 conductor vectors up to --cap 2000000 exceed the cap of 1000000"
    with pytest.raises(EnumerationCapError, match=message):
        calc.local_factor(make_local_data(analysis, 5), cap=2000000)
    path = tmp_path / "gl1.json"
    path.write_text(json.dumps(gallery.GL1_STANDARD))
    code = main(["local", "--input", str(path), "--q", "5", "--cap", "2000000"])
    err = capsys.readouterr().err
    assert code == 2
    assert message in err


def test_infinite_order_generator_is_rejected_before_the_closure(tmp_path, capsys):
    doc = {"dim": 2, "generators": [[[0, 1], [1, 0]], [[1, 1], [0, 1]]],
           "coweights": [{"vector": [1, 0]}, {"vector": [0, 1]}]}
    message = r"^generators\[1\]: generator has infinite order$"
    with pytest.raises(SpecValidationError, match=message):
        load_spec(doc)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(doc))
    code = main(["analyze", "--input", str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert err == "validation error: generators[1]: generator has infinite order\n"
    # hyperbolic: its powers grow without bound
    hyperbolic = dict(doc, generators=[[[2, 1], [1, 1]]])
    with pytest.raises(SpecValidationError, match="infinite order"):
        load_spec(hyperbolic)
    # order 6 = the largest in GL_2(Z)
    order_six = dict(doc, generators=[[[1, -1], [1, 0]]],
                     coweights=[{"vector": v} for v in ([1, 0], [1, 1], [0, 1],
                                                       [-1, 0], [-1, -1], [0, -1])])
    assert load_spec(order_six).spec.order == 6
