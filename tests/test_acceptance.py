"""Acceptance gate: every criterion below must pass exactly, at the stated
sizes and within the stated budgets.  Run with `pytest tests/test_acceptance.py -v -s`
to see one line per criterion."""

import itertools
import random
import time
from fractions import Fraction
from math import gcd

from toruscount import gallery
from toruscount.archim import check_domination
from toruscount.cli import build_report
from toruscount.errors import EnumerationCapError
from toruscount.localfactors import LocalCalculator, make_local_data
from toruscount.matroid import LinearMatroid, b_infinity, b_infinity_oracle
from toruscount.orbits import FiberedAttainingSet
from toruscount.torus import load_spec

from randspecs import random_faithful_spec
from test_archim import random_blocks


def report(line):
    print(f"\n[acceptance] {line}")


def test_criterion_1_example_gallery():
    expectations = {
        "gl1-standard": {"A": "2", "deg_P": 0},
        "gl1-repeated-1001": {"A": "2/1001"},
        "gl1-square-cube": {"A": "1", "lambda": 6, "sigma_tilde0_size": 4, "deg_P": 2},
        "gm-times-gm": {"A": "2", "deg_P": 1},
        "norm-quotient-s3": {"A": "1", "deg_P": 1},
        "norm-quotient-s4": {"A": "1", "deg_P": 2},
        "norm-quotient-z4": {"deg_P": 3},
    }
    for name, doc, _ in gallery.GALLERY:
        start = time.monotonic()
        report_dict = build_report(load_spec(doc), doc)
        elapsed = time.monotonic() - start
        for key, want in expectations[name].items():
            assert report_dict[key] == want, (name, key, report_dict.get(key))
        assert elapsed < 1.0, (name, elapsed)
    report("criterion 1 PASS: example gallery exact, under one second each")


def test_criterion_2_exponent_bounds_on_500_random_specs():
    rng = random.Random(160920)
    start = time.monotonic()
    for i in range(500):
        analysis = random_faithful_spec(rng, max_n=4, max_m=8, max_group=24)
        value, _ = analysis.invariant_A()
        n, m = analysis.spec.n, analysis.coweights.m
        assert Fraction(n + 1, m) <= value <= 2, (i, n, m, value)
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, elapsed
    report(f"criterion 2 PASS: bounds on 500 random faithful specs in {elapsed:.1f}s")


def test_criterion_3_polytope_oracle_equivalence_on_200_matrices():
    rng = random.Random(271828)
    start = time.monotonic()
    done = 0
    while done < 200:
        n = rng.randrange(1, 5)
        rows = rng.randrange(n, 8)
        matrix = [[Fraction(rng.randrange(-4, 5), rng.choice((1, 1, 1, 2, 3)))
                   for _ in range(n)] for _ in range(rows)]
        matroid = LinearMatroid(matrix)
        if not matroid.full_rank():
            continue
        value, cert = b_infinity(matroid)
        assert value == b_infinity_oracle(matroid), matrix
        assert Fraction(cert.beta, cert.alpha) == value
        done += 1
    elapsed = time.monotonic() - start
    assert elapsed < 120.0, elapsed
    report(f"criterion 3 PASS: base-polytope optimum equals oracle on 200 matrices "
           f"in {elapsed:.1f}s")


def _random_stable_counts(rng, analysis, fr):
    counts = [rng.randrange(0, m + 1) for m in analysis.coweights.multiplicity]
    perm = analysis.coweights.action[fr]
    for i in range(len(counts)):
        j = perm[i]
        while j != i:
            counts[i] = min(counts[i], counts[j])
            j = perm[j]
    for i in range(len(counts)):
        counts[perm[i]] = counts[i]
    return tuple(counts)


def test_criterion_4_local_oracle_equivalence():
    rng = random.Random(577215)
    done = 0
    while done < 300:
        analysis = random_faithful_spec(rng, max_n=3, max_m=6)
        calc = LocalCalculator(analysis)
        fr = rng.randrange(analysis.spec.order)
        qs = [q for q in (2, 3, 5, 7, 11, 13) if gcd(q, calc.lambda_) == 1]
        if not qs:
            continue
        local = make_local_data(analysis, rng.choice(qs), fr)
        s = _random_stable_counts(rng, analysis, fr)
        diag = analysis.diag_group(s)
        try:
            oracle = calc.hom_count_oracle(diag, local, cap=10**4)
        except EnumerationCapError:
            continue
        assert calc.hom_count(diag, local) == oracle
        done += 1

    for doc in (gallery.GL1_STANDARD, gallery.GL1_SQUARE_CUBE, gallery.GM_TIMES_GM):
        analysis = load_spec(doc)
        calc = LocalCalculator(analysis)
        for q in (5, 7, 11, 13):
            local = make_local_data(analysis, q)
            for s in analysis.subsets():
                torsion, free = calc.hom_count_parts(analysis.diag_group(s), local)
                assert torsion == calc.a_count(s, local)
                assert torsion == calc.a_count_via_cokernel(s, local)
                assert torsion * free == calc.hom_count(analysis.diag_group(s), local)
    report("criterion 4 PASS: 300 random hom-counts equal the brute-force oracle; "
           "fixed-point counts match the classical torsion cokernel")


def test_criterion_5_inclusion_exclusion_consistency():
    for doc in (gallery.GL1_STANDARD, gallery.GL1_SQUARE_CUBE, gallery.GM_TIMES_GM):
        analysis = load_spec(doc)
        calc = LocalCalculator(analysis)
        for q in (5, 7, 11, 13):
            if gcd(q, calc.lambda_) != 1:
                continue
            local = make_local_data(analysis, q)
            k = len(analysis.coweights)
            for c in itertools.product(range(3), repeat=k):
                total = sum(
                    calc.pi_eq(cp, local)
                    for cp in itertools.product(*(range(x + 1) for x in c))
                )
                assert total == calc.pi_leq(c, local), (doc["dim"], q, c)
    report("criterion 5 PASS: exact counts telescope to bounded counts for all "
           "conductor vectors with entries <= 2")


def test_criterion_6_first_coefficient_spot_check():
    analysis = load_spec(gallery.GL1_SQUARE_CUBE)
    calc = LocalCalculator(analysis)
    for q in (7, 13, 19):
        assert q % 6 == 1
        local = make_local_data(analysis, q)
        table = calc.local_factor(local, cap=1)
        a_sq = calc.a_count((1, 0), local)
        a_cu = calc.a_count((0, 1), local)
        assert table[1] == 3 == (a_sq - 1) + (a_cu - 1)
        # independent brute force over characters of a cyclic group of order q-1
        brute = sum(
            1 for k in range(q - 1)
            if (2 * k % (q - 1) != 0) + (3 * k % (q - 1) != 0) == 1
        )
        assert brute == 3
    report("criterion 6 PASS: first coefficient equals 3 for split residues, "
           "matching the character brute force")


def test_criterion_7_group_action_well_defined():
    for doc in (gallery.GL1_SQUARE_CUBE, gallery.GM_TIMES_GM, gallery.NORM_QUOTIENT_S3,
                gallery.NORM_QUOTIENT_S4, gallery.NORM_QUOTIENT_Z4):
        space = FiberedAttainingSet(load_spec(doc))
        analysis = space.analysis
        lam = space.lambda_
        identity = (analysis.spec.identity_index, 1 % lam)
        for e in space.elements:
            assert space.act(identity, e) == e
        for (g1, u1), (g2, u2) in itertools.product(space.gtilde.elements, repeat=2):
            prod = (analysis.spec.compose(g1, g2), (u1 * u2) % lam)
            for e in space.elements:
                assert space.act(prod, e) == space.act((g1, u1), space.act((g2, u2), e))
        assert space.orbit_count() == space.burnside_orbit_count()
    report("criterion 7 PASS: action satisfies the composition law and orbit "
           "enumeration matches the averaged fixed-point count")


def test_criterion_8_domination_on_100_random_blocks():
    rng = random.Random(424242)
    for _ in range(100):
        mats = random_blocks(rng, max_dim=3)
        assert check_domination(mats)
    report("criterion 8 PASS: abscissa bound dominated by the combined matrix "
           "optimum on 100 random block systems")
