"""Seeded job streams for the four benchmark workloads, and the checks on
their outputs.

Every workload is a fixed cycle of templates. A template fixes what sets a
job's cost (the group, the multiplicities, the Frobenius class, the cap, the
matrix shape); the seed draws only the presentation: a conjugating signed
permutation, the coweight order, a small multiplicity jitter, the residue
size q, the matrix or block entries, and, on analyze-mult, a number of
identity generators. Runs on different seeds therefore do the same amount
of work, and no input document repeats within a run.

The generators use only the standard library, so the inputs do not depend
on the code under test.
"""

from __future__ import annotations

import hashlib
import itertools
import random
from collections.abc import Callable
from dataclasses import dataclass, field
from fractions import Fraction

from toruscount import gallery


# -- small exact helpers -----------------------------------------------------

def _matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def _transpose(a):
    return [list(col) for col in zip(*a)]


def _apply(a, v):
    return [sum(x * y for x, y in zip(row, v)) for row in a]


def _rank(rows):
    """Rank over Q by Fraction elimination."""
    rows = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for col in range(ncols):
        piv = next((r for r in range(rank, len(rows)) if rows[r][col] != 0), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for r in range(rank + 1, len(rows)):
            f = rows[r][col] / rows[rank][col]
            rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def signed_permutation(n, perm, signs=None):
    """Matrix sending e_j to signs[j] * e_perm[j] (acting on column vectors)."""
    signs = signs or [1] * n
    return [[signs[j] if perm[j] == i else 0 for j in range(n)] for i in range(n)]


def _random_signed_permutation(rng, n):
    perm = list(range(n))
    rng.shuffle(perm)
    return signed_permutation(n, perm, [rng.choice((1, -1)) for _ in range(n)])


def _identity(n):
    return signed_permutation(n, list(range(n)))


def _plus_minus_basis(n):
    out = []
    for i in range(n):
        for s in (1, -1):
            v = [0] * n
            v[i] = s
            out.append(v)
    return out


def _norm_quotient_cycle(k):
    """The (k+1)-cycle on letters b_1..b_k, b_{k+1} = -(b_1 + ... + b_k)."""
    m = [[0] * k for _ in range(k)]
    for j in range(k - 1):
        m[j + 1][j] = 1
    for i in range(k):
        m[i][k - 1] = -1
    return m


def _fraction_text(x):
    x = Fraction(x)
    return x.numerator if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


# -- jobs ----------------------------------------------------------------------

@dataclass
class Job:
    """One CLI call: the input document, the command, and the known values."""

    index: int
    template: str
    command: str            # "analyze", "local" or "binf"
    document: object        # JSON-ready input written to the job's file
    options: tuple = ()     # extra arguments after the input file
    expect: dict = field(default_factory=dict)

    def argv(self, path):
        if self.command == "binf":
            return ["binf", path, "--format", "json"]
        return [self.command, "--input", path, *self.options, "--format", "json"]


def _torus_document(n, generators, coweights):
    return {
        "dim": n,
        "generators": generators,
        "coweights": [{"vector": list(v), "multiplicity": m} for v, m in coweights],
    }


def _present(rng, n, generators, coweights, extra_identities):
    """Conjugate by a random signed permutation and shuffle the coweights.

    Padding with identity generators keeps the group, the generator indices
    and the cost the same.
    """
    p = _random_signed_permutation(rng, n)
    pt = _transpose(p)
    gens = [_matmul(_matmul(p, g), pt) for g in generators]
    gens += [_identity(n) for _ in range(extra_identities)]
    moved = [(_apply(p, v), m) for v, m in coweights]
    rng.shuffle(moved)
    return _torus_document(n, gens, moved)


# -- templates -----------------------------------------------------------------

GALLERY = {name: (doc, expect) for name, doc, expect in gallery.GALLERY}

S5_NORM_QUOTIENT = _torus_document(
    4,
    [signed_permutation(4, [1, 0, 2, 3]), _norm_quotient_cycle(4)],
    [([1, 0, 0, 0], 1), ([0, 1, 0, 0], 1), ([0, 0, 1, 0], 1), ([0, 0, 0, 1], 1),
     ([-1, -1, -1, -1], 1)],
)

# Signed-permutation groups acting on Z^n with the 2n coweights +-e_i.
_SP = signed_permutation
SIGNED_PERMUTATION_GROUPS = {
    # name: (n, generators, |G|)
    "b4": (4, [_SP(4, [1, 0, 2, 3]), _SP(4, [1, 2, 3, 0]),
               _SP(4, [0, 1, 2, 3], [-1, 1, 1, 1])], 384),
    "d4": (4, [_SP(4, [1, 0, 2, 3]), _SP(4, [1, 2, 3, 0]),
               _SP(4, [0, 1, 2, 3], [-1, -1, 1, 1])], 192),
    "a4-even-signs": (4, [_SP(4, [1, 2, 0, 3]), _SP(4, [1, 0, 3, 2]),
                          _SP(4, [0, 1, 2, 3], [-1, -1, 1, 1])], 96),
    "c4-signs": (4, [_SP(4, [1, 2, 3, 0]), _SP(4, [0, 1, 2, 3], [-1, 1, 1, 1])], 64),
    "s4-pm": (4, [_SP(4, [1, 0, 2, 3]), _SP(4, [1, 2, 3, 0]),
                  _SP(4, [0, 1, 2, 3], [-1, -1, -1, -1])], 48),
    "a4-pm": (4, [_SP(4, [1, 2, 0, 3]), _SP(4, [1, 0, 3, 2]),
                  _SP(4, [0, 1, 2, 3], [-1, -1, -1, -1])], 24),
    "b3": (3, [_SP(3, [1, 0, 2]), _SP(3, [1, 2, 0]), _SP(3, [0, 1, 2], [-1, 1, 1])], 48),
    "rot3": (3, [_SP(3, [1, 2, 0]), [[0, -1, 0], [1, 0, 0], [0, 0, 1]]], 24),
}

# Report fields of the signed-permutation tori and the S5 torus, recorded at
# the commit that introduced the benchmark. They are invariants of the torus,
# so every presentation must reproduce them.
_SIGNED_PERMUTATION_EXPECT = {
    3: {"A": "1", "lambda": 1, "sigma_size": 9, "sigma_tilde0_size": 3,
        "orbit_count": 1, "deg_P": 0},
    4: {"A": "1", "lambda": 1, "sigma_size": 12, "sigma_tilde0_size": 4,
        "orbit_count": 1, "deg_P": 0},
}
_S5_EXPECT = {"A": "1", "lambda": 1, "sigma_size": 31, "sigma_tilde0_size": 26,
              "orbit_count": 4, "deg_P": 3}


class _Distinct:
    """Draws presentations until one is new to this run.

    It keeps a 16-byte hash per document drawn, not the document.
    """

    def __init__(self):
        self.seen = set()

    def draw(self, make):
        # make(extra) -> document; after repeated collisions pad with identities
        extra = 0
        while True:
            for _ in range(32):
                doc = make(extra)
                key = hashlib.blake2b(repr(doc).encode(), digest_size=16).digest()
                if key not in self.seen:
                    self.seen.add(key)
                    return doc
            extra += 1


def _presenter(document):
    """Draws a presentation of `document` that is new to this run."""
    n = document["dim"]
    gens = document["generators"]
    cws = [(c["vector"], c.get("multiplicity", 1)) for c in document["coweights"]]
    return lambda rng, distinct: distinct.draw(lambda extra: _present(rng, n, gens, cws, extra))


def _group_template(name, document, expect):
    present = _presenter(document)

    def make(rng, distinct, index):
        return Job(index, name, "analyze", present(rng, distinct), expect=dict(expect))
    return make


def _analyze_group_cycle():
    # Seven jobs cheaper than s4-pm, three of s4-pm, seven dearer.
    s5 = _group_template("s5-norm-quotient", S5_NORM_QUOTIENT, _S5_EXPECT)
    cycle = [s5, s5, s5]
    for name in ("norm-quotient-s4", "norm-quotient-s3", "norm-quotient-z4", "norm-quotient-s3"):
        doc, expect = GALLERY[name]
        cycle.append(_group_template(name, doc, expect))
    for name, (n, gens, _) in SIGNED_PERMUTATION_GROUPS.items():
        doc = _torus_document(n, gens, [(v, 1) for v in _plus_minus_basis(n)])
        template = _group_template(name, doc, _SIGNED_PERMUTATION_EXPECT[n])
        cycle += [template] * (3 if name == "s4-pm" else 1)
    return cycle


# analyze-mult: trivial groups, large multiplicities. A and lambda have closed
# forms, derived from the kernels cut out by the complement coweights.
#
# A 1-dimensional torus has few presentations: a sign and the jittered
# multiplicities give GL1 at m = 2500 about 500 and square-cube at (60, 80)
# about 250. Every job therefore also gets 0 to MULT_PADS - 1 identity
# generators, which cost microseconds, so each template has at least 4000
# distinct documents. A 22-s run does 4 to 7 cycles, so up to 21 jobs of
# one template, on a 2-vCPU Xeon VM; a program some 190 times faster would
# be needed to use them up, and past that _Distinct pads further.

MULT_PADS = 16


def _jitter(rng, base):
    spread = max(1, base // 20)
    return base + rng.randrange(-spread, spread + 1)


def _gl1_template(base):
    def make(rng, distinct, index):
        def draw(extra):
            m = _jitter(rng, base)
            doc = _torus_document(1, [], [([rng.choice((1, -1))], m)])
            doc["generators"] = [[[1]]] * (rng.randrange(MULT_PADS) + extra)
            return doc
        doc = distinct.draw(draw)
        m = doc["coweights"][0]["multiplicity"]
        # A = 2/m is attained by all m copies (kernel GL1) and, for even m, by
        # m/2 copies with a trivial kernel, which sigma counts but the fibered
        # set drops
        expect = {"A": _fraction_text(Fraction(2, m)), "lambda": 1,
                  "sigma_size": 2 - m % 2, "sigma_tilde0_size": 1, "orbit_count": 1,
                  "deg_P": 0}
        return Job(index, f"gl1-m{base}", "analyze", doc, expect=expect)
    return make


def _square_cube_template(base1, base2):
    # A = max(2/(m1+m2), 1/m1, 1/m2) = 1/min(m1, m2); lambda = lcm(2, 3)
    def make(rng, distinct, index):
        def draw(extra):
            sign = rng.choice((1, -1))
            cws = [([2 * sign], _jitter(rng, base1)), ([3 * sign], _jitter(rng, base2))]
            rng.shuffle(cws)
            doc = _torus_document(1, [], cws)
            doc["generators"] = [[[1]]] * (rng.randrange(MULT_PADS) + extra)
            return doc
        doc = distinct.draw(draw)
        mults = [c["multiplicity"] for c in doc["coweights"]]
        expect = {"A": _fraction_text(Fraction(1, min(mults))), "lambda": 6}
        return Job(index, f"square-cube-m{base1}-{base2}", "analyze", doc, expect=expect)
    return make


def _gm_gm_three_template(bases):
    # coweights e1, e2, -e1-e2: any two form a basis, one alone leaves a
    # connected rank-1 kernel, so A = max(3/s, 2/(s - max m_i)), lambda = 1
    def make(rng, distinct, index):
        base_cws = [[1, 0], [0, 1], [-1, -1]]
        doc = distinct.draw(lambda extra: _present(
            rng, 2, [], [(v, _jitter(rng, b)) for v, b in zip(base_cws, bases)],
            rng.randrange(MULT_PADS) + extra))
        mults = [c["multiplicity"] for c in doc["coweights"]]
        s = sum(mults)
        value = max(Fraction(3, s), Fraction(2, s - max(mults)))
        expect = {"A": _fraction_text(value), "lambda": 1}
        name = "gm-gm-three-m" + "-".join(str(b) for b in bases)
        return Job(index, name, "analyze", doc, expect=expect)
    return make


def _analyze_mult_cycle():
    return [
        _gl1_template(2500),
        _square_cube_template(100, 100),
        _gm_gm_three_template((25, 25, 25)),
        _gm_gm_three_template((12, 15, 18)),
        _square_cube_template(100, 100),
        _gl1_template(20000),
        _square_cube_template(60, 80),
        _gm_gm_three_template((25, 25, 25)),
        _gl1_template(7500),
        _square_cube_template(100, 100),
        _gl1_template(20000),
    ]


# local-deep: gallery tori, Frobenius given as a word in generator indices.

_LOCAL_QS = (5, 7, 11, 13)   # all coprime to every gallery lambda (1 or 6)


def _local_template(gallery_name, word, cap):
    doc0, expect0 = GALLERY[gallery_name]
    present = _presenter(doc0)

    def make(rng, distinct, index):
        doc = present(rng, distinct)
        q = rng.choice(_LOCAL_QS)
        options = ["--q", str(q), "--cap", str(cap)]
        if word:
            options += ["--frobenius", ",".join(str(w) for w in word)]
        expect = {"lambda": expect0["lambda"], "q": q, "cap": cap}
        if gallery_name == "gl1-square-cube" and q % 6 == 1:
            # acceptance criterion 6: split residues give a first coefficient of 3
            expect["coefficient_1"] = 3
        label = f"{gallery_name}-fr{''.join(map(str, word)) or 'id'}-cap{cap}"
        return Job(index, label, "local", doc, tuple(options), expect)
    return make


def _local_deep_cycle():
    return [
        _local_template("norm-quotient-s4", [], 8),
        _local_template("norm-quotient-z4", [], 8),
        _local_template("norm-quotient-s4", [], 8),
        _local_template("norm-quotient-s4", [], 6),
        _local_template("norm-quotient-s4", [0], 8),
        _local_template("norm-quotient-s3", [], 8),
        _local_template("norm-quotient-s3", [], 7),
        _local_template("norm-quotient-s4", [0, 1], 8),
        _local_template("norm-quotient-z4", [0, 0], 8),
        _local_template("norm-quotient-s3", [0], 8),
        _local_template("gl1-square-cube", [], 8),
        _local_template("norm-quotient-z4", [0], 8),
        _local_template("norm-quotient-s4", [1], 8),
    ]


# binf-archim: rational matrices for binf, and GL1 with archimedean blocks.

def _binf_template(rows, cols):
    def make(rng, distinct, index):
        def draw(extra):
            while True:
                matrix = [[Fraction(rng.randrange(-4, 5), rng.choice((1, 1, 1, 2, 3)))
                           for _ in range(cols)] for _ in range(rows)]
                if _rank(matrix) == cols:
                    return [[_fraction_text(x) for x in row] for row in matrix]
        doc = distinct.draw(draw)
        return Job(index, f"binf-{rows}x{cols}", "binf", doc, expect={"rows": rows})
    return make


def _arch_template(n1, n2, n3, m1, m2, m3):
    """GL1-standard with a criterion-8 style block: entries in -2..2, full rank."""

    def block(rng):
        rnd = lambda r, c: [[rng.randrange(-2, 3) for _ in range(c)] for _ in range(r)]
        while True:
            doc = {"n1": n1, "n2": n2, "n3": n3, "m1": m1, "m2": m2, "m3": m3,
                   "A1": rnd(m1, n1), "A2": rnd(m2, n1), "A3": rnd(m3, n1),
                   "C": rnd(m3, n2), "B1": rnd(m1, n3), "B2": rnd(m2, n3),
                   "B3": [[[rng.randrange(-2, 3), rng.randrange(-2, 3)] for _ in range(n3)]
                          for _ in range(m3)]}
            if any(not any(doc["C"][i]) and all(b == bp for b, bp in doc["B3"][i])
                   for i in range(m3)):
                continue   # a swapped-pair row must be genuinely non-fixed
            m_re, m_prime = _arch_matrices(doc)
            if m_re and _rank(m_re) != len(m_re[0]):
                continue
            if _rank(m_prime) != len(m_prime[0]):
                continue
            return doc

    def make(rng, distinct, index):
        doc = distinct.draw(lambda extra: dict(gallery.GL1_STANDARD, archimedean=block(rng)))
        expect = dict(GALLERY["gl1-standard"][1], dominated=True)
        return Job(index, f"arch-{n1}{n2}{n3}-{m1}{m2}{m3}", "analyze", doc, expect=expect)
    return make


def _arch_matrices(doc):
    """The real and combined matrices of a block document, as row lists."""
    b3p = [[b + bp for b, bp in row] for row in doc["B3"]]
    b3m = [[b - bp for b, bp in row] for row in doc["B3"]]
    m_re = ([a + b for a, b in zip(doc["A1"], doc["B1"])]
            + [a + b for a, b in zip(doc["A2"], doc["B2"])]
            + [a + b for a, b in zip(doc["A3"], b3p)])
    zeros = [0] * doc["n2"]
    pp = [[x + y for x, y in zip(r1, r2)] for r1, r2 in zip(b3p, b3m)]
    pm = [[x - y for x, y in zip(r1, r2)] for r1, r2 in zip(b3p, b3m)]
    m_prime = ([a + zeros + b + b for a, b in zip(doc["A1"], doc["B1"])]
               + [a + zeros + b + b for a, b in zip(doc["A2"], doc["B2"])]
               + [a + c + x + y for a, c, x, y in zip(doc["A3"], doc["C"], pp, pm)]
               + [a + [-v for v in c] + y + x
                  for a, c, x, y in zip(doc["A3"], doc["C"], pp, pm)])
    return m_re, m_prime


def _binf_archim_cycle():
    return [
        _binf_template(11, 4),
        _arch_template(1, 1, 1, 2, 1, 2),
        _binf_template(10, 3),
        _arch_template(3, 1, 1, 3, 2, 2),
        _binf_template(9, 3),
        _binf_template(11, 4),
        _arch_template(2, 1, 1, 2, 1, 2),
        _binf_template(10, 3),
        _binf_template(12, 2),
        _arch_template(2, 1, 1, 2, 2, 2),
        _binf_template(11, 4),
        _binf_template(9, 3),
        _binf_template(10, 3),
    ]


# Two rules keep a run's percentiles inside one cost cluster, whatever the
# number of cycles c a run completes (about 4 to 9 at 22 s):
# - each cycle has as many jobs cheaper than its middle cluster as dearer
#   ones, and the middle cluster is three copies of one template (s4-pm,
#   square-cube at (100, 100), binf 10x3), so the median job is one of
#   those 3c jobs; on local-deep it is one template between neighbours of
#   similar cost.
# - the costliest cluster has three or four jobs per cycle, enough that at
#   least twelve of them run, so the job with ten slower ones beyond it is
#   one of them.

@dataclass(frozen=True)
class Workload:
    name: str
    cycle_factory: Callable[[], list]   # fresh template closures for one stream

    def stream(self, seed):
        """Endless job stream for one seed: the template cycle, repeated."""
        rng = random.Random(f"{self.name}:{seed}")
        cycle = self.cycle_factory()
        distinct = _Distinct()
        for index in itertools.count():
            yield cycle[index % len(cycle)](rng, distinct, index)

    @property
    def cycle_length(self):
        return len(self.cycle_factory())


WORKLOADS = {
    w.name: w for w in (
        Workload("analyze-group", _analyze_group_cycle),
        Workload("analyze-mult", _analyze_mult_cycle),
        Workload("local-deep", _local_deep_cycle),
        Workload("binf-archim", _binf_archim_cycle),
    )
}


# -- output checks -------------------------------------------------------------

def check_output(job, payload):
    """Problems with one job's parsed JSON output; empty when it is correct."""
    problems = []

    def expect(key, got):
        if key in job.expect and got != job.expect[key]:
            problems.append(f"{key}: expected {job.expect[key]!r}, got {got!r}")

    if job.command == "analyze":
        if payload.get("faithful") is not True:
            return ["torus reported as not faithful"]
        for key in ("A", "lambda", "sigma_size", "sigma_tilde0_size", "orbit_count", "deg_P"):
            expect(key, payload.get(key))
        n = job.document["dim"]
        m = sum(c.get("multiplicity", 1) for c in job.document["coweights"])
        a = Fraction(payload["A"])
        if not Fraction(n + 1, m) <= a <= 2:
            problems.append(f"A = {a} outside [(n+1)/m, 2] = [{Fraction(n + 1, m)}, 2]")
        if payload["orbit_count"] != payload["deg_P"] + 1:
            problems.append("orbit_count != deg_P + 1")
        if sum(len(s["subsets"]) for s in payload["strata"]) != payload["sigma_size"]:
            problems.append("strata subset counts do not sum to sigma_size")
        if sum(s["orbits"] for s in payload["strata"]) != payload["orbit_count"]:
            problems.append("strata orbit counts do not sum to orbit_count")
        if "dominated" in job.expect:
            expect("dominated", payload.get("archimedean_blocks", {}).get("dominated"))
    elif job.command == "local":
        coefficients = [row["coefficient"] for row in payload["coefficients"]]
        if [row["e"] for row in payload["coefficients"]] != list(range(job.expect["cap"] + 1)):
            problems.append("coefficient table does not run from e=0 to the cap")
        elif coefficients[0] != 1:
            problems.append(f"coefficient e=0 is {coefficients[0]}, expected 1")
        expect("lambda", payload.get("lambda"))
        expect("q", payload.get("q"))
        expect("cap", payload.get("cap"))
        if "coefficient_1" in job.expect:
            expect("coefficient_1", coefficients[1] if len(coefficients) > 1 else None)
    else:
        value = Fraction(payload["value"])
        alpha, beta = payload["alpha"], payload["beta"]
        if value != Fraction(beta, alpha):
            problems.append(f"value {value} != beta/alpha = {beta}/{alpha}")
        subset = payload["subset"]
        if len(subset) != alpha or not all(1 <= i <= job.expect["rows"] for i in subset):
            problems.append("witness subset does not have alpha rows of the matrix")
    return problems
