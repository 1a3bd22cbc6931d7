"""Shared random-input generators for property and acceptance tests."""

from toruscount.errors import SpecValidationError
from toruscount.intlinalg import IntMatrix
from toruscount.torus import TorusSpec, load_spec


def random_signed_permutation(rng, n):
    perm = list(range(n))
    rng.shuffle(perm)
    signs = [rng.choice([1, -1]) for _ in range(n)]
    return [[signs[i] if perm[j] == i else 0 for j in range(n)] for i in range(n)]


def random_faithful_spec(rng, max_n=4, max_m=8, max_group=24):
    """Random faithful input with signed-permutation generators and stable orbits."""
    while True:
        n = rng.randrange(1, max_n + 1)
        gens = [random_signed_permutation(rng, n) for _ in range(rng.randrange(0, 3))]
        try:
            group = TorusSpec(n, [IntMatrix.from_rows(g, cols=n) for g in gens])
        except SpecValidationError:
            continue
        if group.order > max_group:
            continue
        # grow a stable coweight multiset by closing random vectors under the group
        vectors = {}
        for _ in range(rng.randrange(1, 4)):
            v = tuple(rng.randrange(-2, 3) for _ in range(n))
            orbit = {v}
            frontier = [v]
            while frontier:
                w = frontier.pop()
                for g in group.group_elements:
                    img = g.apply(w)
                    if img not in orbit:
                        orbit.add(img)
                        frontier.append(img)
            mult = rng.randrange(1, 3)
            for w in orbit:
                vectors[w] = max(vectors.get(w, 0), mult)
        if not vectors or sum(vectors.values()) > max_m:
            continue
        doc = {
            "dim": n,
            "generators": gens,
            "coweights": [
                {"vector": list(v), "multiplicity": k} for v, k in sorted(vectors.items())
            ],
        }
        try:
            analysis = load_spec(doc)
        except SpecValidationError:
            continue
        if analysis.is_faithful():
            return analysis


def scaled_multiplicities(analysis, rng, max_factor):
    """The same torus with each coweight orbit's multiplicity multiplied by 1..max_factor."""
    factor = {}
    for i in range(len(analysis.coweights)):
        if i not in factor:
            f = rng.randint(1, max_factor)
            factor.update((perm[i], f) for perm in analysis.coweights.action)
    return load_spec({
        "dim": analysis.spec.n,
        "generators": [[list(row) for row in g.entries] for g in analysis.spec.generators],
        "coweights": [
            {"vector": list(v), "multiplicity": m * factor[i]}
            for i, (v, m) in enumerate(zip(analysis.coweights.distinct,
                                           analysis.coweights.multiplicity))
        ],
    })
