"""Record the golden manifest: exit code and output digests of a fixed CLI corpus.

    PYTHONPATH=src python3 tests/record_golden.py

Run it from a checkout whose outputs are known good. The corpus is built
here, from the gallery, so no input file is committed:
- `analyze` in text and JSON on every gallery torus and on one non-faithful
  torus;
- `local --format json` on every faithful gallery torus, with every group
  element as the Frobenius, q in {5, 7, 11, 13} coprime to lambda and caps
  0, 1 and 8.

tests/test_golden.py runs the same corpus and compares it with the manifest,
so a change to any byte of stdout or stderr, or to an exit code, fails it.
Re-recording changes a check: name each changed entry and its reason.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from math import gcd
from pathlib import Path

from toruscount import cli, gallery
from toruscount.torus import load_spec

MANIFEST = Path(__file__).resolve().parent / "golden.json"

NON_FAITHFUL = ("non-faithful-z2", {"dim": 2, "coweights": [{"vector": [1, 0]}]})
QS = (5, 7, 11, 13)
CAPS = (0, 1, 8)


def _word(tree, index):
    """Generator indices whose left-to-right product is element ``index``."""
    word = []
    while index:
        index, k = tree[index]
        word.append(k)
    return word[::-1]


def _tori():
    return [(name, document) for name, document, _ in gallery.GALLERY] + [NON_FAITHFUL]


def corpus():
    """(key, torus name, command, arguments after the input path) per run, in a fixed order."""
    tori = _tori()
    runs = []
    for name, document in tori:
        for fmt in ("text", "json"):
            runs.append((name, ["analyze"], ["--format", fmt]))
    for name, document in tori:
        analysis = load_spec(document)
        if not analysis.is_faithful():
            continue
        lam = analysis.lambda_invariant()
        tree = analysis.spec.schreier_tree
        for element in range(analysis.spec.order):
            word = _word(tree, element)
            # the identity takes the default, an empty word
            frobenius = ["--frobenius", ",".join(map(str, word))] if word else []
            for q in QS:
                if gcd(q, lam) != 1:
                    continue
                for cap in CAPS:
                    runs.append((name, ["local"], ["--q", str(q)] + frobenius
                                 + ["--cap", str(cap), "--format", "json"]))
    return [(" ".join(command + ["--input", name] + tail), name, command, tail)
            for name, command, tail in runs]


def _digest(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def run_corpus(directory):
    """Manifest of the corpus: key -> [exit code, stdout digest, stderr digest]."""
    paths = {}
    for name, document in _tori():
        path = Path(directory) / f"{name}.json"
        path.write_text(json.dumps(document), encoding="utf-8")
        paths[name] = str(path)
    manifest = {}
    for key, name, command, tail in corpus():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(command + ["--input", paths[name]] + tail)
        manifest[key] = [code, _digest(out.getvalue()), _digest(err.getvalue())]
    return manifest


def main():
    with tempfile.TemporaryDirectory() as directory:
        manifest = run_corpus(directory)
    lines = [f"{json.dumps(key)}: {json.dumps(value)}" for key, value in manifest.items()]
    MANIFEST.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")
    print(f"{len(manifest)} runs recorded in {MANIFEST.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
