"""Command-line front end: analyze a torus input file, tabulate local Euler
coefficients, optimize over a matrix's base polytope, or run the built-in
example gallery."""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .archim import ArchBlocks, arch_abscissa, assemble
from .errors import (
    EnumerationCapError,
    LatticeNotPreservedError,
    SchemaError,
    SpecValidationError,
)
from .gallery import GALLERY
from .localfactors import LocalCalculator, make_local_data
from .matroid import LinearMatroid, b_infinity
from .orbits import FiberedAttainingSet, build_gtilde
from .torus import DEFAULT_DISTINCT_CAP, load_spec

SCHEMA_EXIT = 1
VALIDATION_EXIT = 2


def format_rational(x) -> str:
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def parse_rational(text):
    if isinstance(text, int) and not isinstance(text, bool):
        return Fraction(text)
    if isinstance(text, str):
        try:
            return Fraction(text)
        except (ValueError, ZeroDivisionError):
            pass
    raise SchemaError(f"matrix entry {text!r}: expected an integer or 'p/q' string")


def _load_document(path):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise SchemaError(f"{path}: {exc.strerror or exc}") from None
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: invalid JSON ({exc})") from None


def _word_index(analysis, word, field):
    try:
        return analysis.spec.word_to_index(word)
    except SchemaError as exc:
        raise SchemaError(f"{field}: {exc}") from None


def _gtilde_from_document(analysis, document):
    doc = document.get("gtilde")
    if doc is None:
        return build_gtilde(analysis)
    if not isinstance(doc, dict) or doc.get("mode") not in ("full", "explicit"):
        raise SchemaError("gtilde.mode: expected 'full' or 'explicit'")
    if doc["mode"] == "full":
        return build_gtilde(analysis)
    gens = doc.get("generators", [])
    if not isinstance(gens, list):
        raise SchemaError("gtilde.generators: expected a list of {'g': word, 'unit': int}")
    override = []
    for idx, gen in enumerate(gens):
        if not isinstance(gen, dict) or "g" not in gen or "unit" not in gen:
            raise SchemaError(f"gtilde.generators[{idx}]: expected {{'g': word, 'unit': int}}")
        word = gen["g"]
        if not isinstance(word, list) or not all(
                isinstance(w, int) and not isinstance(w, bool) for w in word):
            raise SchemaError(f"gtilde.generators[{idx}].g: expected a list of generator indices")
        if not isinstance(gen["unit"], int) or isinstance(gen["unit"], bool):
            raise SchemaError(f"gtilde.generators[{idx}].unit: expected an integer")
        override.append((_word_index(analysis, word, f"gtilde.generators[{idx}].g"),
                         gen["unit"]))
    return build_gtilde(analysis, override=override)


def build_report(analysis, document=None):
    """Full analysis report as a JSON-ready dict with deterministic ordering."""
    faithful = analysis.is_faithful()
    report = {
        "faithful": faithful,
        "verdict": "finite" if faithful else "infinite",
        "lambda": analysis.lambda_invariant(),
    }
    if not faithful:
        return report
    value, _ = analysis.invariant_A()
    report["A"] = format_rational(value)
    gtilde = _gtilde_from_document(analysis, document or {})
    space = FiberedAttainingSet(analysis, gtilde)
    deg, per_stratum = space.deg_P()
    strata = analysis.strata()
    report["sigma_size"] = sum(len(v) for v in strata.values())
    report["sigma_tilde0_size"] = len(space.elements)
    report["orbit_count"] = deg + 1
    report["deg_P"] = deg
    report["strata"] = [
        {
            "a": a,
            "b": b,
            "subsets": [list(s) for s in strata[(a, b)]],
            "orbits": per_stratum.get((a, b), 0),
        }
        for (a, b) in sorted(strata)
    ]
    # the ramified and archimedean abscissae are one number (see TorusAnalysis.abscissa)
    abscissa = format_rational(analysis.abscissa())
    report["abscissae"] = {"ramified": abscissa, "archimedean": abscissa}
    blocks_doc = (document or {}).get("archimedean")
    if blocks_doc is not None:
        mats = assemble(ArchBlocks.from_dict(blocks_doc))
        # each number is computed once; `dominated` is check_domination's comparison
        combined, _ = b_infinity(LinearMatroid(mats.M_prime.entries))
        bound = arch_abscissa(mats)
        report["archimedean_blocks"] = {
            "abscissa": format_rational(bound),
            "combined_optimum": format_rational(combined),
            "dominated": bound <= combined,
        }
    return report


def _print_report_text(report, out):
    print(f"faithful: {'yes' if report['faithful'] else 'no'}", file=out)
    print(f"verdict:  {report['verdict']}", file=out)
    print(f"lambda:   {report['lambda']}", file=out)
    if not report["faithful"]:
        print("count is infinite for some finite bound; no exponent to report", file=out)
        return
    print(f"A:        {report['A']}", file=out)
    print(f"deg P:    {report['deg_P']}  ({report['orbit_count']} orbits on "
          f"{report['sigma_tilde0_size']} fibered elements over {report['sigma_size']} subsets)",
          file=out)
    print("strata (kernel dim a, size b): subsets / orbit count", file=out)
    for stratum in report["strata"]:
        subsets = " ".join("(" + ",".join(str(c) for c in s) + ")" for s in stratum["subsets"])
        print(f"  a={stratum['a']} b={stratum['b']}: {subsets} / {stratum['orbits']}", file=out)
    absc = report["abscissae"]
    print(f"abscissae: ramified {absc['ramified']}, archimedean {absc['archimedean']}", file=out)
    blocks = report.get("archimedean_blocks")
    if blocks:
        print(f"archimedean blocks: abscissa {blocks['abscissa']}, combined optimum "
              f"{blocks['combined_optimum']}, dominated {'yes' if blocks['dominated'] else 'NO'}",
              file=out)


def cmd_analyze(args, out):
    document = _load_document(args.input)
    analysis = load_spec(document, distinct_cap=args.distinct_cap)
    report = build_report(analysis, document)
    if args.format == "json":
        print(json.dumps(report, indent=2), file=out)
    else:
        _print_report_text(report, out)
    return 0


def _check_printable(coefficients, cap):
    """Refuse a coefficient beyond Python's int-to-str digit limit before any output."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        return
    bound = 10**limit
    for e, c in enumerate(coefficients):
        if abs(c) >= bound:
            raise EnumerationCapError(
                f"coefficient too large: e={e} has more than {limit} digits, Python's "
                f"int-to-str limit; lower --cap (got {cap})")


def cmd_local(args, out):
    if args.cap < 0:
        raise SpecValidationError(f"--cap: must be >= 0, got {args.cap}")
    try:
        word = [int(w) for w in args.frobenius.split(",") if w != ""]
    except ValueError:
        raise SchemaError(
            f"--frobenius: expected comma-separated generator indices, got {args.frobenius!r}"
        ) from None
    document = _load_document(args.input)
    analysis = load_spec(document, distinct_cap=args.distinct_cap)
    calc = LocalCalculator(analysis)
    frobenius = _word_index(analysis, word, "--frobenius")
    local = make_local_data(analysis, args.q, frobenius)
    coefficients = calc.local_factor(local, cap=args.cap)
    _check_printable(coefficients, args.cap)
    diagnostics = []
    mults = analysis.coweights.multiplicity
    for s in analysis.sigma_set():
        if not calc.frobenius_fixes(local, s):
            continue
        entry = {"subset": list(s), "a_count": calc.a_count(s, local)}
        # the exact-conductor count applies to all-or-nothing sub-multisets,
        # where the count vector is a 0/1 conductor profile
        if all(c in (0, m) for c, m in zip(s, mults)):
            indicator = tuple(int(c > 0) for c in s)
            entry["pi_eq"] = calc.pi_eq(indicator, local)
        diagnostics.append(entry)
    payload = {
        "q": local.q,
        "p": local.p,
        "f": local.f,
        "frobenius": frobenius,
        "lambda": calc.lambda_,
        "cap": args.cap,
        "coefficients": [{"e": e, "coefficient": c} for e, c in enumerate(coefficients)],
        "attaining_subsets": diagnostics,
    }
    if args.format == "json":
        print(json.dumps(payload, indent=2), file=out)
    else:
        print(f"q={local.q} (p={local.p}, f={local.f}), lambda={calc.lambda_}", file=out)
        for row in payload["coefficients"]:
            print(f"  e={row['e']}: {row['coefficient']}", file=out)
        print("attaining subsets fixed by the Frobenius (counts / a / exact-count):", file=out)
        for d in diagnostics:
            counts = ",".join(str(c) for c in d["subset"])
            tail = f", pi_eq={d['pi_eq']}" if "pi_eq" in d else ""
            print(f"  ({counts}): a={d['a_count']}{tail}", file=out)
    return 0


def cmd_binf(args, out):
    document = _load_document(args.matrix)
    if not isinstance(document, list) or not all(isinstance(r, list) for r in document):
        raise SchemaError(f"{args.matrix}: expected a JSON list of rows")
    rows = [[parse_rational(x) for x in row] for row in document]
    matroid = LinearMatroid(rows)
    value, cert = b_infinity(matroid)
    payload = {
        "value": format_rational(value),
        "alpha": cert.alpha,
        "beta": cert.beta,
        "subset": [i + 1 for i in cert.subset],
    }
    if args.format == "json":
        print(json.dumps(payload, indent=2), file=out)
    else:
        print(f"B_inf = {payload['value']} (witness rows {payload['subset']}, "
              f"alpha={cert.alpha}, beta={cert.beta})", file=out)
    return 0


def run_gallery(entries=GALLERY):
    """Evaluate every gallery input; returns (result rows, overall pass flag)."""
    rows = []
    all_ok = True
    for name, document, expected in entries:
        report = build_report(load_spec(document), document)
        mismatches = {
            key: (want, report.get(key))
            for key, want in expected.items()
            if report.get(key) != want
        }
        ok = not mismatches
        all_ok = all_ok and ok
        rows.append((name, ok, mismatches))
    return rows, all_ok


def cmd_examples(args, out):
    rows, all_ok = run_gallery()
    for name, ok, mismatches in rows:
        status = "pass" if ok else "FAIL"
        print(f"{status}  {name}", file=out)
        for key, (want, got) in sorted(mismatches.items()):
            print(f"      {key}: expected {want!r}, got {got!r}", file=out)
    print(f"{sum(1 for _, ok, _ in rows if ok)}/{len(rows)} examples pass", file=out)
    return 0 if all_ok else 1


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="toruscount",
        description="Exact counting invariants for algebraic tori given by lattice data.",
    )
    sub = parser.add_subparsers(dest="command")

    analyze = sub.add_parser("analyze", help="full invariant report for a torus input file")
    analyze.add_argument("--input", required=True, help="path to the JSON input")
    analyze.add_argument("--format", choices=("text", "json"), default="text")
    analyze.add_argument("--distinct-cap", type=int, default=DEFAULT_DISTINCT_CAP,
                         help="enumeration guard on the number of distinct coweights")

    local = sub.add_parser("local", help="truncated local Euler factor coefficients")
    local.add_argument("--input", required=True)
    local.add_argument("--q", type=int, required=True, help="residue field size (prime power)")
    local.add_argument("--frobenius", default="",
                       help="Frobenius as a comma-separated word in generator indices")
    local.add_argument("--cap", type=int, default=2, help="largest exponent to tabulate")
    local.add_argument("--format", choices=("text", "json"), default="text")
    local.add_argument("--distinct-cap", type=int, default=DEFAULT_DISTINCT_CAP)

    binf = sub.add_parser("binf", help="base-polytope sup-norm minimum of a rational matrix")
    binf.add_argument("matrix", help="path to a JSON matrix (rows of ints or 'p/q' strings)")
    binf.add_argument("--format", choices=("text", "json"), default="text")

    sub.add_parser("examples", help="run the built-in gallery against known values")
    return parser


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    out = sys.stdout
    try:
        if args.command == "analyze":
            return cmd_analyze(args, out)
        if args.command == "local":
            return cmd_local(args, out)
        if args.command == "binf":
            return cmd_binf(args, out)
        if args.command == "examples":
            return cmd_examples(args, out)
        parser.print_help(out)
        return 0
    except SchemaError as exc:
        print(f"schema error: {exc}", file=sys.stderr)
        return SCHEMA_EXIT
    except (SpecValidationError, EnumerationCapError, LatticeNotPreservedError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return VALIDATION_EXIT
    except ValueError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return VALIDATION_EXIT


if __name__ == "__main__":
    raise SystemExit(main())
