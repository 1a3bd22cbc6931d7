import io
import json
import sys
import time

import pytest

from toruscount import gallery
from toruscount.cli import build_report, main, run_gallery
from toruscount.errors import EnumerationCapError
from toruscount.torus import TorusAnalysis, load_spec


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_json(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def test_analyze_square_cube_json(tmp_path, capsys):
    path = write_json(tmp_path, "spec.json", gallery.GL1_SQUARE_CUBE)
    code, out, err = run_cli(capsys, "analyze", "--input", path, "--format", "json")
    assert code == 0 and err == ""
    report = json.loads(out)
    assert report["A"] == "1"
    assert report["lambda"] == 6
    assert report["deg_P"] == 2
    assert report["orbit_count"] == 3
    assert report["sigma_tilde0_size"] == 4
    assert report["strata"] == [
        {"a": 0, "b": 1, "subsets": [[0, 1], [1, 0]], "orbits": 2},
        {"a": 1, "b": 2, "subsets": [[1, 1]], "orbits": 1},
    ]
    assert report["abscissae"] == {"ramified": "1/2", "archimedean": "1/2"}


def test_analyze_repeated_spec(tmp_path, capsys):
    path = write_json(tmp_path, "spec.json", gallery.GL1_REPEATED_1001)
    code, out, _ = run_cli(capsys, "analyze", "--input", path, "--format", "json")
    assert code == 0
    assert json.loads(out)["A"] == "2/1001"


def test_analyze_unfaithful_reports_infinite(tmp_path, capsys):
    doc = {"dim": 1, "generators": [], "coweights": [{"vector": [2]}]}
    path = write_json(tmp_path, "spec.json", doc)
    code, out, _ = run_cli(capsys, "analyze", "--input", path, "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["verdict"] == "infinite"
    assert report["faithful"] is False
    assert "deg_P" not in report and "A" not in report


def test_analyze_schema_error_exit_1(tmp_path, capsys):
    path = write_json(tmp_path, "spec.json", {"generators": [], "coweights": []})
    code, _, err = run_cli(capsys, "analyze", "--input", path)
    assert code == 1
    assert "dim" in err


def test_analyze_validation_error_exit_2(tmp_path, capsys):
    doc = {"dim": 1, "generators": [[[2]]], "coweights": [{"vector": [1]}]}
    path = write_json(tmp_path, "spec.json", doc)
    code, _, err = run_cli(capsys, "analyze", "--input", path)
    assert code == 2
    assert "not unimodular" in err


def test_analyze_json_output_round_trips_and_is_stable(tmp_path, capsys):
    path = write_json(tmp_path, "spec.json", gallery.NORM_QUOTIENT_S4)
    code, out1, _ = run_cli(capsys, "analyze", "--input", path, "--format", "json")
    code2, out2, _ = run_cli(capsys, "analyze", "--input", path, "--format", "json")
    assert code == code2 == 0
    assert out1 == out2
    report = json.loads(out1)
    assert json.dumps(report, indent=2) + "\n" == out1


def test_local_square_cube_table(tmp_path, capsys):
    path = write_json(tmp_path, "spec.json", gallery.GL1_SQUARE_CUBE)
    code, out, _ = run_cli(capsys, "local", "--input", path, "--q", "7",
                           "--cap", "2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    coeffs = {row["e"]: row["coefficient"] for row in payload["coefficients"]}
    assert coeffs == {0: 1, 1: 3, 2: 2}
    by_subset = {tuple(d["subset"]): d for d in payload["attaining_subsets"]}
    assert by_subset[(1, 0)]["a_count"] == 3
    assert by_subset[(1, 0)]["pi_eq"] == 2
    assert by_subset[(0, 1)]["pi_eq"] == 1


def test_local_gl1_table(tmp_path, capsys):
    path = write_json(tmp_path, "spec.json", gallery.GL1_STANDARD)
    code, out, _ = run_cli(capsys, "local", "--input", path, "--q", "5",
                           "--cap", "1", "--format", "json")
    assert code == 0
    coeffs = {row["e"]: row["coefficient"] for row in json.loads(out)["coefficients"]}
    assert coeffs == {0: 1, 1: 3}


def test_local_rejects_q_dividing_lambda(tmp_path, capsys):
    path = write_json(tmp_path, "spec.json", gallery.GL1_SQUARE_CUBE)
    code, _, err = run_cli(capsys, "local", "--input", path, "--q", "3")
    assert code == 2
    assert "lambda" in err and "6" in err


def test_binf_examples(tmp_path, capsys):
    cases = [
        ([[1, 0, 0], [0, 1, 0], [0, 0, 1]], "1"),
        ([[1], [1]], "1/2"),
        ([[1, 0], [0, 1], [1, 1]], "2/3"),
    ]
    for rows, expected in cases:
        path = write_json(tmp_path, "matrix.json", rows)
        code, out, _ = run_cli(capsys, "binf", path, "--format", "json")
        assert code == 0
        assert json.loads(out)["value"] == expected


def test_binf_accepts_fraction_strings(tmp_path, capsys):
    path = write_json(tmp_path, "matrix.json", [["1/2", 0], [0, "1/3"], [1, 1]])
    code, out, _ = run_cli(capsys, "binf", path, "--format", "json")
    assert code == 0
    assert json.loads(out)["value"] == "2/3"


def test_binf_rejects_rank_deficient(tmp_path, capsys):
    path = write_json(tmp_path, "matrix.json", [[1, 0], [2, 0]])
    code, _, err = run_cli(capsys, "binf", path)
    assert code == 2
    assert "not full rank" in err


def test_binf_row_cap_exit_2(tmp_path, capsys):
    path = write_json(tmp_path, "matrix.json", [[1, k] for k in range(17)])
    code, out, err = run_cli(capsys, "binf", path)
    assert code == 2 and out == ""
    assert err == "validation error: best-ratio search too large: 17 rows exceed the cap of 16\n"


def test_examples_command_passes(capsys):
    code, out, _ = run_cli(capsys, "examples")
    assert code == 0
    assert f"{len(gallery.GALLERY)}/{len(gallery.GALLERY)} examples pass" in out


def test_examples_negative_control():
    corrupted = []
    for name, doc, expected in gallery.GALLERY:
        fields = dict(expected)
        if name == "gl1-square-cube":
            fields["lambda"] = 5
        corrupted.append((name, doc, fields))
    rows, all_ok = run_gallery(corrupted)
    assert not all_ok
    failures = {name for name, ok, _ in rows if not ok}
    assert failures == {"gl1-square-cube"}


def test_empty_invocation_prints_usage(capsys):
    code, out, _ = run_cli(capsys)
    assert code == 0
    assert "usage" in out.lower()


def test_gtilde_explicit_override(tmp_path, capsys):
    doc = dict(gallery.NORM_QUOTIENT_Z4)
    doc["gtilde"] = {"mode": "explicit", "generators": [{"g": [0], "unit": 1}]}
    path = write_json(tmp_path, "spec.json", doc)
    code, out, _ = run_cli(capsys, "analyze", "--input", path, "--format", "json")
    assert code == 0
    assert json.loads(out)["deg_P"] == 3


def test_gtilde_non_surjective_override_fails(tmp_path, capsys):
    doc = dict(gallery.NORM_QUOTIENT_Z4)
    doc["gtilde"] = {"mode": "explicit", "generators": []}
    path = write_json(tmp_path, "spec.json", doc)
    code, _, err = run_cli(capsys, "analyze", "--input", path)
    assert code == 2
    assert "surjective" in err


def test_build_report_matches_gallery_expectations():
    for name, doc, expected in gallery.GALLERY:
        report = build_report(load_spec(doc), doc)
        for key, want in expected.items():
            assert report[key] == want, (name, key)


def test_analyze_with_archimedean_blocks(tmp_path, capsys):
    doc = dict(gallery.GL1_STANDARD)
    doc["archimedean"] = {
        "n1": 1, "n2": 0, "n3": 0, "m1": 1, "m2": 0, "m3": 0,
        "A1": [[1]], "A2": [], "A3": [], "C": [], "B1": [[]], "B2": [], "B3": [],
    }
    path = write_json(tmp_path, "spec.json", doc)
    code, out, _ = run_cli(capsys, "analyze", "--input", path, "--format", "json")
    assert code == 0
    blocks = json.loads(out)["archimedean_blocks"]
    assert blocks == {"abscissa": "1", "combined_optimum": "1", "dominated": True}


def test_analyze_with_bad_archimedean_blocks_exit_2(tmp_path, capsys):
    doc = dict(gallery.GL1_STANDARD)
    doc["archimedean"] = {
        "n1": 2, "n2": 0, "n3": 0, "m1": 1, "m2": 0, "m3": 0,
        "A1": [[1]], "A2": [], "A3": [], "C": [], "B1": [[]], "B2": [], "B3": [],
    }
    path = write_json(tmp_path, "spec.json", doc)
    code, _, err = run_cli(capsys, "analyze", "--input", path)
    assert code == 2
    assert "dimension mismatch" in err


def test_analyze_impossible_m_prime_exits_2_before_assembly(tmp_path, capsys):
    doc = dict(gallery.GL1_STANDARD)
    doc["archimedean"] = {
        "n1": 1, "n2": 10**9, "n3": 0, "m1": 1, "m2": 0, "m3": 0,
        "A1": [[1]], "A2": [], "A3": [], "C": [], "B1": [[]], "B2": [], "B3": [],
    }
    path = write_json(tmp_path, "spec.json", doc)
    start = time.perf_counter()
    code, _, err = run_cli(capsys, "analyze", "--input", path)
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert "n1+n2+2*n3 = 1000000001" in err and "m1+m2+2*m3 = 1" in err


def test_analyze_malformed_archimedean_block_exit_1(tmp_path, capsys):
    good = {"n1": 1, "n2": 0, "n3": 0, "m1": 1, "m2": 0, "m3": 0,
            "A1": [[1]], "A2": [], "A3": [], "C": [], "B1": [[]], "B2": [], "B3": []}
    cases = (
        (dict(good, n1=[1]), "archimedean.n1"),
        ("x", "archimedean"),
        (dict(good, A1=5), "archimedean.A1"),
        (dict(good, m1=True), "archimedean.m1"),
    )
    for block, field in cases:
        doc = dict(gallery.GL1_STANDARD, archimedean=block)
        path = write_json(tmp_path, "spec.json", doc)
        code, _, err = run_cli(capsys, "analyze", "--input", path)
        assert code == 1, block
        assert err.startswith(f"schema error: {field}"), err


def test_gtilde_bool_word_or_unit_is_schema_error(tmp_path, capsys):
    for gen, field in (({"g": [True], "unit": 1}, ".g"), ({"g": [0], "unit": True}, ".unit")):
        doc = dict(gallery.NORM_QUOTIENT_Z4)
        doc["gtilde"] = {"mode": "explicit", "generators": [gen]}
        path = write_json(tmp_path, "spec.json", doc)
        code, _, err = run_cli(capsys, "analyze", "--input", path)
        assert code == 1
        assert f"gtilde.generators[0]{field}" in err


def test_local_negative_cap_exit_2(tmp_path, capsys):
    path = write_json(tmp_path, "spec.json", gallery.GL1_SQUARE_CUBE)
    code, out, err = run_cli(capsys, "local", "--input", path, "--q", "7", "--cap", "-3")
    assert code == 2 and out == ""
    assert "--cap" in err


def test_local_non_integer_frobenius_is_schema_error(tmp_path, capsys):
    path = write_json(tmp_path, "spec.json", gallery.NORM_QUOTIENT_S3)
    code, out, err = run_cli(capsys, "local", "--input", path, "--q", "7", "--frobenius", "0,a")
    assert code == 1 and out == ""
    assert "--frobenius" in err


def test_gtilde_non_list_generators_is_schema_error(tmp_path, capsys):
    for generators in (5, None, "0"):
        doc = dict(gallery.NORM_QUOTIENT_Z4)
        doc["gtilde"] = {"mode": "explicit", "generators": generators}
        path = write_json(tmp_path, "spec.json", doc)
        code, out, err = run_cli(capsys, "analyze", "--input", path)
        assert code == 1 and out == ""
        assert err.startswith("schema error: gtilde.generators:"), err


def test_out_of_range_generator_index_names_its_source(tmp_path, capsys):
    doc = dict(gallery.NORM_QUOTIENT_Z4)
    doc["gtilde"] = {"mode": "explicit", "generators": [{"g": [0], "unit": 1},
                                                        {"g": [5], "unit": 1}]}
    path = write_json(tmp_path, "spec.json", doc)
    code, _, err = run_cli(capsys, "analyze", "--input", path)
    assert code == 1
    assert err.startswith("schema error: gtilde.generators[1].g: generator index 5"), err
    path = write_json(tmp_path, "spec.json", gallery.NORM_QUOTIENT_S3)
    code, out, err = run_cli(capsys, "local", "--input", path, "--q", "7", "--frobenius", "0,5")
    assert code == 1 and out == ""
    assert err.startswith("schema error: --frobenius: generator index 5"), err


def test_build_report_makes_one_count_vector_pass(monkeypatch):
    passes = []
    subsets = TorusAnalysis.subsets

    def counted(self):
        passes.append(self)
        return subsets(self)

    monkeypatch.setattr(TorusAnalysis, "subsets", counted)
    build_report(load_spec(gallery.GL1_SQUARE_CUBE), gallery.GL1_SQUARE_CUBE)
    assert len(passes) == 1


def test_huge_multiplicity_exits_2_naming_count_and_cap(tmp_path, capsys):
    doc = {"dim": 1, "coweights": [{"vector": [1], "multiplicity": 10**30}]}
    path = write_json(tmp_path, "spec.json", doc)
    message = (f"validation error: enumeration too large: {10**30 + 1} sub-multisets "
               f"exceed the cap of {2**20}\n")
    for argv in (["analyze"], ["local", "--q", "5"]):
        code, out, err = run_cli(capsys, *argv, "--input", path)
        assert (code, out, err) == (2, "", message)


def test_sigma_cap_is_checked_before_the_count_vector_pass(monkeypatch):
    passes = []
    monkeypatch.setattr(TorusAnalysis, "subsets", lambda self: passes.append(self) or iter(()))
    doc = {"dim": 1, "coweights": [{"vector": [1], "multiplicity": 2**20}]}
    with pytest.raises(EnumerationCapError, match=f"{2**20 + 1} sub-multisets"):
        build_report(load_spec(doc), doc)
    assert passes == []
    # 2^20 count vectors, as many as 20 distinct coweights of multiplicity 1 give
    at_cap = load_spec({"dim": 1, "coweights": [{"vector": [1], "multiplicity": 2**20 - 1}]})
    assert at_cap.sigma_set() == ()
    assert passes == [at_cap]


def test_build_report_runs_the_A_loop_once(monkeypatch):
    # lambda, A and the abscissa share one pass over the 2^k all-or-nothing supports
    passes = []
    all_or_nothing = TorusAnalysis.all_or_nothing

    def counted(self):
        passes.append(self)
        return all_or_nothing(self)

    monkeypatch.setattr(TorusAnalysis, "all_or_nothing", counted)
    non_faithful = {"dim": 2, "coweights": [{"vector": [1, 0]}]}
    for doc in [doc for _, doc, _ in gallery.GALLERY] + [non_faithful]:
        passes.clear()
        analysis = load_spec(doc)
        build_report(analysis, doc)
        assert passes == [analysis]


def test_local_refuses_an_unprintable_coefficient_before_output(tmp_path, capsys):
    # at q = 5 coefficient e >= 2 is 16 * 5^(e-2); e = 6153 is the first with over 4300 digits
    path = write_json(tmp_path, "spec.json", gallery.GL1_STANDARD)
    message = ("validation error: coefficient too large: e=6153 has more than 4300 "
               "digits, Python's int-to-str limit; lower --cap (got 6300)\n")
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        for fmt in ("text", "json"):
            code, out, err = run_cli(capsys, "local", "--input", path, "--q", "5",
                                     "--cap", "6300", "--format", fmt)
            assert (code, out, err) == (2, "", message)
        code, out, err = run_cli(capsys, "local", "--input", path, "--q", "5",
                                 "--cap", "6000", "--format", "json")
    finally:
        sys.set_int_max_str_digits(limit)
    assert code == 0 and err == ""
    assert len(json.loads(out)["coefficients"]) == 6001
