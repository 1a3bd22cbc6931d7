import json

from record_golden import MANIFEST, run_corpus


def test_cli_output_matches_the_golden_manifest(tmp_path):
    recorded = json.loads(MANIFEST.read_text(encoding="utf-8"))
    got = run_corpus(tmp_path)
    assert list(got) == list(recorded)
    changed = [key for key in recorded if got[key] != recorded[key]]
    assert changed == [], f"{len(changed)} runs differ, first: {changed[:5]}"
