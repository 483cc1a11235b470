"""Campaign persistence and the command-line front end."""

import json
import os
import shutil

import pytest

from statefuzz import cli
from statefuzz.storage import (
    canonical_dumps,
    load_campaign,
    read_json,
    render_report,
    save_report,
    table_csv,
    write_json,
)
from statefuzz.sutmodel import SutConfig

CAMPAIGN_ARGS = [
    "run",
    "--spec", "fspec1",
    "--mission", "mission_a",
    "--fault", "F2",
    "--latency-window", "200", "600",
    "--repetitions", "2",
    "--runs-per-cell", "4",
    "--seed", "0",
]


@pytest.fixture(scope="module")
def campaign_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("campaign")
    assert cli.main(CAMPAIGN_ARGS + ["--out", str(root)]) == 0
    return root


@pytest.fixture()
def campaign_copy(campaign_dir, tmp_path):
    """Fresh copy for tests that delete or corrupt stored files."""
    dest = tmp_path / "copy"
    shutil.copytree(campaign_dir, dest)
    return dest


# ---------------------------------------------------------------------------
# plain storage helpers
# ---------------------------------------------------------------------------


def test_canonical_dumps_is_sorted_and_newline_terminated():
    text = canonical_dumps({"b": 1, "a": [1, 2]})
    assert text == '{\n  "a": [\n    1,\n    2\n  ],\n  "b": 1\n}\n'


def test_write_json_creates_parents(tmp_path):
    path = tmp_path / "deep" / "dir" / "doc.json"
    write_json(path, {"x": 1})
    assert read_json(path) == {"x": 1}


@pytest.mark.parametrize(
    "write",
    [lambda p: write_json(p / "doc.json", {"x": 2}), lambda p: save_report(p, "new\n")],
    ids=["write_json", "save_report"],
)
def test_failed_replace_keeps_the_old_file(tmp_path, monkeypatch, write):
    write_json(tmp_path / "doc.json", {"x": 1})
    save_report(tmp_path, "old\n")
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}

    def killed(src, dst):
        raise KeyboardInterrupt

    monkeypatch.setattr(os, "replace", killed)
    with pytest.raises(KeyboardInterrupt):
        write(tmp_path)
    # the old bytes stay and the temp file is gone
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


def test_table_csv_layout():
    table = {
        "axes": ["action", "delay_band"],
        "rows": [
            {
                "values": {"action": "POSCTL", "delay_band": "short"},
                "observed_mode": "STABILIZED",
                "runs": 4,
                "valid": 3,
                "failures": 3,
                "failure_rate": 100.0,
                "split": False,
                "residual": False,
                "test_ids": ["a"],
            }
        ],
        "unreachable": [],
    }
    assert table_csv(table) == (
        "action,delay_band,mode_at_injection,runs,valid,failures,failure_rate,split,residual\n"
        "POSCTL,short,STABILIZED,4,3,3,100.0000,0,0\n"
    )


def test_render_report_sections():
    meta = {
        "mission": {"id": "Flight plan A"},
        "oracle_version": "v1",
        "master_seed": 0,
        "config": {"seeded_faults": ["F2"]},
    }
    tree = {
        "hazard": "mode-change-ignored in TAKEOFF",
        "cut_sets": [
            {
                "gate": "AND",
                "literals": [
                    {"column": "app_state", "value": "TAKEOFF"},
                    {"column": "action", "value": "POSCTL"},
                ],
                "sources": [],
            }
        ],
    }
    text = render_report(meta, {"SUCCESS": 3, "FAILURE": 1}, None, [], [tree], [])
    assert text.startswith("campaign report\n")
    assert "verdicts" in text
    assert "  FAILURE    1" in text
    assert "fault tree: mode-change-ignored in TAKEOFF" in text
    assert "  { app_state=TAKEOFF AND action=POSCTL }" in text
    assert text.endswith("\n")


# ---------------------------------------------------------------------------
# the stored campaign
# ---------------------------------------------------------------------------


def test_campaign_manifest_contents(campaign_dir):
    meta = read_json(campaign_dir / "campaign.json")
    assert set(meta) == {
        "spec",
        "spec_id",
        "mission",
        "config",
        "generator",
        "oracle_version",
        "oracle_tree",
        "master_seed",
        "parallelism",
        "verdict_counts",
        "representatives",
        "created_at",
        "wall_time_s",
    }
    assert meta["spec_id"] == "fspec1"
    assert meta["master_seed"] == 0
    assert meta["oracle_version"] == "v1"
    assert meta["config"]["seeded_faults"] == ["F2"]
    assert meta["config"]["latency_window_ms"] == [200.0, 600.0]
    counts = meta["verdict_counts"]
    assert sum(counts.values()) == 90  # 45 combinations x 2 repetitions
    assert counts.get("FAILURE", 0) > 0
    assert meta["representatives"]


def test_tests_manifest_lists_main_and_focused(campaign_dir):
    doc = read_json(campaign_dir / "tests.json")
    assert [t["id"] for t in doc["main"]] == [f"t{i:05d}" for i in range(90)]
    assert doc["focused"]
    for rep_id, focused in doc["focused"].items():
        assert all(t["id"].startswith(f"f-{rep_id}-") for t in focused)


def test_every_executed_test_has_a_result_file(campaign_dir):
    doc = read_json(campaign_dir / "tests.json")
    ids = [t["id"] for t in doc["main"]]
    ids += [t["id"] for ts in doc["focused"].values() for t in ts]
    for test_id in ids:
        record = read_json(campaign_dir / f"{test_id}.json")
        assert set(record) == {"test", "profile", "verdict"}
        assert record["test"]["id"] == test_id


def test_truth_tables_on_disk(campaign_dir):
    tables = sorted((campaign_dir / "truthtables").glob("*.json"))
    assert tables
    for path in tables:
        table = read_json(path)
        assert table["axes"] == ["action", "delay_band"]
        assert table["scope"] == "TAKEOFF"  # F2 only bites during takeoff
        csv_text = (path.with_suffix(".csv")).read_text()
        assert csv_text.splitlines()[0].startswith("action,delay_band,mode_at_injection")
        assert len(csv_text.splitlines()) == len(table["rows"]) + 1


def test_fault_trees_on_disk(campaign_dir):
    combined = read_json(campaign_dir / "faulttrees" / "combined.json")
    assert combined["gate"] == "OR"
    assert combined["cut_sets"]
    for cs in combined["cut_sets"]:
        literals = {l["column"]: l["value"] for l in cs["literals"]}
        assert literals["app_state"] == "TAKEOFF"
        assert literals["action"] == "POSCTL"
    dot = (campaign_dir / "faulttrees" / "combined.dot").read_text()
    assert dot.startswith("digraph fault_tree {")


def test_soundness_findings_on_disk(campaign_dir):
    docs = read_json(campaign_dir / "soundness.json")
    assert docs
    for doc in docs:
        assert set(doc) == {"cut_set", "verdicts", "sound", "note"}
    assert any(d["sound"] for d in docs)


def test_report_text_on_disk(campaign_dir):
    text = (campaign_dir / "report.txt").read_text()
    assert text.startswith("campaign report\n")
    assert "mission:        Flight plan A" in text
    assert "seeded faults:  F2" in text
    assert "failure clusters" in text
    assert "truth table t" in text
    assert "fault tree:" in text
    assert "soundness re-execution" in text


def test_coverage_file(campaign_dir):
    cov = read_json(campaign_dir / "coverage.json")
    assert cov["fully_covered"] is True
    assert cov["warnings"] == []


def test_load_campaign_round_trip(campaign_dir):
    campaign = load_campaign(campaign_dir)
    assert len(campaign.tests) == 90
    assert campaign.master_seed == 0
    assert campaign.oracle_version == "v1"
    assert campaign.find_test("t00000").test_id == "t00000"
    assert campaign.find_test("nope") is None
    triples = campaign.results()
    assert len(triples) == 90
    for test, profile, verdict in triples[:5]:
        assert profile.test_id == test.test_id
        assert verdict.verdict in ("SUCCESS", "FAILURE", "INVALID")
    # focused tests resolve through find_test too
    rep_id = next(iter(campaign.focused_tests))
    focused_id = campaign.focused_tests[rep_id][0].test_id
    assert campaign.find_test(focused_id).test_id == focused_id


def test_load_campaign_regenerates_deleted_tests_manifest(campaign_copy):
    (campaign_copy / "tests.json").unlink()
    campaign = load_campaign(campaign_copy)
    assert [t.test_id for t in campaign.tests] == [f"t{i:05d}" for i in range(90)]
    assert len(campaign.results()) == 90


# ---------------------------------------------------------------------------
# replay
# ---------------------------------------------------------------------------


def test_replay_matches_stored_profile(campaign_dir, capsys):
    assert cli.main(["replay", "--campaign", str(campaign_dir), "--test-id", "t00000"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("replay OK: t00000 ->")


def test_campaign_stored_with_the_retired_config_keys_loads_and_replays(campaign_copy, capsys):
    path = campaign_copy / "campaign.json"
    meta = read_json(path)
    meta["config"].update(
        app_signal_loss_s=20.0, autopilot_signal_loss_s=60.0, geofence_action="RETURN"
    )
    write_json(path, meta)
    config = load_campaign(campaign_copy).config
    assert config == SutConfig(latency_window_ms=(200.0, 600.0), seeded_faults=("F2",))
    assert cli.main(["replay", "--campaign", str(campaign_copy), "--test-id", "t00000"]) == 0
    assert capsys.readouterr().out.startswith("replay OK: t00000 ->")


def test_replay_detects_a_corrupted_profile(campaign_copy, capsys):
    path = campaign_copy / "t00001.json"
    doc = json.loads(path.read_text())
    doc["profile"]["oscillation_count"] = 99
    path.write_text(json.dumps(doc))
    assert cli.main(["replay", "--campaign", str(campaign_copy), "--test-id", "t00001"]) == 1
    out = capsys.readouterr().out
    assert "replay MISMATCH for t00001" in out
    assert "oscillation_count: stored=99" in out


def test_replay_without_a_stored_profile_reexecutes(campaign_copy, capsys):
    (campaign_copy / "t00002.json").unlink()
    assert cli.main(["replay", "--campaign", str(campaign_copy), "--test-id", "t00002"]) == 0
    assert "no stored profile for t00002" in capsys.readouterr().out


def test_replay_unknown_test_id(campaign_dir, capsys):
    assert cli.main(["replay", "--campaign", str(campaign_dir), "--test-id", "zzz"]) == 2
    assert "error:" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# analyze / focus on a stored campaign
# ---------------------------------------------------------------------------


def test_analyze_rejudges_under_another_oracle(campaign_copy, capsys):
    assert cli.main(["analyze", "--campaign", str(campaign_copy), "--oracle", "v0"]) == 0
    out = capsys.readouterr().out
    assert "re-judged 90 stored profiles under oracle v0:" in out
    assert "clustered" in out and "K=" in out
    assert (campaign_copy / "analysis.json").exists()


def test_analyze_honors_kmax(campaign_copy, capsys):
    assert cli.main(["analyze", "--campaign", str(campaign_copy), "--kmax", "2"]) == 0
    doc = read_json(campaign_copy / "analysis.json")
    assert len(doc["wcss_curve"]) <= 2
    assert doc["k"] <= 2


def test_focus_targets_an_explicit_test(campaign_copy, capsys):
    rc = cli.main(
        [
            "focus",
            "--campaign", str(campaign_copy),
            "--test-id", "t00003",
            "--runs-per-cell", "2",
            "--no-soundness",
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "focused re-fuzz around t00003" in out
    assert "fault trees written for: t00003 (+combined)" in out
    assert (campaign_copy / "truthtables" / "t00003.json").exists()
    assert (campaign_copy / "truthtables" / "t00003.csv").exists()
    assert (campaign_copy / "faulttrees" / "t00003.json").exists()
    # the new focused tests joined the manifest
    doc = read_json(campaign_copy / "tests.json")
    assert "t00003" in doc["focused"]


def cut_set_sources(root):
    doc = read_json(root / "faulttrees" / "combined.json")
    return {s for cs in doc["cut_sets"] for s in cs["sources"]}


def test_focus_keeps_the_combined_results_of_other_tables(campaign_copy, capsys):
    rep = read_json(campaign_copy / "analysis.json")["representatives"][0]["closest"]
    assert f"truthtable:{rep}" in cut_set_sources(campaign_copy)
    stored_soundness = read_json(campaign_copy / "soundness.json")
    assert stored_soundness
    rc = cli.main(
        [
            "focus",
            "--campaign", str(campaign_copy),
            "--test-id", "t00003",
            "--runs-per-cell", "2",
            "--no-soundness",
        ]
    )
    assert rc == 0
    # the representative's table was not re-focused: its cut sets and
    # soundness checks stay in the combined results
    assert f"truthtable:{rep}" in cut_set_sources(campaign_copy)
    assert read_json(campaign_copy / "soundness.json") == stored_soundness


def test_focus_on_the_representatives_reproduces_the_run(campaign_dir, campaign_copy, capsys):
    shutil.rmtree(campaign_copy / "faulttrees")
    (campaign_copy / "soundness.json").unlink()
    rc = cli.main(["focus", "--campaign", str(campaign_copy), "--runs-per-cell", "4"])
    assert rc == 0
    for name in ("faulttrees/combined.json", "faulttrees/combined.dot", "soundness.json"):
        assert (campaign_copy / name).read_bytes() == (campaign_dir / name).read_bytes()


def test_focus_flies_a_repeated_test_id_once(campaign_dir, campaign_copy, capsys):
    rep = read_json(campaign_copy / "analysis.json")["representatives"][0]["closest"]
    args = ["focus", "--campaign", str(campaign_copy), "--runs-per-cell", "4"]
    assert cli.main(args + ["--test-id", rep, "--test-id", rep]) == 0
    assert capsys.readouterr().out.count(f"focused re-fuzz around {rep}") == 1
    # each soundness check is written once, as the run wrote it
    path = "soundness.json"
    assert (campaign_copy / path).read_bytes() == (campaign_dir / path).read_bytes()


def test_rerun_into_a_campaign_clears_the_earlier_artifacts(campaign_copy, capsys):
    assert (campaign_copy / "truthtables").is_dir()
    args = [a for a in CAMPAIGN_ARGS if a not in ("--fault", "F2")]
    assert cli.main(args + ["--out", str(campaign_copy)]) == 0
    assert "no failures" in capsys.readouterr().out
    for name in ("truthtables", "faulttrees", "analysis.json", "soundness.json"):
        assert not (campaign_copy / name).exists()
    report = (campaign_copy / "report.txt").read_text()
    assert "truth table" not in report.lower() and "cut set" not in report.lower()


def test_smaller_rerun_keeps_only_its_own_results(campaign_copy, capsys):
    args = list(CAMPAIGN_ARGS)
    args[args.index("--repetitions") + 1] = "1"
    assert cli.main(args + ["--out", str(campaign_copy)]) == 0
    tests_doc = read_json(campaign_copy / "tests.json")
    ids = {t["id"] for t in tests_doc["main"]}
    ids.update(t["id"] for ts in tests_doc["focused"].values() for t in ts)
    named = {"campaign", "coverage", "tests", "analysis", "soundness"}
    assert {p.stem for p in campaign_copy.glob("*.json")} - named == ids
    # the report run renders from memory equals one rendered from the files
    report = (campaign_copy / "report.txt").read_bytes()
    assert cli.main(["report", "--campaign", str(campaign_copy)]) == 0
    assert (campaign_copy / "report.txt").read_bytes() == report


def test_rerun_removes_temp_files_a_killed_writer_left(campaign_copy):
    stray = [campaign_copy / ".t00001.json.4242.tmp", campaign_copy / ".report.txt.4242.tmp"]
    for path in stray:
        path.write_text("half written")
    assert cli.main(CAMPAIGN_ARGS + ["--out", str(campaign_copy)]) == 0
    assert not [p for p in stray if p.exists()]
    assert not list(campaign_copy.glob(".*.tmp"))


def test_run_refuses_a_directory_that_is_not_a_campaign(tmp_path, capsys):
    out = tmp_path / "elsewhere"
    out.mkdir()
    (out / "notes.txt").write_text("keep me")
    assert cli.main(CAMPAIGN_ARGS + ["--out", str(out)]) == 2
    assert "not empty" in capsys.readouterr().err
    assert [p.name for p in out.iterdir()] == ["notes.txt"]


def test_report_regenerates_from_stored_artifacts(campaign_copy, capsys):
    before = (campaign_copy / "report.txt").read_text()
    (campaign_copy / "report.txt").unlink()
    assert cli.main(["report", "--campaign", str(campaign_copy)]) == 0
    printed = capsys.readouterr().out
    regenerated = (campaign_copy / "report.txt").read_text()
    assert regenerated == printed
    assert regenerated == before


# ---------------------------------------------------------------------------
# argument handling and error exits
# ---------------------------------------------------------------------------


def test_missing_spec_file_exits_two(tmp_path, capsys):
    rc = cli.main(
        ["run", "--spec", "nonexistent", "--mission", "mission_a", "--out", str(tmp_path / "c")]
    )
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: no such file or bundled document: nonexistent")


def test_latency_window_wider_than_bands_exits_two(tmp_path, capsys):
    rc = cli.main(
        ["run", "--spec", "fspec1", "--mission", "mission_a", "--out", str(tmp_path / "c")]
    )
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_unknown_fault_exits_two(tmp_path, capsys):
    rc = cli.main(
        [
            "run",
            "--spec", "fspec1",
            "--mission", "mission_a",
            "--fault", "F99",
            "--latency-window", "200", "600",
            "--out", str(tmp_path / "c"),
        ]
    )
    assert rc == 2
    assert "F99" in capsys.readouterr().err


def test_seed_falls_back_to_the_environment(tmp_path, monkeypatch, capsys):
    spec_doc = {
        "FROM_PX4_modes": ["OFFBOARD"],
        "FROM_APP_states": ["TAKEOFF"],
        "RC_INPUT_EVENTS": ["ALTCTL"],
        "ENVIRONMENT": {
            "transition_delay": {"bands": {"short": {"min": 50, "max": 200}}},
            "throttle": ["mid"],
            "geofence": ["none"],
            "wind": ["none"],
            "GPS": ["none"],
            "COMPASS_INTERFERENCE": ["none"],
        },
        "MISSION_CONTEXT": ["Flight plan A"],
        "CONSTRAINTS": {"REQUIRES_PX4_MODE": {"OFFBOARD": ["TAKEOFF"]}},
    }
    spec_path = tmp_path / "tiny.json"
    spec_path.write_text(json.dumps(spec_doc))
    out = tmp_path / "c"
    monkeypatch.setenv("STATEFUZZ_SEED", "5")
    rc = cli.main(
        [
            "run",
            "--spec", str(spec_path),
            "--mission", "mission_a",
            "--latency-window", "50", "150",
            "--repetitions", "1",
            "--out", str(out),
        ]
    )
    assert rc == 0
    printed = capsys.readouterr().out
    assert "no failures: skipping clustering" in printed
    meta = read_json(out / "campaign.json")
    assert meta["master_seed"] == 5
    assert meta["verdict_counts"] == {"SUCCESS": 1}
    assert not (out / "analysis.json").exists()
    # the report still renders without clusters or tables
    assert (out / "report.txt").read_text().startswith("campaign report\n")
