"""Campaign persistence and the command-line front end."""

import dataclasses
import json
import multiprocessing
import os
import re
import shlex
import shutil
from collections import Counter

import pytest

from statefuzz import analysis, cli, fuzzspec, oracle, storage, sutmodel, testgen
from statefuzz.cutset import table_from_results
from statefuzz.errors import InvalidOnly, LayoutMismatch, RecipeMismatch
from statefuzz.executor import PROFILE_FIELDS, ExecutionProfile, Executor, trace_digest
from statefuzz.storage import (
    LAYOUT,
    RESULTS,
    canonical_dumps,
    cases_digest,
    iter_results,
    load_campaign,
    read_json,
    render_report,
    save_report,
    save_result,
    save_tests,
    table_csv,
    write_json,
)
from statefuzz.sutmodel import AppState, AutopilotMode

from conftest import small_spec_raw
from helpers import column

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


def test_render_report_sections(campaign_dir):
    campaign = load_campaign(campaign_dir)
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
    text = render_report(campaign, {"SUCCESS": 3, "FAILURE": 1}, None, [], [tree], [])
    assert text.startswith("campaign report\n")
    assert "mission:        Flight plan A\noracle:         v1\nmaster seed:    0\n" in text
    assert "seeded faults:  F2\n" in text
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
        "layout",
        "spec",
        "spec_id",
        "mission",
        "config",
        "generator",
        "oracle_version",
        "parallelism",
        "verdict_counts",
        "status",
        "created_at",
        "wall_time_s",
    }
    assert meta["layout"] == LAYOUT == 5
    # layout 5 stores a result line as these fields' values in this order,
    # so reordering ExecutionProfile's fields must raise LAYOUT
    assert PROFILE_FIELDS == tuple(f.name for f in dataclasses.fields(ExecutionProfile)) == (
        "test_id",
        "context_reached_time_ms",
        "app_state_at_injection",
        "mode_at_injection",
        "injection_acknowledged",
        "injection_deferred",
        "mode_after_settle",
        "final_app_state",
        "final_mode",
        "mission_completed",
        "flight_duration_ms",
        "path_deviation_max_m",
        "jerk_flag",
        "oscillation_count",
        "failsafe_events",
        "exceptions",
        "trace_digest",
    )
    assert meta["status"] == "complete"
    assert meta["spec_id"] == "fspec1"
    assert meta["generator"] == {"master_seed": 0, "repetitions_per_combination": 2}
    assert meta["oracle_version"] == "v1"
    assert meta["config"]["seeded_faults"] == ["F2"]
    assert meta["config"]["latency_window_ms"] == [200.0, 600.0]
    counts = meta["verdict_counts"]
    assert sum(counts.values()) == 90  # 45 combinations x 2 repetitions
    assert counts.get("FAILURE", 0) > 0


def test_tests_manifest_lists_main_and_focused(campaign_dir):
    campaign = load_campaign(campaign_dir)
    assert [t.test_id for t in campaign.tests] == [f"t{i:05d}" for i in range(90)]
    assert campaign.focused
    for tag in campaign.focused.values():
        assert all(t.test_id.startswith(f"f-{tag}-") for t in campaign.sweeps[tag].tests)


def logged_ids(root) -> list[str]:
    """The test ids of the results log's lines, in order."""
    return [json.loads(line)[column("test_id")]
            for line in (root / "results.jsonl").read_text().splitlines()]


def write_log(root, results: dict) -> None:
    """Store results (test id -> row, as iter_results gives them) as the
    results log, in order."""
    (root / "results.jsonl").write_text("".join(
        json.dumps(row, separators=(",", ":")) + "\n" for row in results.values()
    ))


def test_every_executed_test_has_a_result_file(campaign_dir):
    campaign = load_campaign(campaign_dir)
    ids = [t.test_id for t in campaign.tests]
    ids += [t.test_id for e in campaign.sweeps.values() for t in e.tests]
    ids += soundness_ids(campaign_dir)
    results = dict(iter_results(campaign_dir))
    for test_id in ids:
        record = results[test_id]
        # the verdict is judged on load, and the id is not stored twice:
        # the row holds the profile's fields and nothing else
        assert len(record) == len(PROFILE_FIELDS)
        assert record[column("test_id")] == test_id
        assert test_id not in record[column("test_id") + 1:]
    # no line names a field: the layout gives their order
    text = (campaign_dir / "results.jsonl").read_text()
    assert not [name for name in PROFILE_FIELDS if f'"{name}"' in text]
    # one compact line per flown test, in flight order, and no per-test file
    assert logged_ids(campaign_dir) == ids
    assert {p.name for p in campaign_dir.glob("*.json")} == {
        "campaign.json", "coverage.json", "tests.json", "analysis.json", "soundness.json"
    }


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
        assert set(doc) == {"cut_set", "verdicts", "sound", "note", "tag"}
    assert any(d["sound"] for d in docs)


def soundness_ids(root) -> list[str]:
    return [t.test_id for e in load_campaign(root).soundness.values() for t in e.tests]


def test_soundness_trials_are_stored_tests(campaign_dir):
    checks = read_json(campaign_dir / "soundness.json")
    campaign = load_campaign(campaign_dir)
    trials = campaign.soundness
    assert list(trials) == [doc["tag"] for doc in checks]
    for doc in checks:
        ids = [t.test_id for t in trials[doc["tag"]].tests]
        assert ids == [f"s-{doc['tag']}-{i}" for i in range(3)]
        verdicts = [campaign.verdicts[i].verdict for i in ids]
        assert verdicts == doc["verdicts"]
    logged = [i for i in logged_ids(campaign_dir) if i.startswith("s-")]
    assert sorted(logged) == sorted(soundness_ids(campaign_dir))


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
    # every test, main, focused or soundness trial, flew the campaign's mission
    assert {t.mission_id for t in campaign.every_test()} == {campaign.mission.id}
    triples = campaign.results()
    assert len(triples) == 90
    for test, profile, verdict in triples[:5]:
        assert profile.test_id == test.test_id
        assert verdict.verdict in ("SUCCESS", "FAILURE", "INVALID")
    # focused tests resolve through find_test too
    tag = next(iter(campaign.focused.values()))
    focused_id = campaign.sweeps[tag].tests[0].test_id
    assert campaign.find_test(focused_id).test_id == focused_id


def test_load_campaign_refuses_a_deleted_tests_manifest(
    campaign_dir, campaign_copy, tmp_path, monkeypatch, capsys
):
    (campaign_copy / "tests.json").unlink()
    with pytest.raises(LayoutMismatch, match="holds no tests.json") as refused:
        load_campaign(campaign_copy)
    # the command the error names, with run's --runs-per-cell, stores the
    # campaign again byte for byte from the inputs campaign.json holds
    command = re.search(r"`statefuzz (run [^`]*)`", str(refused.value)).group(1)
    args = shlex.split(command)
    assert args[args.index("--seed") + 1] == "0"
    assert args[args.index("--repetitions") + 1] == "2"
    assert args[args.index("--oracle") + 1] == "v1"
    meta = read_json(campaign_copy / "campaign.json")
    inputs = tmp_path / "inputs"
    for option, key in (("--spec", "spec"), ("--mission", "mission"), ("--config", "config")):
        write_json(inputs / args[args.index(option) + 1], meta[key])
    monkeypatch.chdir(inputs)
    assert cli.main(args + ["--runs-per-cell", "4"]) == 0
    assert without_manifest(campaign_copy) == without_manifest(campaign_dir)


def test_verdicts_judged_on_load_are_those_the_run_judged(campaign_copy):
    # a torn last line is skipped
    with (campaign_copy / RESULTS).open("a", encoding="utf-8") as log:
        log.write('["t00000",1500.0,"TAKEOFF"')
    campaign = load_campaign(campaign_copy)
    assert list(campaign.verdicts) == list(campaign.profiles)
    assert len(campaign.verdicts) > 90
    main = Counter(v.verdict for _t, _p, v in campaign.results())
    assert main == read_json(campaign_copy / "campaign.json")["verdict_counts"]
    for check in read_json(campaign_copy / "soundness.json"):
        trials = campaign.soundness[check["tag"]].tests
        assert [campaign.verdicts[t.test_id].verdict for t in trials] == check["verdicts"]


def test_stored_bands_keep_their_order(campaign_dir, campaign_copy, capsys):
    # canonical JSON stores fspec1's bands as long, medium, short; they come
    # back in order of their bounds, as run took them from the spec file
    stored = read_json(campaign_copy / "campaign.json")["spec"]["ENVIRONMENT"]
    assert list(stored["transition_delay"]["bands"]) == ["long", "medium", "short"]
    campaign = load_campaign(campaign_copy)
    assert [b.name for b in campaign.spec.environment.bands] == ["short", "medium", "long"]
    # so a plain focus with run's arguments, with the tables and every
    # result but the main ones gone, flies every sweep again and gives each
    # sweep test its cell again
    shutil.rmtree(campaign_copy / "truthtables")
    main = {i: r for i, r in iter_results(campaign_copy) if i.startswith("t")}
    write_log(campaign_copy, main)
    assert cli.main(["focus", "--campaign", str(campaign_copy), "--runs-per-cell", "4"]) == 0
    assert campaign_files(campaign_copy / "truthtables") == campaign_files(
        campaign_dir / "truthtables"
    )
    log = "results.jsonl"
    assert (campaign_copy / log).read_bytes() == (campaign_dir / log).read_bytes()


# ---------------------------------------------------------------------------
# tests.json: recipes, regenerated and checked on load
# ---------------------------------------------------------------------------


def test_tests_json_stores_recipes_not_cases(campaign_dir):
    doc = read_json(campaign_dir / "tests.json")
    campaign = load_campaign(campaign_dir)
    assert doc["main"] == {"sha256": cases_digest(campaign.tests)}
    assert doc["focused"] == campaign.focused
    for tag, recipe in doc["sweeps"].items():
        assert set(recipe) == {"base", "axes", "runs_per_cell", "seed", "sha256"}
        assert recipe["base"] == campaign.find_test(recipe["base"]["id"]).to_dict()
        assert (recipe["axes"], recipe["runs_per_cell"], recipe["seed"]) == (
            ["action", "delay_band"], 4, 0
        )
        assert recipe["sha256"] == cases_digest(campaign.sweeps[tag].tests)
    checks = read_json(campaign_dir / "soundness.json")
    assert list(doc["soundness"]) == [c["tag"] for c in checks]
    for check, (tag, recipe) in zip(checks, doc["soundness"].items()):
        literals = [[lit["column"], lit["value"]] for lit in check["cut_set"]["literals"]]
        assert recipe == {"literals": literals, "seed": 0, "trials": 3,
                          "sha256": cases_digest(campaign.soundness[tag].tests)}
    assert len((campaign_dir / "tests.json").read_bytes()) < 4000


def test_cases_digest_covers_every_field(campaign_dir):
    tests = load_campaign(campaign_dir).tests[:3]
    digest = cases_digest(tests)
    other = {AppState: AppState.HOVERING, AutopilotMode: AutopilotMode.LAND}
    for field in dataclasses.fields(testgen.TestCase):
        value = getattr(tests[1], field.name)
        if isinstance(value, bool):
            value = not value
        elif type(value) in other:
            value = other[type(value)]
        elif isinstance(value, str):
            value += "x"
        else:
            value += 1
        edited = [tests[0], dataclasses.replace(tests[1], **{field.name: value}), tests[2]]
        assert cases_digest(edited) != digest, field.name
    assert cases_digest(tests) == digest


def edit_recipe(section: str, key: str, value):
    """An edit that sets key of the first recipe in a section of tests.json
    to value(the stored value) and returns the entry's name."""
    def edit(root) -> str:
        doc = read_json(root / "tests.json")
        tag, recipe = next(iter(doc[section].items()))
        recipe[key] = value(recipe[key])
        write_json(root / "tests.json", doc)
        return f"tests.json {section} {tag}"

    return edit


def retag(section: str):
    """An edit that stores the first recipe of a section of tests.json under
    another tag (and, for a sweep, points its representatives there)."""
    def edit(root) -> str:
        doc = read_json(root / "tests.json")
        tag = next(iter(doc[section]))
        doc[section]["0badc0de"] = doc[section].pop(tag)
        doc["focused"] = {rep: "0badc0de" if t == tag else t for rep, t in doc["focused"].items()}
        write_json(root / "tests.json", doc)
        return f"tests.json {section} 0badc0de"

    return edit


def bogus_literal(column: str):
    """An edit that gives the first soundness check's literal on column a
    value that names no level of the spec."""
    return edit_recipe(
        "soundness", "literals",
        lambda lits: [[c, "BOGUS" if c == column else v] for c, v in lits],
    )


def focus_on_a_missing_sweep(root) -> str:
    """An edit that points the first representative at a tag that tests.json
    stores no sweep under."""
    doc = read_json(root / "tests.json")
    rep = next(iter(doc["focused"]))
    doc["focused"][rep] = "deadbeef"
    write_json(root / "tests.json", doc)
    return f"tests.json focused {rep}"


def drop_main_sha256(root) -> str:
    doc = read_json(root / "tests.json")
    del doc["main"]["sha256"]
    write_json(root / "tests.json", doc)
    return "tests.json main"


def set_section(section, value):
    """An edit that stores value as a section of tests.json, or as the whole
    document when section is None; it returns what the error names."""
    def edit(root) -> str:
        doc = read_json(root / "tests.json")
        if section is None:
            doc = value
        else:
            doc[section] = value
        write_json(root / "tests.json", doc)
        return "tests.json" if section is None else f"tests.json {section}"

    return edit


def reorder_bands(root) -> str:
    """Swap the bounds of the short and long bands in campaign.json, so the
    spec's bands come back in another order."""
    meta = read_json(root / "campaign.json")
    bands = meta["spec"]["ENVIRONMENT"]["transition_delay"]["bands"]
    bands["short"], bands["long"] = bands["long"], bands["short"]
    write_json(root / "campaign.json", meta)
    return "tests.json main"


@pytest.mark.parametrize("command", ["analyze", "focus", "report", "replay"])
@pytest.mark.parametrize(
    "edit",
    [
        edit_recipe("sweeps", "runs_per_cell", lambda n: n + 1),
        edit_recipe("soundness", "seed", lambda seed: seed + 1),
        edit_recipe("sweeps", "sha256", lambda digest: "0" * 64),
        retag("sweeps"),
        retag("soundness"),
        reorder_bands,
        bogus_literal("app_state"),
        bogus_literal("action"),
        edit_recipe("sweeps", "base", lambda base: {**base, "target_app_state": "BOGUS"}),
        edit_recipe("sweeps", "base", lambda base: {k: v for k, v in base.items()
                                                    if k != "rng_seed"}),
        drop_main_sha256,
        focus_on_a_missing_sweep,
        *(set_section(section, []) for section in ("focused", "sweeps", "soundness", "main")),
        set_section(None, []),
    ],
    ids=["runs_per_cell", "check_seed", "sweep_sha256", "sweep_tag", "check_tag", "band_order",
         "literal_state", "literal_action", "base_state", "base_seed", "main_sha256",
         "focused_tag", "focused_list", "sweeps_list", "soundness_list", "main_list",
         "document_list"],
)
def test_an_edited_recipe_exits_two_and_changes_nothing(campaign_copy, capsys, edit, command):
    entry = edit(campaign_copy)
    before = campaign_files(campaign_copy)
    with pytest.raises(RecipeMismatch, match=entry):
        load_campaign(campaign_copy)
    args = [command, "--campaign", str(campaign_copy)]
    if command == "replay":
        args += ["--test-id", "t00000"]
    assert cli.main(args) == 2
    assert capsys.readouterr().err.startswith(f"error: {entry}: ")
    assert campaign_files(campaign_copy) == before


def set_layout(layout):
    """An edit that stores layout in campaign.json, or removes the key when
    layout is None; it returns what the error names."""
    def edit(root) -> str:
        meta = read_json(root / "campaign.json")
        if layout is None:
            del meta["layout"]
        else:
            meta["layout"] = layout
        write_json(root / "campaign.json", meta)
        found = "none" if layout is None else layout
        return f"has layout {found}, but this code reads layout {LAYOUT};"

    return edit


def delete_tests_json(root) -> str:
    (root / "tests.json").unlink()
    return "holds no tests.json"


def extra_generator_key(root) -> str:
    meta = read_json(root / "campaign.json")
    meta["generator"]["mission_policy"] = "first"
    write_json(root / "campaign.json", meta)
    return "has a generator block this code does not read"


@pytest.mark.parametrize("command", ["analyze", "focus", "report", "replay"])
@pytest.mark.parametrize(
    "edit",
    [set_layout(None), set_layout(0), set_layout(1), set_layout(2), set_layout(3),
     set_layout(4), delete_tests_json, extra_generator_key],
    ids=["no_layout", "layout_0", "layout_1", "layout_2", "layout_3", "layout_4",
         "no_tests_json", "generator_key"],
)
def test_a_campaign_of_another_layout_exits_two_and_changes_nothing(
    campaign_copy, capsys, edit, command
):
    named = edit(campaign_copy)
    before = campaign_files(campaign_copy)
    args = [command, "--campaign", str(campaign_copy)]
    if command == "replay":
        args += ["--test-id", "t00000"]
    assert cli.main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: campaign {campaign_copy} {named}")
    assert "run `statefuzz run --spec fspec1.json --mission mission.json" in err
    assert campaign_files(campaign_copy) == before


def test_bands_taken_in_document_order_are_refused(campaign_copy, capsys, monkeypatch):
    # the defect the bands' order of bounds mends: canonical JSON stores
    # fspec1's bands as long, medium, short, so generation in document order
    # pairs the stored results with other tests
    def document_order(raw):
        bands = raw["bands"].items()
        return tuple(fuzzspec.DelayBand(n, float(b["min"]), float(b["max"])) for n, b in bands)

    monkeypatch.setattr(fuzzspec, "_parse_bands", document_order)
    before = campaign_files(campaign_copy)
    assert cli.main(["report", "--campaign", str(campaign_copy)]) == 2
    assert capsys.readouterr().err.startswith("error: tests.json main: ")
    assert campaign_files(campaign_copy) == before


def capture_flown(monkeypatch) -> list[list]:
    """Patch the runner's run_campaign to record each list of tests it flies."""
    batches = []
    run_campaign = cli.run_campaign

    def recorded(tests, *args, **kwargs):
        batches.append(list(tests))
        return run_campaign(tests, *args, **kwargs)

    monkeypatch.setattr(cli, "run_campaign", recorded)
    return batches


def entries(campaign) -> list[list]:
    """The case lists of a loaded campaign: main, each sweep, each check."""
    stored = [campaign.main, *campaign.sweeps.values(), *campaign.soundness.values()]
    return [e.tests for e in stored]


def multi_fault_args(tmp_path) -> list[str]:
    """F1 + F2 + F5 seeded over a spec whose actions can trip all three."""
    raw = small_spec_raw()
    raw["RC_INPUT_EVENTS"] = ["POSCTL", "AUTO.LAND", "AUTO.RTL"]
    raw["CONSTRAINTS"]["REQUIRES_PX4_MODE"] = {"OFFBOARD": ["TAKEOFF", "HOVERING"]}
    spec_path = tmp_path / "three_fault_spec.json"
    spec_path.write_text(json.dumps(raw))
    return ["run", "--spec", str(spec_path), "--mission", "mission_a",
            "--fault", "F1", "--fault", "F2", "--fault", "F5", "--latency-window", "200", "600",
            "--repetitions", "10", "--parallelism", "2", "--seed", "0"]


@pytest.mark.parametrize("campaign", ["tier-1", "multi-fault"])
def test_a_loaded_campaign_holds_the_cases_run_flew(tmp_path, monkeypatch, capsys, campaign):
    batches = capture_flown(monkeypatch)
    args = CAMPAIGN_ARGS if campaign == "tier-1" else multi_fault_args(tmp_path)
    root = tmp_path / "campaign"
    assert cli.main(args + ["--out", str(root)]) == 0
    loaded = load_campaign(root)
    assert len(loaded.sweeps) >= 1 and len(loaded.soundness) >= 1
    first_id = lambda tests: tests[0].test_id
    assert sorted(filter(None, entries(loaded)), key=first_id) == sorted(batches, key=first_id)
    flown = [t for batch in batches for t in batch]
    assert sorted(loaded.every_test(), key=lambda t: t.test_id) == sorted(
        flown, key=lambda t: t.test_id
    )


def test_a_loaded_campaign_holds_the_cases_focus_flew(campaign_copy, monkeypatch, capsys):
    # the bases are a sweep's test and a soundness trial, stored in full
    earlier = load_campaign(campaign_copy)
    bases = [next(iter(earlier.sweeps.values())).tests[5].test_id,
             soundness_ids(campaign_copy)[0]]
    batches = capture_flown(monkeypatch)
    args = ["focus", "--campaign", str(campaign_copy), "--runs-per-cell", "2"]
    assert cli.main(args + ["--test-id", bases[0], "--test-id", bases[1]]) == 0
    assert len(batches) >= 2
    loaded = load_campaign(campaign_copy)
    stored = entries(loaded)
    assert all(batch in stored for batch in batches)
    kept = {t.test_id: t for t in earlier.every_test()}
    flown = {t.test_id for batch in batches for t in batch}
    assert all(kept[t.test_id] == t for t in loaded.every_test() if t.test_id not in flown)
    # a sweep's recipe holds the full case of the first base with its tag
    doc = read_json(campaign_copy / "tests.json")
    for tag in {loaded.focused[base] for base in bases}:
        first = next(base for base in bases if loaded.focused[base] == tag)
        assert doc["sweeps"][tag]["base"] == kept[first].to_dict()


# ---------------------------------------------------------------------------
# replay
# ---------------------------------------------------------------------------


def test_replay_matches_stored_profile(campaign_dir, capsys):
    assert cli.main(["replay", "--campaign", str(campaign_dir), "--test-id", "t00000"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("replay OK: t00000 ->")


def test_replay_finds_a_soundness_trial(campaign_dir, capsys):
    trial = soundness_ids(campaign_dir)[0]
    assert trial.startswith("s-") and trial.endswith("-0")
    assert cli.main(["replay", "--campaign", str(campaign_dir), "--test-id", trial]) == 0
    assert capsys.readouterr().out.startswith(f"replay OK: {trial} -> FAILURE")


def test_campaign_stored_with_the_retired_config_keys_is_refused(campaign_copy, capsys):
    path = campaign_copy / "campaign.json"
    meta = read_json(path)
    meta["config"].update(
        app_signal_loss_s=20.0, autopilot_signal_loss_s=60.0, geofence_action="RETURN"
    )
    write_json(path, meta)
    before = campaign_files(campaign_copy)
    for args in (["report"], ["replay", "--test-id", "t00000"]):
        assert cli.main([*args, "--campaign", str(campaign_copy)]) == 2
        assert capsys.readouterr().err == (
            f"error: {path}: unknown config keys: "
            "['app_signal_loss_s', 'autopilot_signal_loss_s', 'geofence_action']\n"
        )
    assert campaign_files(campaign_copy) == before


def test_campaign_stored_with_a_malformed_mission_names_campaign_json(campaign_copy, capsys):
    path = campaign_copy / "campaign.json"
    meta = read_json(path)
    meta["mission"]["waypoints"][0] = ["a", 1, 2]
    write_json(path, meta)
    before = campaign_files(campaign_copy)
    for args in (["report"], ["analyze"], ["replay", "--test-id", "t00000"]):
        assert cli.main([*args, "--campaign", str(campaign_copy)]) == 2
        assert capsys.readouterr().err == (
            f"error: {path}: waypoints[0] must be [x, y, z], 3 numbers, got ['a', 1, 2]\n"
        )
    assert campaign_files(campaign_copy) == before


@pytest.mark.parametrize("version", [None, "v9", 5], ids=["missing", "v9", "number"])
def test_a_campaign_of_an_unknown_oracle_version_exits_two_naming_campaign_json(
    campaign_copy, capsys, version
):
    path = campaign_copy / "campaign.json"
    meta = read_json(path)
    if version is None:
        del meta["oracle_version"]
    else:
        meta["oracle_version"] = version
    write_json(path, meta)
    before = campaign_files(campaign_copy)
    for args in (["report"], ["analyze"], ["focus"], ["replay", "--test-id", "t00000"]):
        assert cli.main([*args, "--campaign", str(campaign_copy)]) == 2
        assert capsys.readouterr().err == (
            f"error: {path}: no built-in oracle revision {version!r}\n"
        )
    assert campaign_files(campaign_copy) == before


def torn_log(root) -> str:
    """Cut the results log's last line in half, as a killed writer leaves
    it; returns the id of the torn line."""
    path = root / "results.jsonl"
    text = path.read_text()
    start = text.rindex("\n", 0, len(text) - 1) + 1
    path.write_text(text[: start + (len(text) - start) // 2])
    return json.loads(text[start:])[column("test_id")]


def test_a_torn_last_line_is_ignored_and_then_dropped(campaign_dir, campaign_copy, capsys):
    torn = torn_log(campaign_copy)
    campaign = load_campaign(campaign_copy)
    assert torn not in campaign.profiles
    assert len(campaign.profiles) == len(logged_ids(campaign_dir)) - 1
    assert cli.main(["report", "--campaign", str(campaign_copy)]) == 0
    assert cli.main(["replay", "--campaign", str(campaign_copy), "--test-id", "t00000"]) == 0
    # the next rewrite of the log drops the torn line
    save_tests(campaign)
    text = (campaign_copy / "results.jsonl").read_text()
    assert text.endswith("\n")
    assert logged_ids(campaign_copy) == [i for i in logged_ids(campaign_dir) if i != torn]


def test_a_focus_after_a_killed_writer_appends_whole_lines(campaign_dir, campaign_copy, capsys):
    torn = torn_log(campaign_copy)
    assert torn.startswith("s-")
    args = ["focus", "--campaign", str(campaign_copy), "--runs-per-cell", "2", "--no-soundness"]
    assert cli.main(args + ["--test-id", "t00003"]) == 0
    # every line parses, each id once, and the torn soundness trial, whose
    # check is kept, flew again and was stored
    ids = logged_ids(campaign_copy)
    assert len(ids) == len(set(ids)) and torn in ids
    campaign = load_campaign(campaign_copy)
    assert set(ids) == set(campaign.profiles)
    for check in read_json(campaign_copy / "soundness.json"):
        trials = campaign.soundness[check["tag"]].tests
        assert [campaign.verdicts[t.test_id].verdict for t in trials] == check["verdicts"]
    assert cli.main(["report", "--campaign", str(campaign_copy)]) == 0


def test_the_last_whole_line_of_an_id_wins(campaign_dir, campaign_copy, capsys):
    campaign = load_campaign(campaign_copy)
    test = campaign.find_test("t00001")
    flown_again = dataclasses.replace(campaign.profiles["t00001"], oscillation_count=99)
    save_result(campaign_copy, test, flown_again)
    with (campaign_copy / RESULTS).open("a", encoding="utf-8") as log:
        log.write('["t00001",1500.0,"TAKEOFF"')
    # on load the later whole line stands, and the torn one is skipped
    assert load_campaign(campaign_copy).profiles["t00001"] == flown_again
    assert cli.main(["replay", "--campaign", str(campaign_copy), "--test-id", "t00001"]) == 1
    assert "oscillation_count: stored=99" in capsys.readouterr().out
    # a rewrite keeps it, where the id's first line stood
    save_tests(campaign)
    assert logged_ids(campaign_copy) == logged_ids(campaign_dir)
    assert dict(iter_results(campaign_copy))["t00001"][column("oscillation_count")] == 99
    assert load_campaign(campaign_copy).profiles["t00001"] == flown_again


def test_replay_detects_a_corrupted_profile(campaign_copy, capsys):
    results = dict(iter_results(campaign_copy))
    results["t00001"][column("oscillation_count")] = 99
    write_log(campaign_copy, results)
    assert cli.main(["replay", "--campaign", str(campaign_copy), "--test-id", "t00001"]) == 1
    out = capsys.readouterr().out
    assert "replay MISMATCH for t00001" in out
    assert "oscillation_count: stored=99" in out


def test_replay_sees_a_trace_that_moved_when_every_other_field_held(
    campaign_dir, capsys, monkeypatch
):
    # a switch latency a quarter millisecond longer moves the OFFBOARD
    # switch in the trace of t00018 and nothing else its profile holds
    campaign = load_campaign(campaign_dir)
    stored = campaign.profiles["t00018"]
    build = sutmodel.Vehicle.__init__

    def later_switch(self, *args, **kwargs):
        build(self, *args, **kwargs)
        self.switch_latency += 0.25

    monkeypatch.setattr(sutmodel.Vehicle, "__init__", later_switch)
    fresh = Executor(campaign.mission, campaign.config).execute(campaign.find_test("t00018"))
    assert fresh.trace_digest != stored.trace_digest
    assert dataclasses.replace(fresh, trace_digest=stored.trace_digest) == stored
    assert cli.main(["replay", "--campaign", str(campaign_dir), "--test-id", "t00018"]) == 1
    out = capsys.readouterr().out
    assert out.startswith("replay MISMATCH for t00018\n")
    assert f"  trace_digest: stored={stored.trace_digest!r} fresh={fresh.trace_digest!r}" in out
    assert "only the trace differs" in out and "replay --events" in out


def test_replay_events_prints_the_flights_log_and_trace(campaign_dir, capsys):
    campaign = load_campaign(campaign_dir)
    _profile, events = Executor(campaign.mission, campaign.config).fly(
        campaign.find_test("t00018"))
    args = ["replay", "--campaign", str(campaign_dir), "--test-id", "t00018", "--events"]
    assert cli.main(args) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("replay OK: t00018 ->")
    assert out[1] == "events of t00018 (fresh flight): time_ms kind detail"
    at = next(i for i, line in enumerate(out) if line.startswith("trace of t00018 "))
    assert at == 2 + len(events)
    # the printed times round-trip, so the trace they give has the stored digest
    digest = campaign.profiles["t00018"].trace_digest
    assert f"trace_digest {digest}" in out[at]
    trace = tuple((float(t), app, mode) for t, app, mode in map(str.split, out[at + 1:]))
    assert trace[0] == (0.0, "PRE_ARM", "STABILIZED") and trace_digest(trace) == digest


def test_replay_without_a_stored_profile_reexecutes(campaign_copy, capsys):
    results = dict(iter_results(campaign_copy))
    del results["t00002"]
    write_log(campaign_copy, results)
    assert cli.main(["replay", "--campaign", str(campaign_copy), "--test-id", "t00002"]) == 0
    assert "no stored profile for t00002" in capsys.readouterr().out


def failing(part):
    """part with every SUCCESS leaf turned into a FAILURE."""
    if isinstance(part, oracle.Leaf):
        return oracle.Leaf("FAILURE", part.reason)
    return dataclasses.replace(part, on_true=failing(part.on_true),
                               on_false=failing(part.on_false))


def store_another_oracle(root, monkeypatch):
    """Make the tree default_tree gives load_campaign turn every SUCCESS
    leaf into a FAILURE, so the stored profiles judge otherwise on load, as
    after a change to the oracle code; returns the recorded and the judged
    main verdict counts."""
    built = oracle.default_tree
    monkeypatch.setattr(storage, "default_tree", lambda version: failing(built(version)))
    judged = Counter(v.verdict for _t, _p, v in load_campaign(root).results())
    return read_json(root / "campaign.json")["verdict_counts"], judged


@pytest.mark.parametrize(
    "command", [["analyze"], ["analyze", "--oracle", "v1"], ["focus"], ["report"]],
    ids=["analyze", "analyze-v1", "focus", "report"],
)
def test_a_campaign_judged_otherwise_on_load_exits_two_and_changes_nothing(
    campaign_copy, capsys, monkeypatch, command
):
    recorded, judged = store_another_oracle(campaign_copy, monkeypatch)
    assert judged != recorded
    before = campaign_files(campaign_copy)
    assert cli.main([*command, "--campaign", str(campaign_copy)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: campaign.json records the main verdicts ")
    for counts in (recorded, judged):
        assert ", ".join(f"{k}={v}" for k, v in sorted(counts.items())) in err
    assert campaign_files(campaign_copy) == before
    # replay still diagnoses one stored profile
    assert cli.main(["replay", "--campaign", str(campaign_copy), "--test-id", "t00000"]) == 0
    assert capsys.readouterr().out.startswith("replay OK: t00000 ->")


def test_a_campaign_missing_a_main_result_is_not_compared(campaign_copy, capsys, monkeypatch):
    store_another_oracle(campaign_copy, monkeypatch)
    results = dict(iter_results(campaign_copy))
    del results["t00002"]
    write_log(campaign_copy, results)
    assert cli.main(["report", "--campaign", str(campaign_copy)]) == 0


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


@pytest.fixture(scope="module")
def false_positive_dir(tmp_path_factory):
    """A healthy vehicle judged by oracle v0, which fails its AUTO.LOITER and
    THROTTLE_TOGGLED flights."""
    raw = small_spec_raw()
    raw["RC_INPUT_EVENTS"] = ["POSCTL", "AUTO.LOITER", "THROTTLE_TOGGLED", "AUTO.LAND"]
    raw["CONSTRAINTS"]["REQUIRES_PX4_MODE"]["OFFBOARD"] = [
        "TAKEOFF", "FLYING_TO_WAYPOINT", "HOVERING"
    ]
    root = tmp_path_factory.mktemp("false-positives")
    spec_path = root / "reanalyze.json"
    spec_path.write_text(json.dumps(raw))
    args = ["run", "--spec", str(spec_path), "--mission", "mission_a",
            "--latency-window", "200", "600", "--repetitions", "2", "--runs-per-cell", "1",
            "--no-soundness", "--oracle", "v0", "--seed", "0", "--out", str(root / "campaign")]
    assert cli.main(args) == 0
    return root / "campaign"


def test_analyze_without_failures_removes_the_earlier_clustering(
    false_positive_dir, tmp_path, capsys
):
    # the healthy flights oracle v0 failed all pass under v1: nothing is
    # left to cluster
    campaign_copy = tmp_path / "campaign"
    shutil.copytree(false_positive_dir, campaign_copy)
    assert (campaign_copy / "analysis.json").exists()
    assert cli.main(["analyze", "--campaign", str(campaign_copy), "--oracle", "v1"]) == 0
    assert "no failures in this campaign; nothing to cluster" in capsys.readouterr().out
    assert not (campaign_copy / "analysis.json").exists()
    # so the report shows no clusters, and focus asks for the tests to fly
    assert cli.main(["report", "--campaign", str(campaign_copy)]) == 0
    assert "failure clusters" not in capsys.readouterr().out
    assert cli.main(["focus", "--campaign", str(campaign_copy)]) == 2
    err = capsys.readouterr().err
    assert "without failures has no representatives" in err and "--test-id" in err


@pytest.mark.parametrize("options", [["--oracle", "v1"], ["--kmax", "1"]], ids=["v1", "kmax"])
def test_analyze_rewrites_the_report(false_positive_dir, tmp_path, capsys, options):
    root = tmp_path / "campaign"
    shutil.copytree(false_positive_dir, root)
    assert "59 failing tests, K=3" in (root / "report.txt").read_text()
    assert cli.main(["analyze", "--campaign", str(root), *options]) == 0
    analyzed = (root / "report.txt").read_text()
    assert "59 failing tests, K=3" not in analyzed
    assert ("failure clusters" in analyzed) == (options[0] == "--kmax")
    # the report analyze rendered is the one `report` renders
    assert cli.main(["report", "--campaign", str(root)]) == 0
    assert (root / "report.txt").read_text() == analyzed


def test_analyze_honors_kmax(campaign_copy, capsys):
    assert cli.main(["analyze", "--campaign", str(campaign_copy), "--kmax", "2"]) == 0
    doc = read_json(campaign_copy / "analysis.json")
    assert len(doc["wcss_curve"]) <= 2
    assert doc["k"] <= 2


def test_analyze_defaults_to_the_analysis_restarts(campaign_copy, capsys, monkeypatch):
    seen = []
    original = analysis.analyze_failures

    def spy(*args, **kwargs):
        seen.append(kwargs["restarts"])
        return original(*args, **kwargs)

    monkeypatch.setattr(analysis, "analyze_failures", spy)
    assert cli.main(["analyze", "--campaign", str(campaign_copy)]) == 0
    assert cli.main(["analyze", "--campaign", str(campaign_copy), "--restarts", "3"]) == 0
    assert seen == [analysis.DEFAULT_RESTARTS, 3]
    capsys.readouterr()
    with pytest.raises(SystemExit):
        cli.main(["analyze", "--help"])
    assert f"(default: {analysis.DEFAULT_RESTARTS})" in " ".join(capsys.readouterr().out.split())


@pytest.mark.parametrize("command", ["focus", "report"])
@pytest.mark.parametrize(
    "key, value",
    [
        ("wcss_curve", [[1, "x"]]),
        ("wcss_curve", 1),
        ("k", None),
        ("representatives", [{"cluster": 0, "closest": ["t00003"], "farthest": "t00003"}]),
    ],
    ids=["wcss_text", "wcss_number", "k_null", "closest_list"],
)
def test_an_edited_analysis_exits_two_and_changes_nothing(
    campaign_copy, capsys, command, key, value
):
    path = campaign_copy / "analysis.json"
    doc = read_json(path)
    # the first representative becomes its cluster's farthest test, so a
    # focus that went ahead would fly and store a sweep of it
    rep = doc["representatives"][0]
    rep["closest"] = rep["farthest"]
    doc[key] = value
    write_json(path, doc)
    before = campaign_files(campaign_copy)
    assert cli.main([command, "--campaign", str(campaign_copy)]) == 2
    assert capsys.readouterr().err == (
        f"error: {path}: {key} is missing or not as analyze writes it; run `statefuzz "
        f"analyze --campaign {campaign_copy}` to cluster the failures again\n"
    )
    assert campaign_files(campaign_copy) == before


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
    # the new focused tests joined the manifest
    doc = read_json(campaign_copy / "tests.json")
    assert "t00003" in doc["focused"]
    tag = doc["focused"]["t00003"]
    assert (campaign_copy / "truthtables" / f"{tag}.json").exists()
    assert (campaign_copy / "truthtables" / f"{tag}.csv").exists()
    assert (campaign_copy / "faulttrees" / f"{tag}.json").exists()


def test_focus_names_only_the_trees_it_wrote(campaign_copy, capsys, monkeypatch):
    build = cli.build_truth_table
    rep = read_json(campaign_copy / "analysis.json")["representatives"][0]["closest"]
    # a test of another state, so its sweep key is not the representative's
    campaign = load_campaign(campaign_copy)
    state = campaign.find_test(rep).app_state
    other = next(t.test_id for t in campaign.tests if t.app_state is not state)

    def invalid_for_other(base, *args, **kwargs):
        if base.test_id == other:
            raise InvalidOnly("every run was INVALID")
        return build(base, *args, **kwargs)

    monkeypatch.setattr(cli, "build_truth_table", invalid_for_other)
    args = ["focus", "--campaign", str(campaign_copy), "--runs-per-cell", "1",
            "--no-soundness", "--test-id", rep, "--test-id", other]
    assert cli.main(args) == 0
    assert f"fault trees written for: {rep} (+combined)" in capsys.readouterr().out
    tag = read_json(campaign_copy / "tests.json")["focused"][other]
    assert not (campaign_copy / "faulttrees" / f"{tag}.json").exists()


def cut_set_sources(root):
    doc = read_json(root / "faulttrees" / "combined.json")
    return {s for cs in doc["cut_sets"] for s in cs["sources"]}


def test_focus_keeps_the_combined_results_of_other_tables(campaign_dir, campaign_copy, capsys):
    rep = read_json(campaign_copy / "analysis.json")["representatives"][0]["closest"]
    tag = read_json(campaign_copy / "tests.json")["focused"][rep]
    assert f"truthtable:{tag}" in cut_set_sources(campaign_copy)
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
    assert f"truthtable:{tag}" in cut_set_sources(campaign_copy)
    assert read_json(campaign_copy / "soundness.json") == stored_soundness
    # and so do the trials of those checks
    trials = soundness_ids(campaign_copy)
    assert trials and trials == soundness_ids(campaign_dir)
    assert set(trials) <= set(logged_ids(campaign_copy))


def test_focus_on_the_representatives_reproduces_the_run(campaign_dir, campaign_copy, capsys):
    # the tables, trees and checks are derived again from the stored
    # results, so nothing flies and every file is as the run wrote it
    for name in ("truthtables", "faulttrees"):
        shutil.rmtree(campaign_copy / name)
    (campaign_copy / "soundness.json").unlink()
    rc = cli.main(["focus", "--campaign", str(campaign_copy), "--runs-per-cell", "4"])
    assert rc == 0
    assert without_manifest(campaign_copy) == without_manifest(campaign_dir)


def count_flights(monkeypatch) -> list[str]:
    """Patch Executor.execute to record the id of every test it flies."""
    flown = []
    execute = Executor.execute

    def counted(self, test):
        flown.append(test.test_id)
        return execute(self, test)

    monkeypatch.setattr(Executor, "execute", counted)
    return flown


def test_focus_flies_a_repeated_test_id_once(campaign_dir, campaign_copy, capsys, monkeypatch):
    flown = count_flights(monkeypatch)
    rep = read_json(campaign_copy / "analysis.json")["representatives"][0]["closest"]
    args = ["focus", "--campaign", str(campaign_copy), "--runs-per-cell", "4"]
    assert cli.main(args + ["--test-id", rep, "--test-id", rep]) == 0
    assert capsys.readouterr().out.count(f"focused re-fuzz around {rep}") == 1
    # each soundness check is written once, as the run wrote it
    path = "soundness.json"
    assert (campaign_copy / path).read_bytes() == (campaign_dir / path).read_bytes()
    # the stored checks are kept, not flown again
    assert not [i for i in flown if i.startswith("s-")]


def test_a_stored_check_keeps_its_seed_under_another_seed(campaign_dir, campaign_copy, capsys,
                                                          monkeypatch):
    flown = count_flights(monkeypatch)
    stored = {str(d["cut_set"]["literals"]): d for d in read_json(campaign_dir / "soundness.json")}
    args = ["focus", "--campaign", str(campaign_copy), "--runs-per-cell", "4", "--seed", "5"]
    assert cli.main(args) == 0
    kept = [d for d in read_json(campaign_copy / "soundness.json")
            if str(d["cut_set"]["literals"]) in stored]
    # the new sweeps find a cut set checked before: its check keeps its tag
    # and verdicts, and none of its trials flies again
    assert kept
    for doc in kept:
        before = stored[str(doc["cut_set"]["literals"])]
        assert (doc["tag"], doc["verdicts"]) == (before["tag"], before["verdicts"])
        assert not [i for i in flown if i.startswith(f"s-{doc['tag']}-")]


def test_a_plain_focus_flies_no_stored_sweep(campaign_copy, capsys, monkeypatch):
    # were a stored sweep flown again, its changed flights would show in
    # its table: every f-* flight now drifts off its path
    flown = []
    execute = Executor.execute

    def changed(self, test):
        flown.append(test.test_id)
        profile = execute(self, test)
        if test.test_id.startswith("f-"):
            profile = dataclasses.replace(profile, oscillation_count=99)
        return profile

    monkeypatch.setattr(Executor, "execute", changed)
    before = campaign_files(campaign_copy)
    assert cli.main(["focus", "--campaign", str(campaign_copy), "--runs-per-cell", "4"]) == 0
    assert not [i for i in flown if i.startswith("f-")]
    assert_tables_are_those_of_the_stored_results(campaign_copy)
    # and nothing flew, so every file is as the run left it
    assert campaign_files(campaign_copy) == before


def assert_tables_are_those_of_the_stored_results(root):
    """Each stored table is the one the stored results of its sweep give."""
    campaign = load_campaign(root)
    for tag, sweep in campaign.sweeps.items():
        axes = [a for a in testgen.AXES if a in sweep.recipe["axes"]]
        items = [(t, campaign.profiles[t.test_id], campaign.verdicts[t.test_id])
                 for t in sweep.tests]
        stored = read_json(root / "truthtables" / f"{tag}.json")
        assert stored == table_from_results(axes, items).to_dict()


def test_a_focus_that_sweeps_the_context_tables_several_contexts(campaign_copy, capsys,
                                                                monkeypatch):
    args = ["focus", "--campaign", str(campaign_copy), "--test-id", "t00006", "--axes",
            "app_state,action,delay_band", "--runs-per-cell", "1", "--no-soundness"]
    assert cli.main(args) == 0
    campaign = load_campaign(campaign_copy)
    tag = campaign.focused["t00006"]
    table = read_json(campaign_copy / "truthtables" / f"{tag}.json")
    assert table["axes"] == ["app_state", "action", "delay_band"]
    assert len({row["values"]["app_state"] for row in table["rows"]}) > 1
    assert_tables_are_those_of_the_stored_results(campaign_copy)
    # focused again, it flies nothing and changes no file
    flown = count_flights(monkeypatch)
    before = campaign_files(campaign_copy)
    assert cli.main(args) == 0
    assert flown == [] and campaign_files(campaign_copy) == before
    # a test the sweep flew in another context than its base's replays
    other = next(t.test_id for t in campaign.sweeps[tag].tests
                 if t.app_state is not campaign.find_test("t00006").app_state)
    capsys.readouterr()
    assert cli.main(["replay", "--campaign", str(campaign_copy), "--test-id", other]) == 0
    assert capsys.readouterr().out.startswith(f"replay OK: {other} ->")


def test_a_sweep_flown_again_stores_its_new_flights(campaign_copy, capsys, monkeypatch):
    # the last whole line of an id wins: a sweep test whose result line was
    # deleted flies again, and alone, and its new flight, which now drifts
    # off its path, is the result its table is built from
    campaign = load_campaign(campaign_copy)
    lost = next(iter(campaign.sweeps.values())).tests[0].test_id
    results = dict(iter_results(campaign_copy))
    del results[lost]
    write_log(campaign_copy, results)
    flown = []
    run_campaign = cli.run_campaign

    def changed(tests, *args, **kwargs):
        flown.extend(t.test_id for t in tests)
        profiles = run_campaign(tests, *args, **kwargs)
        return [dataclasses.replace(p, oscillation_count=99) for p in profiles]

    monkeypatch.setattr(cli, "run_campaign", changed)
    opened = count_pools(monkeypatch)
    args = ["focus", "--campaign", str(campaign_copy), "--runs-per-cell", "4", "--parallelism", "2"]
    assert cli.main(args) == 0
    # one test to fly opens no pool
    assert flown == [lost] and opened == []
    assert load_campaign(campaign_copy).profiles[lost].oscillation_count == 99
    # each id keeps one line, and every table matches the stored results
    ids = logged_ids(campaign_copy)
    assert len(ids) == len(set(ids))
    assert_tables_are_those_of_the_stored_results(campaign_copy)


def test_a_focus_derives_its_outputs_from_the_stored_results(campaign_copy, capsys, monkeypatch):
    focus = ["focus", "--campaign", str(campaign_copy), "--runs-per-cell", "4"]
    assert cli.main(focus + ["--test-id", "t00076"]) == 0
    assert "truth table t00076 (sweep " in (campaign_copy / "report.txt").read_text()
    before = without_manifest(campaign_copy)
    # with every table, tree and check gone, a plain focus derives them all
    # again from tests.json and the results log, the second sweep's too
    for name in ("truthtables", "faulttrees"):
        shutil.rmtree(campaign_copy / name)
    (campaign_copy / "soundness.json").unlink()
    flown = count_flights(monkeypatch)
    batches = capture_flown(monkeypatch)
    assert cli.main(focus) == 0
    assert flown == [] and batches == []
    assert without_manifest(campaign_copy) == before


def test_a_sweep_with_no_valid_run_flies_once(tmp_path, capsys, monkeypatch):
    # RETURNING is reached only through a geofence breach, and mission_a has
    # no fence, so every run of a RETURNING sweep is INVALID
    raw = small_spec_raw()
    raw["FROM_PX4_modes"].append("RTL")
    raw["FROM_APP_states"].append("RETURNING")
    raw["CONSTRAINTS"]["REQUIRES_PX4_MODE"]["RTL"] = ["RETURNING"]
    spec_path = tmp_path / "rtl_spec.json"
    spec_path.write_text(json.dumps(raw))
    root = tmp_path / "campaign"
    args = ["run", "--spec", str(spec_path), "--mission", "mission_a", "--fault", "F2",
            "--latency-window", "200", "600", "--repetitions", "2", "--runs-per-cell", "4",
            "--seed", "0", "--out", str(root)]
    assert cli.main(args) == 0
    campaign = load_campaign(root)
    returning = next(t.test_id for t in campaign.tests if t.app_state is AppState.RETURNING)
    batches = capture_flown(monkeypatch)
    focus = ["focus", "--campaign", str(root), "--runs-per-cell", "4", "--test-id", returning]
    assert cli.main(focus) == 0
    assert "the state was never reached" in capsys.readouterr().err
    # 3 actions x 3 bands x 4 runs per cell, stored without a table
    assert [len(b) for b in batches] == [36]
    tag = read_json(root / "tests.json")["focused"][returning]
    assert not (root / "truthtables" / f"{tag}.json").exists()
    before = campaign_files(root)
    for _ in range(2):
        assert cli.main(focus) == 0
        assert [len(b) for b in batches] == [36]
        assert campaign_files(root) == before


def test_report_renders_only_the_sweeps_tests_json_names(
    campaign_dir, campaign_copy, capsys, monkeypatch
):
    # a focus killed after its new sweep's table was written, before
    # tests.json named the sweep
    stored = set(load_campaign(campaign_copy).sweeps) | {"combined"}
    save_fault_tree = cli.save_fault_tree

    def killed(root, key, *args):
        if key not in stored:
            raise RuntimeError("killed mid-focus")
        save_fault_tree(root, key, *args)

    monkeypatch.setattr(cli, "save_fault_tree", killed)
    args = ["focus", "--campaign", str(campaign_copy), "--test-id", "t00003",
            "--runs-per-cell", "1", "--no-soundness"]
    with pytest.raises(RuntimeError, match="killed mid-focus"):
        cli.main(args)
    tables = {p.stem for p in (campaign_copy / "truthtables").glob("*.json")}
    assert len(tables - stored) == 1
    # report renders the sweeps tests.json names, as the run did
    assert cli.main(["report", "--campaign", str(campaign_copy)]) == 0
    path = "report.txt"
    assert (campaign_copy / path).read_bytes() == (campaign_dir / path).read_bytes()


@pytest.mark.parametrize(
    "options",
    [["--test-id", "t00003", "--runs-per-cell", "2"], ["--runs-per-cell", "1", "--axes", "action"]],
    ids=["new-sweep", "other-sweeps"],
)
def test_focus_rewrites_the_report_as_report_renders_it(campaign_copy, capsys, options):
    assert cli.main(["focus", "--campaign", str(campaign_copy), *options]) == 0
    focused = (campaign_copy / "report.txt").read_text()
    if "--test-id" in options:
        assert "truth table t00003 (sweep " in focused
    capsys.readouterr()
    assert cli.main(["report", "--campaign", str(campaign_copy)]) == 0
    assert capsys.readouterr().out == focused


def campaign_files(root) -> dict:
    return {p.relative_to(root): p.read_bytes() for p in root.rglob("*") if p.is_file()}


@pytest.mark.parametrize(
    "extra, error",
    [
        (["--test-id", "zzz"], "campaign has no test 'zzz'"),
        (["--axes", "foo"], "unknown focus axes ['foo']"),
    ],
    ids=["test_id", "axis"],
)
def test_focus_with_an_unknown_test_id_changes_nothing(
    campaign_copy, capsys, monkeypatch, extra, error
):
    # a stored sweep lacks a result, yet nothing flies before the refusal
    results = dict(iter_results(campaign_copy))
    del results[next(i for i in results if i.startswith("f-"))]
    write_log(campaign_copy, results)
    before = campaign_files(campaign_copy)
    batches = capture_flown(monkeypatch)
    args = ["focus", "--campaign", str(campaign_copy), "--runs-per-cell", "1",
            "--test-id", "t00003", *extra]
    assert cli.main(args) == 2
    assert error in capsys.readouterr().err
    assert batches == [] and campaign_files(campaign_copy) == before


@pytest.mark.parametrize(
    "command, option, value",
    [
        ("run", "--runs-per-cell", "0"),
        ("run", "--parallelism", "0"),
        ("run", "--parallelism", "-3"),
        ("focus", "--runs-per-cell", "-1"),
        ("focus", "--parallelism", "0"),
        ("analyze", "--kmax", "-1"),
        ("analyze", "--kmax", "0"),
        ("analyze", "--restarts", "0"),
    ],
)
def test_a_count_below_one_exits_two_before_anything_flies(
    campaign_copy, capsys, monkeypatch, command, option, value
):
    flown = count_flights(monkeypatch)
    before = campaign_files(campaign_copy)
    if command == "run":
        args = CAMPAIGN_ARGS + ["--out", str(campaign_copy)]
    elif command == "analyze":
        args = ["analyze", "--campaign", str(campaign_copy)]
    else:
        args = ["focus", "--campaign", str(campaign_copy)]
    args += [option, value]
    try:
        code = cli.main(args)
    except SystemExit as exc:
        code = exc.code
    assert code == 2
    assert "positive integer" in capsys.readouterr().err
    assert flown == []
    assert campaign_files(campaign_copy) == before


def count_pools(monkeypatch) -> list:
    """Patch multiprocessing.Pool to record every pool opened."""
    opened = []
    pool = multiprocessing.Pool

    def counted(*args, **kwargs):
        opened.append(pool(*args, **kwargs))
        return opened[-1]

    monkeypatch.setattr(multiprocessing, "Pool", counted)
    return opened


def without_manifest(root) -> dict:
    return {p: data for p, data in campaign_files(root).items() if p.name != "campaign.json"}


@pytest.mark.parametrize("parallelism, pools", [("2", 1), ("1", 0)])
def test_run_opens_at_most_one_pool(campaign_dir, tmp_path, monkeypatch, capsys, parallelism, pools):
    opened = count_pools(monkeypatch)
    root = tmp_path / "campaign"
    assert cli.main(CAMPAIGN_ARGS + ["--parallelism", parallelism, "--out", str(root)]) == 0
    # main tests, a focus sweep and soundness trials all flew
    assert soundness_ids(root) and focused_ids(root)
    assert len(opened) == pools
    assert multiprocessing.active_children() == []
    # the shared pool's workers change no byte
    assert without_manifest(root) == without_manifest(campaign_dir)


def test_focus_opens_one_pool_and_only_when_it_flies(campaign_copy, monkeypatch, capsys):
    opened = count_pools(monkeypatch)
    args = ["focus", "--campaign", str(campaign_copy), "--parallelism", "2"]
    assert cli.main(args + ["--axes", "foo"]) == 2
    assert opened == []
    # every result of the stored sweeps and checks is there: nothing flies
    assert cli.main(args + ["--runs-per-cell", "4"]) == 0
    assert opened == []
    assert cli.main(args + ["--runs-per-cell", "3"]) == 0
    assert len(opened) == 1
    assert multiprocessing.active_children() == []


def test_a_command_that_raises_mid_focus_leaves_no_worker(tmp_path, monkeypatch, capsys):
    build = cli.build_truth_table

    def broken(*args, **kwargs):
        build(*args, **kwargs)
        raise RuntimeError("killed mid-focus")

    monkeypatch.setattr(cli, "build_truth_table", broken)
    opened = count_pools(monkeypatch)
    with pytest.raises(RuntimeError, match="killed mid-focus"):
        cli.main(CAMPAIGN_ARGS + ["--parallelism", "2", "--out", str(tmp_path / "c")])
    assert len(opened) == 1
    assert multiprocessing.active_children() == []


#: two representatives (t00006, t00008) with one sweep key
SHARED_KEY_ARGS = [
    "run",
    "--spec", "fspec1",
    "--mission", "mission_a",
    "--fault", "F2",
    "--latency-window", "200", "600",
    "--repetitions", "2",
    "--runs-per-cell", "2",
    "--no-soundness",
    "--seed", "1",
]


def focused_ids(root):
    return {t.test_id for e in load_campaign(root).sweeps.values() for t in e.tests}


def test_representatives_with_one_sweep_key_fly_it_once(tmp_path, monkeypatch, capsys):
    flown = count_flights(monkeypatch)
    root = tmp_path / "campaign"
    assert cli.main(SHARED_KEY_ARGS + ["--out", str(root)]) == 0
    focused = read_json(root / "tests.json")["focused"]
    assert len(focused) == 2 and len(set(focused.values())) == 1
    # unique keys x 9 cells (3 actions x 3 bands) x 2 runs per cell
    focus_flights = [i for i in flown if i.startswith("f-")]
    assert len(focus_flights) == len(set(focused.values())) * 9 * 2
    assert len([i for i in logged_ids(root) if i.startswith("f-")]) == len(focus_flights)
    (tag,) = set(focused.values())
    assert sorted(p.name for p in (root / "truthtables").iterdir()) == [f"{tag}.csv", f"{tag}.json"]
    assert sorted(p.name for p in (root / "faulttrees").iterdir()) == sorted(
        [f"{tag}.dot", f"{tag}.json", "combined.dot", "combined.json"]
    )
    assert cut_set_sources(root) == {f"truthtable:{tag}"}
    # runs per cell and the seed are part of the key
    ids = focused_ids(root)
    for other in (["--runs-per-cell", "3"], ["--runs-per-cell", "2", "--seed", "2"]):
        args = ["focus", "--campaign", str(root), "--no-soundness", *other]
        assert cli.main(args) == 0
        assert not focused_ids(root) & ids


def test_report_heads_a_shared_table_as_run_did(tmp_path, capsys):
    root = tmp_path / "campaign"
    assert cli.main(SHARED_KEY_ARGS + ["--out", str(root)]) == 0
    focused = read_json(root / "tests.json")["focused"]
    (tag,) = set(focused.values())
    report = (root / "report.txt").read_bytes()
    assert f"truth table t00006, t00008 (sweep {tag}, scope TAKEOFF)".encode() in report
    assert cli.main(["report", "--campaign", str(root)]) == 0
    assert (root / "report.txt").read_bytes() == report


def test_soundness_checks_each_combined_cut_set_once(tmp_path, monkeypatch, capsys):
    flown = count_flights(monkeypatch)
    root = tmp_path / "campaign"
    args = [a for a in SHARED_KEY_ARGS if a != "--no-soundness"]
    assert cli.main(args + ["--out", str(root)]) == 0
    assert len(read_json(root / "tests.json")["focused"]) == 2
    tree = read_json(root / "faulttrees" / "combined.json")["cut_sets"]
    checks = read_json(root / "soundness.json")
    assert [d["cut_set"]["literals"] for d in checks] == [
        [{"column": lit["column"], "value": lit["value"]} for lit in cs["literals"]]
        for cs in tree
    ]
    assert [d["cut_set"]["sources"] for d in checks] == [cs["sources"] for cs in tree]
    assert len([i for i in flown if i.startswith("s-")]) == 3 * len(tree)


def test_refocus_leaves_no_result_file_outside_tests_json(tmp_path, capsys):
    root = tmp_path / "campaign"
    args = [
        "run", "--spec", "fspec1", "--mission", "mission_a", "--fault", "F2",
        "--latency-window", "200", "600", "--repetitions", "1",
        "--runs-per-cell", "2", "--seed", "3", "--out", str(root),
    ]
    assert cli.main(args) == 0
    args = ["focus", "--campaign", str(root), "--runs-per-cell", "1", "--axes", "action"]
    assert cli.main(args) == 0
    campaign = load_campaign(root)
    assert [i for i in logged_ids(root) if campaign.find_test(i) is None] == []
    # the old cut set's soundness trials went with its check
    assert sorted(i for i in logged_ids(root) if i.startswith("s-")) == sorted(soundness_ids(root))
    # the tables and trees on disk are those of the sweeps tests.json names
    tags = set(read_json(root / "tests.json")["focused"].values())
    assert {p.stem for p in (root / "truthtables").iterdir()} == tags
    assert {p.stem for p in (root / "faulttrees").iterdir()} - {"combined"} == tags
    assert cut_set_sources(root) <= {f"truthtable:{tag}" for tag in tags}


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
    campaign = load_campaign(campaign_copy)
    ids = {t.test_id for t in campaign.tests}
    ids.update(t.test_id for e in campaign.sweeps.values() for t in e.tests)
    ids.update(soundness_ids(campaign_copy))
    named = {"campaign", "coverage", "tests", "analysis", "soundness"}
    assert {p.stem for p in campaign_copy.glob("*.json")} == named
    assert sorted(logged_ids(campaign_copy)) == sorted(ids)
    # the report run renders from memory equals one rendered from the files
    report = (campaign_copy / "report.txt").read_bytes()
    assert cli.main(["report", "--campaign", str(campaign_copy)]) == 0
    assert (campaign_copy / "report.txt").read_bytes() == report


class Killed(BaseException):
    """Stands for a signal that ends the process mid-run."""


def test_a_killed_rerun_leaves_a_campaign_that_commands_refuse(campaign_copy, monkeypatch, capsys):
    save = cli.save_result
    saved = []

    def killed_after_50(*args):
        if len(saved) == 50:
            raise Killed
        saved.append(args[1].test_id)
        save(*args)

    monkeypatch.setattr(cli, "save_result", killed_after_50)
    args = list(CAMPAIGN_ARGS)
    args[args.index("--seed") + 1] = "7"
    with pytest.raises(Killed):
        cli.main(args + ["--out", str(campaign_copy)])
    assert logged_ids(campaign_copy) == saved
    meta = read_json(campaign_copy / "campaign.json")
    assert meta["status"] == "running" and meta["generator"]["master_seed"] == 7
    capsys.readouterr()
    for command in (["report"], ["analyze"], ["focus"], ["replay", "--test-id", "t00003"]):
        assert cli.main([*command, "--campaign", str(campaign_copy)]) == 2
        assert "is running: the run writing it has not finished" in capsys.readouterr().err
    # a rerun that finishes makes it a campaign again
    monkeypatch.setattr(cli, "save_result", save)
    assert cli.main(args + ["--out", str(campaign_copy)]) == 0
    assert cli.main(["replay", "--campaign", str(campaign_copy), "--test-id", "t00003"]) == 0


def test_rerun_removes_temp_files_a_killed_writer_left(campaign_copy):
    stray = [campaign_copy / ".t00001.json.4242.tmp", campaign_copy / ".report.txt.4242.tmp"]
    for path in stray:
        path.write_text("half written")
    assert cli.main(CAMPAIGN_ARGS + ["--out", str(campaign_copy)]) == 0
    assert not [p for p in stray if p.exists()]
    assert not list(campaign_copy.glob(".*.tmp"))


def test_rerun_replaces_a_campaign_of_another_layout(campaign_dir, campaign_copy, capsys):
    # run never loads the campaign it replaces, so an earlier layout, with
    # a per-test result file, is cleared like any other
    set_layout(None)(campaign_copy)
    write_json(campaign_copy / "t00001.json", {"test": {}, "profile": {}})
    assert cli.main(CAMPAIGN_ARGS + ["--out", str(campaign_copy)]) == 0
    assert without_manifest(campaign_copy) == without_manifest(campaign_dir)
    assert read_json(campaign_copy / "campaign.json")["layout"] == LAYOUT


def no_pair_spec(root) -> dict:
    """A spec whose constraints admit no (mode, state) pair."""
    raw = small_spec_raw()
    raw["CONSTRAINTS"]["REQUIRES_PX4_MODE"] = {}
    write_json(root / "no_pairs.json", raw)
    return {"--spec": str(root / "no_pairs.json")}


@pytest.mark.parametrize(
    "inputs, error",
    [
        (lambda root: {"--mission": "mission_c"},
         "mission 'Flight plan C' is not in the spec's MISSION_CONTEXT ['Flight plan A']"),
        (no_pair_spec, "constraints admit no (mode, state) pair"),
    ],
    ids=["unlisted_mission", "no_pairs"],
)
def test_a_rerun_that_generates_nothing_changes_nothing(
    campaign_copy, tmp_path, capsys, inputs, error
):
    # the tests are generated before --out is claimed, so a stored
    # campaign keeps every file, and stays one the other commands load
    before = campaign_files(campaign_copy)
    args = list(CAMPAIGN_ARGS)
    for option, value in inputs(tmp_path).items():
        args[args.index(option) + 1] = value
    assert cli.main(args + ["--out", str(campaign_copy)]) == 2
    assert error in capsys.readouterr().err
    assert campaign_files(campaign_copy) == before
    assert cli.main(["report", "--campaign", str(campaign_copy)]) == 0


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


def _bundled_doc(name: str) -> dict:
    return json.loads(cli._bundled(name).read_text())


def _edited(doc: dict, key: str, index, value) -> dict:
    """doc with doc[key] set to value, or doc[key][index] when index is not None."""
    doc = json.loads(json.dumps(doc))
    if index is None:
        doc[key] = value
    else:
        doc[key][index] = value
    return doc


@pytest.mark.parametrize(
    "option, doc, named",
    [
        # each of these stopped `run` with a traceback (exit 1)
        ("--mission", _edited(_bundled_doc("mission_a"), "waypoints", 0, ["a", 1, 2]),
         "waypoints[0] must be [x, y, z], 3 numbers, got ['a', 1, 2]"),
        ("--mission", _edited(_bundled_doc("mission_c"), "geofence_polygon", 1, [None, 0]),
         "geofence_polygon[1] must be [x, y], 2 numbers, got [None, 0]"),
        ("--config", _edited(_bundled_doc("sut_default"), "latency_window_ms", None, 5),
         "latency_window_ms must be [lo, hi], two numbers of ms, got 5"),
        ("--config", _edited(_bundled_doc("sut_default"), "seeded_faults", None, [[1]]),
         "seeded_faults must be a list of fault ids such as \"F2\", got [[1]]"),
        ("--config", _edited(_bundled_doc("sut_default"), "gps_degrade_level", None, ["high"]),
         "gps_degrade_level: unknown sensitivity level ['high']"),
    ],
    ids=["waypoint", "fence_vertex", "latency_window", "seeded_faults", "degrade_level"],
)
def test_a_malformed_mission_or_config_exits_two_naming_the_file_and_key(
    tmp_path, capsys, option, doc, named
):
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(doc))
    inputs = {"--mission": "mission_a", "--config": "sut_default", option: str(path)}
    out = tmp_path / "c"
    args = ["run", "--spec", "fspec1", "--latency-window", "200", "600", "--repetitions", "1",
            "--runs-per-cell", "1", "--no-soundness", "--out", str(out)]
    assert cli.main(args + [a for pair in inputs.items() for a in pair]) == 2
    assert capsys.readouterr().err == f"error: {path}: {named}\n"
    assert not out.exists()


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


def test_the_master_seed_comes_from_the_seed_option_alone(tmp_path, monkeypatch, capsys):
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
    args = [
        "run",
        "--spec", str(spec_path),
        "--mission", "mission_a",
        "--latency-window", "50", "150",
        "--repetitions", "1",
    ]
    rc = cli.main(args + ["--seed", "5", "--out", str(out)])
    assert rc == 0
    printed = capsys.readouterr().out
    assert "no failures: skipping clustering" in printed
    meta = read_json(out / "campaign.json")
    assert meta["generator"]["master_seed"] == 5
    assert meta["verdict_counts"] == {"SUCCESS": 1}
    assert not (out / "analysis.json").exists()
    # the report still renders without clusters or tables
    assert (out / "report.txt").read_text().startswith("campaign report\n")
    # no environment variable sets it: without --seed it is 0
    monkeypatch.setenv("STATEFUZZ_SEED", "5")
    assert cli.main(args + ["--out", str(tmp_path / "d")]) == 0
    assert read_json(tmp_path / "d" / "campaign.json")["generator"]["master_seed"] == 0


def test_the_report_heads_the_seeded_faults_sorted(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({**_bundled_doc("sut_default"), "seeded_faults": ["F5", "F2"]}))
    out = tmp_path / "c"
    assert cli.main(["run", "--spec", "fspec1", "--mission", "mission_a", "--config", str(config),
                     "--latency-window", "200", "600", "--repetitions", "1",
                     "--runs-per-cell", "1", "--no-soundness", "--out", str(out)]) == 0
    written = (out / "report.txt").read_text()
    assert "\nseeded faults:  F2, F5\n" in written
    capsys.readouterr()
    assert cli.main(["report", "--campaign", str(out)]) == 0
    assert capsys.readouterr().out == written
