"""End-to-end acceptance checks, one test per numbered criterion.

These run whole campaigns through the public pipeline (mostly via the
CLI) and pin the externally promised behavior: the F2 truth-table
signature, cut-set recovery, multi-fault discrimination, the oracle
v0 -> v1 false-positive workflow, minimization equivalence against a
brute-force reference, clustering properties, scale, and determinism.
"""

import json
import random
import time

import numpy as np
import pytest

from statefuzz import cli
from statefuzz.analysis import kmeans, sweep_k
from statefuzz.cutset import table_from_results
from statefuzz.executor import run_campaign
from statefuzz.fuzzspec import parse_fuzz_spec, parse_mission
from statefuzz.oracle import classify, default_tree
from statefuzz.storage import iter_results, load_campaign, read_json
from statefuzz.sutmodel import SutConfig
from statefuzz.testgen import focused_generate

from conftest import MISSION_A_RAW, small_spec_raw
from helpers import make_case
from reference import brute_minimize, exhaustive_best_wcss, random_table
from statefuzz.cutset import minimize


def band_rate(table, band):
    rows = [r for r in table.rows if r.value_of("delay_band") == band]
    valid = sum(r.valid for r in rows)
    failures = sum(r.failures for r in rows)
    return 100.0 * failures / valid


@pytest.fixture(scope="module")
def f2_band_table():
    """Sixty F2 takeoff runs across wide delay bands, shaped into a table.

    The short band ends below the mode-switch window and the long band
    starts above it, so only the medium band races the switch.
    """
    raw = small_spec_raw()
    raw["ENVIRONMENT"]["transition_delay"]["bands"] = {
        "short": {"min": 50, "max": 1000},
        "medium": {"min": 1000, "max": 5000},
        "long": {"min": 5000, "max": 10000},
    }
    spec = parse_fuzz_spec(raw, spec_id="fspec1-wide")
    mission = parse_mission(dict(MISSION_A_RAW))
    config = SutConfig(seeded_faults=("F2",))  # default switch window 1500-4500 ms
    base = make_case(band=("short", 50.0, 1000.0))
    tests = focused_generate(base, ["delay_band"], 20, spec, master_seed=0)
    assert len(tests) == 60

    t0 = time.monotonic()
    profiles = run_campaign(tests, mission, config)
    tree = default_tree("v1")
    triples = [(t, p, classify(t, p, tree)) for t, p in zip(tests, profiles)]
    table = table_from_results(["delay_band"], triples)
    return table, time.monotonic() - t0


def test_criterion_1_f2_band_failure_rates(f2_band_table):
    table, elapsed = f2_band_table
    assert band_rate(table, "short") == 100.0
    assert band_rate(table, "long") == 0.0
    medium = band_rate(table, "medium")
    assert 0.0 < medium < 100.0
    assert elapsed < 30.0


def test_criterion_2_f2_medium_band_mode_split(f2_band_table):
    table, elapsed = f2_band_table
    split = {
        r.observed_mode: r
        for r in table.rows
        if r.value_of("delay_band") == "medium" and r.split
    }
    assert set(split) == {"STABILIZED", "OFFBOARD"}
    assert split["STABILIZED"].failure_rate == 100.0
    assert split["OFFBOARD"].failure_rate == 0.0
    assert elapsed < 30.0


@pytest.fixture(scope="module")
def f2_campaign_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("accept-f2")
    rc = cli.main(
        [
            "run",
            "--spec", "fspec1",
            "--mission", "mission_a",
            "--fault", "F2",
            "--latency-window", "200", "600",
            "--repetitions", "20",
            "--parallelism", "4",
            "--seed", "0",
            "--out", str(root),
        ]
    )
    assert rc == 0
    return root


def test_criterion_3_single_cut_set_recovery(f2_campaign_dir):
    combined = read_json(f2_campaign_dir / "faulttrees" / "combined.json")
    assert len(combined["cut_sets"]) == 1
    literals = {(l["column"], l["value"]) for l in combined["cut_sets"][0]["literals"]}
    assert literals == {
        ("app_state", "TAKEOFF"),
        ("mode_at_injection", "STABILIZED"),
        ("action", "POSCTL"),
    }


@pytest.fixture(scope="module")
def multi_fault_dir(tmp_path_factory):
    """F1 + F2 + F5 seeded over a spec whose actions can trip all three."""
    raw = small_spec_raw()
    raw["RC_INPUT_EVENTS"] = ["POSCTL", "AUTO.LAND", "AUTO.RTL"]
    raw["CONSTRAINTS"]["REQUIRES_PX4_MODE"] = {"OFFBOARD": ["TAKEOFF", "HOVERING"]}
    spec_path = tmp_path_factory.mktemp("accept-spec") / "three_fault_spec.json"
    spec_path.write_text(json.dumps(raw))
    root = tmp_path_factory.mktemp("accept-multi")
    rc = cli.main(
        [
            "run",
            "--spec", str(spec_path),
            "--mission", "mission_a",
            "--fault", "F1", "--fault", "F2", "--fault", "F5",
            "--latency-window", "200", "600",
            "--repetitions", "10",
            "--parallelism", "4",
            "--seed", "0",
            "--out", str(root),
        ]
    )
    assert rc == 0
    return root


def test_criterion_4_multi_fault_discrimination(multi_fault_dir):
    analysis = read_json(multi_fault_dir / "analysis.json")
    assert analysis["k"] >= 3

    combined = read_json(multi_fault_dir / "faulttrees" / "combined.json")
    found = {
        frozenset((l["column"], l["value"]) for l in cs["literals"])
        for cs in combined["cut_sets"]
    }
    assert frozenset({("app_state", "HOVERING"), ("action", "AUTO.LAND")}) in found
    assert frozenset({("app_state", "TAKEOFF"), ("action", "AUTO.RTL")}) in found
    assert (
        frozenset(
            {
                ("app_state", "TAKEOFF"),
                ("action", "POSCTL"),
                ("mode_at_injection", "STABILIZED"),
            }
        )
        in found
    )

    soundness = read_json(multi_fault_dir / "soundness.json")
    assert soundness
    assert all(doc["sound"] for doc in soundness)
    checked = {
        frozenset((l["column"], l["value"]) for l in doc["cut_set"]["literals"])
        for doc in soundness
    }
    assert found <= checked


def test_soundness_trials_of_one_scope_are_distinct_stored_tests(multi_fault_dir, capsys):
    checks = read_json(multi_fault_dir / "soundness.json")
    scope = {"column": "app_state", "value": "TAKEOFF"}
    takeoff = [doc for doc in checks if scope in doc["cut_set"]["literals"]]
    assert len(takeoff) >= 2
    trials = load_campaign(multi_fault_dir).soundness
    ids = [t.test_id for doc in takeoff for t in trials[doc["tag"]].tests]
    assert len(set(ids)) == len(ids) == 3 * len(takeoff)
    stored = dict(iter_results(multi_fault_dir))
    assert all(i in stored for i in ids)
    # flown through the run's pool, each trial still replays
    assert cli.main(["replay", "--campaign", str(multi_fault_dir), "--test-id", ids[-1]]) == 0
    assert capsys.readouterr().out.startswith(f"replay OK: {ids[-1]} ->")


def test_a_context_sweep_states_a_fault_by_its_mode(tmp_path):
    """F3 (OFFBOARD while in mode LAND or RTL) fails in LANDING and in
    DISARMING. A sweep of the context axis around a failing DISARMING test
    tables both states at once, so the minimizer can state F3 by its mode."""
    raw = small_spec_raw()
    raw["RC_INPUT_EVENTS"] = ["POSCTL", "AUTO.LAND", "AUTO.RTL", "STABILIZED", "OFFBOARD"]
    spec_path = tmp_path / "five_fault_spec.json"
    spec_path.write_text(json.dumps(raw))
    root = tmp_path / "campaign"
    faults = [arg for fault in ("F1", "F2", "F3", "F5", "F8") for arg in ("--fault", fault)]
    rc = cli.main(
        [
            "run",
            "--spec", str(spec_path),
            "--mission", "mission_a",
            *faults,
            "--latency-window", "200", "600",
            "--repetitions", "3",
            "--runs-per-cell", "1",
            "--no-soundness",
            "--seed", "0",
            "--out", str(root),
        ]
    )
    assert rc == 0
    campaign = load_campaign(root)
    base = campaign.find_test("t00216")
    assert (base.app_state.value, base.action) == ("DISARMING", "OFFBOARD")
    assert campaign.verdicts[base.test_id].verdict == "FAILURE"
    rc = cli.main(
        [
            "focus",
            "--campaign", str(root),
            "--test-id", base.test_id,
            "--axes", "app_state,action,delay_band",
            "--runs-per-cell", "2",
            "--no-soundness",
        ]
    )
    assert rc == 0
    combined = read_json(root / "faulttrees" / "combined.json")
    found = {
        frozenset((l["column"], l["value"]) for l in cs["literals"])
        for cs in combined["cut_sets"]
    }
    assert frozenset({("action", "OFFBOARD"), ("mode_at_injection", "LAND")}) in found
    # the context sweep's {POSCTL, STABILIZED} absorbs the TAKEOFF table's
    # {TAKEOFF, POSCTL, STABILIZED}: the tree keeps minimal cut sets only
    assert frozenset({("action", "POSCTL"), ("mode_at_injection", "STABILIZED")}) in found
    assert not any(a < b for a in found for b in found)


def test_criterion_5_oracle_v1_clears_v0_false_positives(tmp_path, capsys):
    raw = small_spec_raw()
    raw["RC_INPUT_EVENTS"] = ["AUTO.LOITER", "THROTTLE_TOGGLED"]
    raw["CONSTRAINTS"]["REQUIRES_PX4_MODE"] = {"OFFBOARD": ["FLYING_TO_WAYPOINT"]}
    spec_path = tmp_path / "loiter_spec.json"
    spec_path.write_text(json.dumps(raw))
    root = tmp_path / "campaign"
    rc = cli.main(
        [
            "run",
            "--spec", str(spec_path),
            "--mission", "mission_a",
            "--latency-window", "200", "600",
            "--oracle", "v0",
            "--repetitions", "3",
            "--runs-per-cell", "2",
            "--no-soundness",
            "--seed", "0",
            "--out", str(root),
        ]
    )
    assert rc == 0
    capsys.readouterr()

    meta = read_json(root / "campaign.json")
    assert meta["verdict_counts"] == {"FAILURE": 18}  # healthy vehicle, no faults
    by_action = {"AUTO.LOITER": 0, "THROTTLE_TOGGLED": 0}
    campaign = load_campaign(root)
    for test in campaign.tests:
        verdict = campaign.verdicts[test.test_id]
        assert verdict.verdict == "FAILURE"
        assert verdict.reason == "unexpected-mode"
        by_action[test.action] += 1
    assert by_action["AUTO.LOITER"] == 9 and by_action["THROTTLE_TOGGLED"] == 9

    # same stored profiles, corrected oracle, no re-execution
    assert cli.main(["analyze", "--campaign", str(root), "--oracle", "v1"]) == 0
    out = capsys.readouterr().out
    assert "re-judged 18 stored profiles under oracle v1: SUCCESS=18" in out
    assert "no failures in this campaign; nothing to cluster" in out


def test_criterion_6_minimization_matches_brute_force():
    t0 = time.monotonic()
    for seed in range(200):
        table = random_table(random.Random(seed))
        assert minimize(table) == brute_minimize(table)
    assert time.monotonic() - t0 < 60.0


def test_criterion_7_clustering_properties(f2_campaign_dir, multi_fault_dir):
    # WCSS is monotone non-increasing on every stored campaign's failures
    for root in (f2_campaign_dir, multi_fault_dir):
        curve = [w for _k, w in read_json(root / "analysis.json")["wcss_curve"]]
        assert all(a >= b - 1e-9 for a, b in zip(curve, curve[1:]))
    rng = np.random.default_rng(0)
    for _ in range(3):
        X = rng.random((30, 5))
        curve = [m.wcss for m in sweep_k(X, 10, seed=1, restarts=5)]
        assert len(curve) == 10
        assert all(a >= b - 1e-9 for a, b in zip(curve, curve[1:]))

    # best-of-50 equals the exhaustive-partition optimum on small inputs
    for trial in range(5):
        n = int(rng.integers(6, 13))
        d = int(rng.integers(2, 5))
        X = rng.normal(size=(n, d))
        for k in (1, 2, 3):
            model = kmeans(X, k, seed=trial, restarts=50)
            assert model.wcss == pytest.approx(exhaustive_best_wcss(X, k), abs=1e-9)


def test_criterion_8_scale(tmp_path):
    t0 = time.monotonic()
    rc = cli.main(
        [
            "run",
            "--spec", "fspec1",
            "--mission", "mission_a",
            "--fault", "F2",
            "--latency-window", "200", "600",
            "--repetitions", "80",
            "--parallelism", "8",
            "--seed", "0",
            "--out", str(tmp_path / "big"),
        ]
    )
    elapsed = time.monotonic() - t0
    assert rc == 0
    counts = read_json(tmp_path / "big" / "campaign.json")["verdict_counts"]
    assert sum(counts.values()) == 3600
    assert elapsed < 300.0


def test_criterion_9_same_seed_campaigns_are_byte_identical(tmp_path):
    args = [
        "run",
        "--spec", "fspec1",
        "--mission", "mission_a",
        "--fault", "F2",
        "--latency-window", "200", "600",
        "--repetitions", "2",
        "--runs-per-cell", "4",
        "--seed", "0",
    ]
    a, b = tmp_path / "a", tmp_path / "b"
    assert cli.main(args + ["--parallelism", "1", "--out", str(a)]) == 0
    assert cli.main(args + ["--parallelism", "2", "--out", str(b)]) == 0

    files_a = {p.relative_to(a) for p in a.rglob("*") if p.is_file()}
    files_b = {p.relative_to(b) for p in b.rglob("*") if p.is_file()}
    assert files_a == files_b
    compared = 0
    for rel in sorted(files_a):
        if rel.name == "campaign.json":
            continue  # carries wall time, timestamp and the parallelism flag
        assert (a / rel).read_bytes() == (b / rel).read_bytes(), rel
        compared += 1
    # each line of the equal results logs is one flown test's profile
    compared += len((a / "results.jsonl").read_text().splitlines())
    assert compared > 100  # result lines, tables, trees, report, manifests
