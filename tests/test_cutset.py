"""Truth tables, Boolean minimization, cut sets, fault trees."""

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from statefuzz.cutset import (
    MODE_ABSENT,
    MODE_COLUMN,
    MODE_VARIES,
    CutSet,
    TableRow,
    TruthTable,
    _delay_for,
    build_fault_tree,
    build_truth_table,
    cut_sets_for_table,
    literal_category,
    merge_cut_sets,
    minimize,
    soundness_check,
    soundness_trials,
    table_from_results,
)
from statefuzz.errors import InvalidOnly
from statefuzz.executor import Executor
from statefuzz.fuzzspec import DelayBand, parse_fuzz_spec
from statefuzz.oracle import Verdict, classify, default_tree
from statefuzz.sutmodel import AppState, SutConfig

from conftest import small_spec_raw
from helpers import make_case, make_profile
from reference import brute_minimize, random_table

SHORT = ("short", 50.0, 200.0)
MEDIUM = ("medium", 200.0, 600.0)
LONG = ("long", 600.0, 1200.0)

_ids = iter(range(10_000))


def triple(action, band, verdict, *, mode="OFFBOARD", state=AppState.TAKEOFF):
    test = make_case(app_state=state, action=action, band=band, test_id=f"x{next(_ids):04d}")
    profile = make_profile(test, mode_at_injection=mode)
    reason = "mode-change-ignored" if verdict == "FAILURE" else "ok"
    return test, profile, Verdict(verdict, reason)


# ---------------------------------------------------------------------------
# table shaping
# ---------------------------------------------------------------------------


def test_uniform_cells_become_single_rows():
    items = [
        triple("ALTCTL", SHORT, "SUCCESS"),
        triple("ALTCTL", SHORT, "SUCCESS"),
        triple("POSCTL", SHORT, "FAILURE", mode="STABILIZED"),
        triple("POSCTL", SHORT, "FAILURE", mode="STABILIZED"),
    ]
    table = table_from_results(["action", "delay_band"], items)
    assert table.scope == "TAKEOFF"
    assert table.axes == ("action", "delay_band")
    assert len(table.rows) == 2  # sorted by cell key: ALTCTL first
    ok, bad = table.rows
    assert ok.value_of("action") == "ALTCTL"
    assert ok.failure_rate == 0.0 and not ok.always_fails
    assert ok.observed_mode == "OFFBOARD"
    assert bad.value_of("action") == "POSCTL"
    assert bad.failure_rate == 100.0 and bad.always_fails
    assert not bad.split and not bad.residual
    assert table.unreachable == ()


def test_mixed_cell_splits_by_observed_mode():
    items = [
        triple("POSCTL", MEDIUM, "FAILURE", mode="STABILIZED"),
        triple("POSCTL", MEDIUM, "FAILURE", mode="STABILIZED"),
        triple("POSCTL", MEDIUM, "SUCCESS", mode="OFFBOARD"),
    ]
    table = table_from_results(["action", "delay_band"], items)
    assert len(table.rows) == 2
    offboard, stabilized = table.rows  # split rows come out sorted by mode
    assert offboard.observed_mode == "OFFBOARD"
    assert offboard.split and offboard.failures == 0 and offboard.valid == 1
    assert stabilized.observed_mode == "STABILIZED"
    assert stabilized.split and stabilized.always_fails and stabilized.valid == 2
    assert offboard.values == stabilized.values
    assert not any(row.residual for row in table.rows)


def test_impure_mixed_cell_is_residual():
    items = [
        triple("POSCTL", MEDIUM, "FAILURE"),
        triple("POSCTL", MEDIUM, "SUCCESS"),
    ]
    table = table_from_results(["action", "delay_band"], items)
    (row,) = table.rows
    assert row.residual and not row.split
    assert row.observed_mode == "OFFBOARD"  # same mode throughout, still impure
    assert row.failures == 1 and row.valid == 2


def test_impure_cell_with_varying_modes_shows_a_star():
    items = [
        triple("POSCTL", MEDIUM, "FAILURE", mode="STABILIZED"),
        triple("POSCTL", MEDIUM, "SUCCESS", mode="STABILIZED"),
        triple("POSCTL", MEDIUM, "FAILURE", mode="OFFBOARD"),
    ]
    table = table_from_results(["action", "delay_band"], items)
    (row,) = table.rows
    assert row.residual
    assert row.observed_mode == MODE_VARIES


def test_invalid_runs_mark_cells_unreachable():
    items = [
        triple("ALTCTL", SHORT, "SUCCESS"),
        triple("POSCTL", LONG, "INVALID"),
        triple("POSCTL", LONG, "INVALID"),
    ]
    table = table_from_results(["action", "delay_band"], items)
    assert len(table.rows) == 1
    assert table.unreachable == (
        (("action", "POSCTL"), ("delay_band", "long")),
    )


def test_invalid_runs_inside_a_live_cell_only_shrink_valid():
    items = [
        triple("ALTCTL", SHORT, "SUCCESS"),
        triple("ALTCTL", SHORT, "INVALID"),
    ]
    table = table_from_results(["action", "delay_band"], items)
    (row,) = table.rows
    assert row.runs == 2 and row.valid == 1 and row.failures == 0


def test_all_invalid_raises():
    items = [triple("ALTCTL", SHORT, "INVALID")]
    with pytest.raises(InvalidOnly, match="TAKEOFF"):
        table_from_results(["action", "delay_band"], items)


def test_results_of_several_contexts_need_the_context_column():
    items = [
        triple("ALTCTL", SHORT, "SUCCESS"),
        triple("ALTCTL", SHORT, "FAILURE", state=AppState.HOVERING),
    ]
    with pytest.raises(ValueError, match=r"contexts TAKEOFF\+HOVERING need the app_state axis"):
        table_from_results(["action", "delay_band"], items)
    table = table_from_results(["app_state", "action", "delay_band"], items)
    assert table.scope == "TAKEOFF+HOVERING"
    assert [(r.value_of("app_state"), r.failures) for r in table.rows] == [
        ("HOVERING", 1), ("TAKEOFF", 0),
    ]


def test_a_table_over_two_contexts_names_the_context_only_where_rows_need_it():
    # POSCTL fails in both contexts, AUTO.LAND in HOVERING alone, AUTO.RTL in neither
    outcomes = {"POSCTL": ("FAILURE", "FAILURE"), "AUTO.LAND": ("SUCCESS", "FAILURE"),
                "AUTO.RTL": ("SUCCESS", "SUCCESS")}
    items = [
        triple(action, SHORT, verdict, state=state)
        for action, verdicts in outcomes.items()
        for state, verdict in zip((AppState.TAKEOFF, AppState.HOVERING), verdicts)
    ]
    table = table_from_results(["app_state", "action"], items)
    assert cut_sets_for_table(table, source="two") == [
        CutSet(literals=(("action", "POSCTL"),), sources=("two",)),
        CutSet(literals=(("app_state", "HOVERING"), ("action", "AUTO.LAND")), sources=("two",)),
    ]


def test_no_injection_rows_have_no_mode():
    items = [triple("NONE", SHORT, "SUCCESS")]
    table = table_from_results(["action", "delay_band"], items)
    assert table.rows[0].observed_mode == MODE_ABSENT
    assert not table.has_mode_column()


def test_value_of_resolves_the_mode_column():
    row = TableRow(
        values=(("action", "POSCTL"),),
        observed_mode="STABILIZED",
        runs=1,
        valid=1,
        failures=1,
        split=False,
        residual=False,
        test_ids=("t",),
    )
    assert row.value_of(MODE_COLUMN) == "STABILIZED"
    assert row.value_of("action") == "POSCTL"
    with pytest.raises(KeyError):
        row.value_of("altitude")


def test_table_dict_round_trip():
    items = [
        triple("ALTCTL", SHORT, "SUCCESS"),
        triple("POSCTL", SHORT, "FAILURE"),
        triple("STABILIZED", LONG, "INVALID"),
    ]
    table = table_from_results(["action", "delay_band"], items)
    doc = table.to_dict()
    assert json.loads(json.dumps(doc)) == doc
    assert (doc["scope"], doc["axes"]) == ("TAKEOFF", ["action", "delay_band"])
    assert [(r["values"], r["failure_rate"]) for r in doc["rows"]] == [
        ({"action": "ALTCTL", "delay_band": "short"}, 0.0),
        ({"action": "POSCTL", "delay_band": "short"}, 100.0),
    ]
    assert doc["unreachable"] == [{"action": "STABILIZED", "delay_band": "long"}]


def test_build_truth_table_orders_axes_canonically(spec):
    rep = make_case(band=SHORT)

    def runner(tests):
        return [(t, make_profile(t), Verdict("SUCCESS", "ok")) for t in tests]

    table = build_truth_table(rep, ["delay_band", "action"], 1, runner, spec)
    assert table.axes == ("action", "delay_band")
    assert len(table.rows) == 9  # 3 actions x 3 bands
    assert all(r.failures == 0 for r in table.rows)


# ---------------------------------------------------------------------------
# minimization
# ---------------------------------------------------------------------------


def walkthrough_table():
    """F2-shaped table: POSCTL fails at short delays and in the stabilized
    half of the split medium cell; everything else passes."""
    items = []
    for action in ("ALTCTL", "POSCTL", "STABILIZED"):
        bad = action == "POSCTL"
        items += [
            triple(action, SHORT, "FAILURE" if bad else "SUCCESS", mode="STABILIZED"),
            triple(action, SHORT, "FAILURE" if bad else "SUCCESS", mode="STABILIZED"),
            triple(action, MEDIUM, "FAILURE" if bad else "SUCCESS", mode="STABILIZED"),
            triple(action, MEDIUM, "SUCCESS", mode="OFFBOARD"),
            triple(action, LONG, "SUCCESS", mode="OFFBOARD"),
            triple(action, LONG, "SUCCESS", mode="OFFBOARD"),
        ]
    return table_from_results(["action", "delay_band"], items)


def test_minimize_prefers_the_mode_explanation():
    # (POSCTL AND short) is a real sufficient conjunction, but everything it
    # covers is already covered by (POSCTL AND STABILIZED), which also owns
    # the failing half of the split medium cell.
    table = walkthrough_table()
    assert minimize(table) == [
        (("action", "POSCTL"), (MODE_COLUMN, "STABILIZED")),
    ]


def test_minimize_when_every_row_fails():
    items = [triple("POSCTL", SHORT, "FAILURE"), triple("ALTCTL", SHORT, "FAILURE")]
    table = table_from_results(["action", "delay_band"], items)
    assert minimize(table) == [()]


def test_minimize_when_nothing_fails():
    items = [triple("POSCTL", SHORT, "SUCCESS")]
    table = table_from_results(["action", "delay_band"], items)
    assert minimize(table) == []


def test_minimize_drops_equal_coverage_duplicates():
    # one failing row, two single-literal explanations with identical
    # coverage: only the lexicographically first survives
    rows = (
        TableRow((("p0", "a"), ("p1", "x")), MODE_ABSENT, 1, 1, 1, False, False, ("t0",)),
        TableRow((("p0", "b"), ("p1", "y")), MODE_ABSENT, 1, 1, 0, False, False, ("t1",)),
    )
    table = TruthTable(scope="TAKEOFF", axes=("p0", "p1"), rows=rows)
    assert minimize(table) == [(("p0", "a"),)]


def test_minimize_keeps_incomparable_explanations():
    rows = (
        TableRow((("p0", "a"), ("p1", "x")), MODE_ABSENT, 1, 1, 1, False, False, ("t0",)),
        TableRow((("p0", "a"), ("p1", "y")), MODE_ABSENT, 1, 1, 1, False, False, ("t1",)),
        TableRow((("p0", "b"), ("p1", "x")), MODE_ABSENT, 1, 1, 1, False, False, ("t2",)),
        TableRow((("p0", "b"), ("p1", "y")), MODE_ABSENT, 1, 1, 0, False, False, ("t3",)),
    )
    table = TruthTable(scope="TAKEOFF", axes=("p0", "p1"), rows=rows)
    assert minimize(table) == [(("p0", "a"),), (("p1", "x"),)]


@pytest.mark.parametrize("seed", range(40))
def test_minimize_matches_brute_force(seed):
    table = random_table(random.Random(seed))
    assert minimize(table) == brute_minimize(table)


def _matches(row, conj):
    return all(
        (row.observed_mode == v) if a == MODE_COLUMN else (row.value_of(a) == v)
        for a, v in conj
    )


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_minimize_output_is_sufficient_and_minimal(seed):
    table = random_table(random.Random(seed))
    out = minimize(table)
    assert out == sorted(set(out), key=lambda c: (len(c), c))
    for conj in out:
        covered = [r for r in table.rows if _matches(r, conj)]
        assert covered and all(r.always_fails for r in covered)
        for i in range(len(conj)):
            sub = conj[:i] + conj[i + 1 :]
            subcov = [r for r in table.rows if _matches(r, sub)]
            assert not subcov or not all(r.always_fails for r in subcov)


# ---------------------------------------------------------------------------
# cut sets
# ---------------------------------------------------------------------------


def test_cut_sets_carry_the_table_scope():
    sets = cut_sets_for_table(walkthrough_table(), source="F2")
    assert sets == [
        CutSet(
            literals=(
                ("app_state", "TAKEOFF"),
                ("action", "POSCTL"),
                (MODE_COLUMN, "STABILIZED"),
            ),
            sources=("F2",),
        )
    ]


def test_merge_cut_sets_dedups_and_merges_sources():
    a = CutSet(literals=(("app_state", "TAKEOFF"),), sources=("t00001",))
    b = CutSet(literals=(("app_state", "TAKEOFF"),), sources=("t00007",))
    c = CutSet(literals=(("app_state", "HOVERING"),), sources=("t00002",))
    merged = merge_cut_sets([[a, c], [b, c]])
    assert merged == [
        CutSet(literals=(("app_state", "TAKEOFF"),), sources=("t00001", "t00007")),
        CutSet(literals=(("app_state", "HOVERING"),), sources=("t00002",)),
    ]


def test_merge_cut_sets_keeps_only_minimal_sets():
    takeoff, posctl = ("app_state", "TAKEOFF"), ("action", "POSCTL")
    stabilized = (MODE_COLUMN, "STABILIZED")
    wide = CutSet(literals=(takeoff, posctl, stabilized), sources=("truthtable:s1",))
    narrow = CutSet(literals=(posctl, stabilized), sources=("truthtable:s2",))
    other = CutSet(literals=(takeoff, ("action", "AUTO.RTL")), sources=("truthtable:s1",))
    # {POSCTL, STABILIZED} absorbs its superset whichever table comes first
    for groups in ([[wide, other], [narrow]], [[narrow], [wide, other]]):
        merged = merge_cut_sets(groups)
        assert sorted(merged, key=lambda cs: cs.literals) == sorted(
            [narrow, other], key=lambda cs: cs.literals)


def test_cut_set_dict_form():
    cs = CutSet(literals=(("action", "POSCTL"),), sources=("t1",))
    assert cs.to_dict() == {
        "literals": [{"column": "action", "value": "POSCTL"}],
        "sources": ["t1"],
    }


# ---------------------------------------------------------------------------
# soundness re-execution
# ---------------------------------------------------------------------------


def test_delay_placement_honors_mode_literals(spec, narrow_config):
    # free placement lands mid-span; mode literals pull the delay to the
    # side of the switch window that realizes the observed mode
    bands = spec.environment.bands
    assert _delay_for(None, bands, narrow_config) == (DelayBand("long", 600.0, 1200.0), 625.0)
    assert _delay_for("STABILIZED", bands, narrow_config) == (
        DelayBand("short", 50.0, 200.0),
        125.0,
    )
    assert _delay_for("OFFBOARD", bands, narrow_config) == (
        DelayBand("long", 600.0, 1200.0),
        900.0,
    )
    assert _delay_for(None, [DelayBand("medium", 200.0, 600.0)], narrow_config) == (
        DelayBand("medium", 200.0, 600.0),
        400.0,
    )


def test_delay_placement_reports_unrealizable_combinations(spec, narrow_config):
    assert _delay_for("OFFBOARD", [DelayBand("short", 50.0, 200.0)], narrow_config) is None
    instant = SutConfig(latency_window_ms=(0.0, 600.0))
    assert _delay_for("STABILIZED", spec.environment.bands, instant) is None
    # so are literals that name no level of the spec, on any axis
    for column in ("app_state", "action", "delay_band", "wind"):
        literals = ((column, "bogus"),)
        assert soundness_trials(literals, spec, "Flight plan A", narrow_config)[1] is None


@pytest.mark.parametrize("literals,band", [
    ((), "short"),
    ((("app_state", "TAKEOFF"), ("action", "POSCTL")), "short"),
    ((("app_state", "TAKEOFF"), (MODE_COLUMN, "STABILIZED")), "short"),
    ((("app_state", "HOVERING"), (MODE_COLUMN, "OFFBOARD")), "long"),
    ((("delay_band", "long"), (MODE_COLUMN, "OFFBOARD")), "long"),
], ids=["free", "state_action", "stabilized", "offboard", "long_offboard"])
def test_every_trial_delay_lies_in_its_own_band(literals, band, narrow_config):
    # bands with gaps between them: the span's midpoint (625 ms, or 900 ms
    # under OFFBOARD) falls in a gap, so the delay comes from the first band
    # that meets the mode literal's window
    raw = small_spec_raw()
    raw["ENVIRONMENT"]["transition_delay"]["bands"] = {
        "short": {"min": 50, "max": 200},
        "mid": {"min": 300, "max": 400},
        "long": {"min": 1000, "max": 1200},
    }
    spec = parse_fuzz_spec(raw, spec_id="gaps")
    lo_w, hi_w = narrow_config.latency_window_ms
    mode = dict(literals).get(MODE_COLUMN)
    _tag, trials = soundness_trials(literals, spec, "Flight plan A", narrow_config)
    assert trials
    for trial in trials:
        assert trial.band_name == band
        assert trial.band_min_ms <= trial.delay_ms < trial.band_max_ms
        assert mode != "STABILIZED" or trial.delay_ms < lo_w
        assert mode != "OFFBOARD" or trial.delay_ms >= hi_w


F2_CUT_SET = CutSet(
    literals=(
        ("app_state", "TAKEOFF"),
        ("action", "POSCTL"),
        (MODE_COLUMN, "STABILIZED"),
    ),
    sources=("t00000",),
)


def flying_runner(mission, config):
    """Fly each test in process and judge it under the v1 tree, storing nothing."""
    ex, tree = Executor(mission, config), default_tree("v1")

    def runner(tests):
        return [(t, p, classify(t, p, tree)) for t in tests for p in [ex.execute(t)]]

    return runner


def check(cut_set, spec, mission, config, **kwargs):
    return soundness_check(
        cut_set, spec, mission, config, flying_runner(mission, config), **kwargs
    )


def test_soundness_confirms_a_real_cut_set(spec, mission_a):
    config = SutConfig(latency_window_ms=(200.0, 600.0), seeded_faults=("F2",))
    res = check(F2_CUT_SET, spec, mission_a, config)
    assert res.sound
    assert res.verdicts == ("FAILURE", "FAILURE", "FAILURE")
    assert res.note == ""


def test_soundness_rejects_on_a_healthy_vehicle(spec, mission_a, narrow_config):
    res = check(F2_CUT_SET, spec, mission_a, narrow_config)
    assert not res.sound
    assert set(res.verdicts) == {"SUCCESS"}


def test_soundness_flags_unrealizable_literals(spec, mission_a):
    config = SutConfig(latency_window_ms=(0.0, 600.0), seeded_faults=("F2",))
    res = check(F2_CUT_SET, spec, mission_a, config)
    assert not res.sound
    assert res.verdicts == ()
    assert res.note == "mode/band literals are unrealizable"
    assert res.tests == ()


def test_soundness_result_dict_shape(spec, mission_a):
    config = SutConfig(latency_window_ms=(200.0, 600.0), seeded_faults=("F2",))
    res = check(F2_CUT_SET, spec, mission_a, config)
    raw = res.to_dict()
    assert raw["sound"] is True
    assert raw["cut_set"]["literals"][0] == {"column": "app_state", "value": "TAKEOFF"}
    assert raw["verdicts"] == ["FAILURE"] * 3
    assert raw["note"] == ""
    assert [t.test_id for t in res.tests] == [f"s-{raw['tag']}-{i}" for i in range(3)]


def test_soundness_tags_differ_across_cut_sets_of_one_scope(spec, mission_a, narrow_config):
    other = CutSet(literals=(("app_state", "TAKEOFF"), ("action", "ALTCTL")))
    first = check(F2_CUT_SET, spec, mission_a, narrow_config)
    second = check(other, spec, mission_a, narrow_config)
    again = check(F2_CUT_SET, spec, mission_a, narrow_config, master_seed=1)
    assert len({first.tag, second.tag, again.tag}) == 3
    assert all(len(r.tag) == 8 for r in (first, second, again))
    ids = [t.test_id for r in (first, second) for t in r.tests]
    assert len(set(ids)) == 6


# ---------------------------------------------------------------------------
# fault trees
# ---------------------------------------------------------------------------


def test_literal_categories():
    assert literal_category("app_state") == ("state", "yellow")
    assert literal_category(MODE_COLUMN) == ("state", "yellow")
    assert literal_category("action") == ("action", "pink")
    assert literal_category("wind") == ("environment", "palegreen")
    assert literal_category("delay_band") == ("environment", "palegreen")


def test_fault_tree_dict_is_an_or_of_ands():
    tree = build_fault_tree("unresponsive vehicle", [F2_CUT_SET])
    raw = tree.to_dict()
    assert raw["hazard"] == "unresponsive vehicle"
    assert raw["gate"] == "OR"
    assert len(raw["cut_sets"]) == 1
    and_gate = raw["cut_sets"][0]
    assert and_gate["gate"] == "AND"
    assert [l["category"] for l in and_gate["literals"]] == ["state", "action", "state"]
    assert and_gate["sources"] == ["t00000"]


def test_single_cut_set_dot_skips_the_or_gate():
    dot = build_fault_tree("hazard", [F2_CUT_SET]).to_dot()
    assert "or0" not in dot
    assert "root -> and0;" in dot
    assert 'and0 [shape=invhouse, label="AND"];' in dot
    assert 'fillcolor=yellow, label="app_state = TAKEOFF"' in dot
    assert 'fillcolor=pink, label="action = POSCTL"' in dot
    assert dot.endswith("}\n")


def test_multi_cut_set_dot_routes_through_an_or_gate():
    other = CutSet(literals=(("app_state", "HOVERING"), ("action", "AUTO.LAND")))
    dot = build_fault_tree("hazard", [F2_CUT_SET, other]).to_dot()
    assert 'or0 [shape=invtriangle, label="OR"];' in dot
    assert "root -> or0;" in dot
    assert "or0 -> and0;" in dot and "or0 -> and1;" in dot


def test_dot_labels_are_escaped():
    cs = CutSet(literals=(("action", 'say "stop"'),))
    dot = build_fault_tree('haz "x"', [cs]).to_dot()
    assert 'label="haz \\"x\\""' in dot
    assert 'label="action = say \\"stop\\""' in dot
