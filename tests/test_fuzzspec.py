"""Spec-document and mission parsing."""

import json
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import statefuzz
from statefuzz.errors import (
    BandError,
    ConfigError,
    ConstraintError,
    GeometryError,
    SequenceError,
    VocabularyError,
)
from statefuzz.fuzzspec import (
    load_fuzz_spec,
    load_mission,
    parse_fuzz_spec,
    parse_mission,
    validate_coverage,
    validate_sut_config,
)
from statefuzz.sutmodel import AppState, AutopilotMode, SutConfig

from conftest import MISSION_A_RAW, MISSION_C_RAW, small_spec_raw

DATA_DIR = Path(statefuzz.__file__).parent / "data"


# ---------------------------------------------------------------------------
# spec documents
# ---------------------------------------------------------------------------


def test_parse_small_spec(spec):
    assert spec.spec_id == "fspec1"
    assert spec.modes == (AutopilotMode.OFFBOARD, AutopilotMode.LAND)
    assert [t.state for t in spec.states] == [
        AppState.TAKEOFF,
        AppState.FLYING_TO_WAYPOINT,
        AppState.HOVERING,
        AppState.LANDING,
        AppState.DISARMING,
    ]
    assert spec.actions == ("ALTCTL", "POSCTL", "STABILIZED")
    assert [b.name for b in spec.environment.bands] == ["short", "medium", "long"]
    assert spec.environment.delay_bounds() == (50.0, 1200.0)
    assert spec.mission_contexts == ("Flight plan A",)


def test_constraint_pairs_follow_declaration_order(spec):
    pairs = [(m.value, t.state.value) for m, t in spec.constraint_pairs()]
    assert pairs == [
        ("OFFBOARD", "TAKEOFF"),
        ("OFFBOARD", "FLYING_TO_WAYPOINT"),
        ("OFFBOARD", "HOVERING"),
        ("LAND", "LANDING"),
        ("LAND", "DISARMING"),
    ]


def test_star_marks_state_recurring_everywhere(spec):
    flying = next(t for t in spec.states if t.state is AppState.FLYING_TO_WAYPOINT)
    assert flying.recurring
    assert flying.label == "FLYING_TO_WAYPOINT*"
    others = [t for t in spec.states if t.state is not AppState.FLYING_TO_WAYPOINT]
    assert not any(t.recurring for t in others)


def test_star_in_state_list_propagates_to_constraints():
    raw = small_spec_raw()
    raw["FROM_APP_states"][2] = "HOVERING*"
    raw["CONSTRAINTS"]["REQUIRES_PX4_MODE"]["OFFBOARD"][2] = "HOVERING"
    spec = parse_fuzz_spec(raw, spec_id="s")
    targets = {t.state: t for _, t in spec.constraint_pairs()}
    assert targets[AppState.HOVERING].recurring


def test_environment_defaults():
    raw = small_spec_raw()
    for key in ("throttle", "geofence", "wind", "GPS", "COMPASS_INTERFERENCE"):
        del raw["ENVIRONMENT"][key]
    env = parse_fuzz_spec(raw, spec_id="s").environment
    assert env.throttle == ("mid",)
    assert env.geofence == ("none",)
    assert env.wind == ("none",)
    assert env.gps_noise == ("none",)
    assert env.compass_interference == ("none",)


def _drop(raw, key):
    del raw[key]
    return raw


def _add(raw, key, value):
    raw[key] = value
    return raw


@pytest.mark.parametrize(
    "mutate, exc",
    [
        (lambda r: _drop(r, "RC_INPUT_EVENTS"), VocabularyError),
        (lambda r: _add(r, "EXTRA", 1), VocabularyError),
        (lambda r: _add(r, "FROM_APP_states", ["TAKEOFF", "PRE_ARM"]), VocabularyError),
        (lambda r: _add(r, "FROM_APP_states", ["TAKEOFF", "TAKEOFF"]), VocabularyError),
        (lambda r: _add(r, "FROM_PX4_modes", ["OFFBOARD", "AUTO.LOITER"]), VocabularyError),
        (lambda r: _add(r, "RC_INPUT_EVENTS", []), VocabularyError),
        (
            lambda r: _add(r["ENVIRONMENT"]["transition_delay"], "bands", {}) and r,
            BandError,
        ),
        (
            lambda r: _add(
                r["ENVIRONMENT"]["transition_delay"]["bands"], "bad", {"min": 300, "max": 300}
            )
            and r,
            BandError,
        ),
        (
            lambda r: _add(
                r["ENVIRONMENT"]["transition_delay"]["bands"], "bad", {"min": -5, "max": 100}
            )
            and r,
            BandError,
        ),
        (lambda r: _add(r["ENVIRONMENT"], "wind", ["gale"]) and r, VocabularyError),
        (lambda r: _add(r["ENVIRONMENT"], "geofence", ["RETREAT"]) and r, VocabularyError),
        (
            lambda r: _add(r["CONSTRAINTS"]["REQUIRES_PX4_MODE"], "WARP", ["TAKEOFF"]) and r,
            ConstraintError,
        ),
        (
            lambda r: _add(r["CONSTRAINTS"]["REQUIRES_PX4_MODE"], "OFFBOARD", ["RETURNING"])
            and r,
            ConstraintError,
        ),
        (
            lambda r: _add(
                r["CONSTRAINTS"]["REQUIRES_PX4_MODE"], "OFFBOARD", ["TAKEOFF", "TAKEOFF"]
            )
            and r,
            VocabularyError,  # duplicate entries trip the shared list check
        ),
    ],
)
def test_malformed_spec_documents(mutate, exc):
    raw = mutate(small_spec_raw())
    with pytest.raises(exc):
        parse_fuzz_spec(raw, spec_id="bad")


def test_a_state_may_require_one_mode_only():
    """Two modes listing one state would make two context levels with one
    name; the spec is refused, naming the state and both modes."""
    raw = small_spec_raw()
    raw["CONSTRAINTS"]["REQUIRES_PX4_MODE"] = {"OFFBOARD": ["TAKEOFF"], "LAND": ["TAKEOFF*"]}
    with pytest.raises(ConstraintError, match="'TAKEOFF' under both OFFBOARD and LAND"):
        parse_fuzz_spec(raw, spec_id="bad")


def test_spec_round_trips_through_dict(spec):
    again = parse_fuzz_spec(spec.to_dict(), spec_id="renamed")
    assert again == spec  # spec_id does not participate in equality


band_dicts = st.dictionaries(
    st.text("abcdefgh", min_size=1, max_size=6),
    st.tuples(
        st.floats(min_value=0, max_value=5000, allow_nan=False),
        st.floats(min_value=1, max_value=5000, allow_nan=False),
    ).map(lambda t: {"min": min(t), "max": min(t) + max(t[1], 1.0)}),
    min_size=1,
    max_size=4,
)


@given(bands=band_dicts)
def test_band_bounds_cover_every_band(bands):
    raw = small_spec_raw()
    raw["ENVIRONMENT"]["transition_delay"]["bands"] = bands
    spec = parse_fuzz_spec(raw, spec_id="s")
    lo, hi = spec.environment.delay_bounds()
    assert lo == min(b["min"] for b in bands.values())
    assert hi == max(b["max"] for b in bands.values())
    for band in spec.environment.bands:
        assert lo <= band.min_ms < band.max_ms <= hi


def test_bundled_spec_loads():
    spec = load_fuzz_spec(DATA_DIR / "fspec1.json")
    assert spec.spec_id == "fspec1"
    assert len(spec.constraint_pairs()) >= 5
    validate_sut_config(SutConfig(latency_window_ms=(200.0, 600.0)), spec)


# ---------------------------------------------------------------------------
# missions
# ---------------------------------------------------------------------------


def test_parse_mission_derives_state_sequence(mission_a):
    assert mission_a.id == "Flight plan A"
    assert len(mission_a.waypoints) == 3
    assert [s.value for s in mission_a.expected_state_sequence] == [
        "TAKEOFF",
        "FLYING_TO_WAYPOINT",
        "FLYING_TO_WAYPOINT",
        "FLYING_TO_WAYPOINT",
        "HOVERING",
        "LANDING",
        "DISARMING",
    ]
    assert mission_a.geofence_polygon is None


def test_parse_mission_accepts_explicit_sequence():
    raw = dict(MISSION_A_RAW)
    raw["expected_state_sequence"] = [
        "TAKEOFF",
        "FLYING_TO_WAYPOINT",
        "FLYING_TO_WAYPOINT",
        "FLYING_TO_WAYPOINT",
        "HOVERING",
        "LANDING",
        "DISARMING",
    ]
    mission = parse_mission(raw)
    assert mission.expected_state_sequence == parse_mission(dict(MISSION_A_RAW)).expected_state_sequence


@pytest.mark.parametrize(
    "mutate, exc",
    [
        (lambda r: _add(r, "waypoints", []), SequenceError),
        (lambda r: _add(r, "waypoints", [[1, 2]]), GeometryError),
        (lambda r: _add(r, "waypoints", [[1, 2, 0]]), GeometryError),
        (lambda r: _add(r, "waypoints", [[1, 2, 10], [1, 2, 10]]), GeometryError),
        (lambda r: _add(r, "cruise_speed", 0), GeometryError),
        (lambda r: _add(r, "cruise_speed", "fast"), GeometryError),
        (lambda r: _add(r, "cruise_speed", True), GeometryError),
        # a coordinate that is not a finite number (JSON allows NaN)
        (lambda r: _add(r, "waypoints", [["a", 1, 2]]), GeometryError),
        (lambda r: _add(r, "waypoints", [[1, 2, float("nan")]]), GeometryError),
        (lambda r: _add(r, "waypoints", [[10**400, 2, 10]]), GeometryError),
        (lambda r: _add(r, "cruise_speed", 10**400), GeometryError),
        (lambda r: _add(r, "geofence_polygon", [[0, 0], [10**400, 0], [0, 1]]), GeometryError),
        (lambda r: _add(r, "geofence_polygon", [[0, 0], [1, "x"], [0, 1]]), GeometryError),
        (lambda r: _add(r, "geofence_polygon", [[0, 0], [1, {}], [0, 1]]), GeometryError),
        (lambda r: _drop(r, "cruise_speed"), VocabularyError),
        (lambda r: _add(r, "surprise", True), VocabularyError),
        (lambda r: _add(r, "geofence_polygon", [[0, 0], [1, 0]]), GeometryError),
        (lambda r: _add(r, "geofence_polygon", [[0, 0], [1, 0], [0, 0]]), GeometryError),
        (
            # bowtie: edges cross, so the polygon is rejected
            lambda r: _add(r, "geofence_polygon", [[0, 0], [10, 10], [10, 0], [0, 10]]),
            GeometryError,
        ),
        (
            lambda r: _add(r, "expected_state_sequence", ["HOVERING", "DISARMING"]),
            SequenceError,
        ),
        (
            lambda r: _add(
                r,
                "expected_state_sequence",
                ["TAKEOFF", "FLYING_TO_WAYPOINT", "HOVERING", "LANDING", "DISARMING"],
            ),
            SequenceError,  # one FLYING entry for three waypoints
        ),
        (
            lambda r: _add(r, "expected_state_sequence", ["TAKEOFF", "WARP", "DISARMING"]),
            SequenceError,
        ),
        (
            lambda r: _add(
                r,
                "expected_state_sequence",
                [
                    "TAKEOFF",
                    "FLYING_TO_WAYPOINT",
                    "FLYING_TO_WAYPOINT",
                    "FLYING_TO_WAYPOINT",
                    "HOVERING",
                    "LANDING",
                ],
            ),
            SequenceError,  # must end disarmed
        ),
    ],
)
def test_malformed_missions(mutate, exc):
    raw = mutate(dict(MISSION_A_RAW))
    with pytest.raises(exc):
        parse_mission(raw)


def test_bundled_missions_load():
    a = load_mission(DATA_DIR / "mission_a.json")
    c = load_mission(DATA_DIR / "mission_c.json")
    assert a.geofence_polygon is None
    assert c.geofence_polygon is not None
    assert json.loads((DATA_DIR / "sut_default.json").read_text())


# ---------------------------------------------------------------------------
# coverage and config checks
# ---------------------------------------------------------------------------


def test_coverage_all_reachable(spec, mission_a):
    report = validate_coverage(spec, mission_a)
    assert report.fully_covered
    assert report.warnings() == []
    assert not report.geofence_required


def test_coverage_flags_missing_polygon(mission_a):
    raw = small_spec_raw()
    raw["ENVIRONMENT"]["geofence"] = ["none", "RETURN"]
    spec = parse_fuzz_spec(raw, spec_id="s")
    report = validate_coverage(spec, mission_a)
    assert report.geofence_required
    assert not report.geofence_satisfied
    assert any("polygon" in w for w in report.warnings())


def test_coverage_returning_needs_armed_fence(mission_a, mission_c):
    raw = small_spec_raw()
    raw["FROM_APP_states"].append("RETURNING")
    raw["CONSTRAINTS"]["REQUIRES_PX4_MODE"]["OFFBOARD"].append("RETURNING")
    unarmed = parse_fuzz_spec(raw, spec_id="s")
    report = validate_coverage(unarmed, mission_c)
    blocked = [p for p in report.pairs if p.state is AppState.RETURNING]
    assert blocked and not blocked[0].reachable
    assert any("RETURNING" in w for w in report.warnings())

    raw["ENVIRONMENT"]["geofence"] = ["RETURN"]
    armed = parse_fuzz_spec(raw, spec_id="s")
    assert validate_coverage(armed, mission_c).fully_covered
    # armed fence and a polygon, but RETURNING still needs the polygon
    report = validate_coverage(armed, mission_a)
    blocked = [p for p in report.pairs if p.state is AppState.RETURNING]
    assert blocked and not blocked[0].reachable


def test_default_latency_window_rejected_for_short_bands(spec):
    with pytest.raises(ConfigError):
        validate_sut_config(SutConfig(), spec)
    validate_sut_config(SutConfig(latency_window_ms=(200.0, 600.0)), spec)
