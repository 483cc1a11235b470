"""Flight execution: context waits, injection delivery, settle sampling."""

import json

import pytest

from statefuzz.executor import (
    PROFILE_FIELDS,
    ExecutionProfile,
    Executor,
    run_campaign,
    trace_digest,
)
from statefuzz.sutmodel import NO_ACTION, AppState, AutopilotMode, SutConfig
from statefuzz.testgen import GeneratorConfig, generate

from helpers import fly_traced, make_case, make_profile


def test_baseline_flies_the_mission_without_injections(mission_a, narrow_config):
    test = make_case(action=NO_ACTION, delay_ms=0.0)
    profile, trace = fly_traced(Executor(mission_a, narrow_config), test)
    assert not profile.context_reached
    assert profile.context_reached_time_ms is None
    assert profile.app_state_at_injection is None
    assert profile.mode_at_injection is None
    assert profile.injection_acknowledged is None
    assert not profile.injection_deferred
    assert profile.mission_completed
    assert profile.final_app_state == "DONE"
    assert profile.final_mode == "LAND"
    assert profile.exceptions == ()
    assert profile.path_deviation_max_m == 0.0
    states = []
    for _, app, _ in trace:
        if app not in states:
            states.append(app)
    assert states == [
        "PRE_ARM",
        "TAKEOFF",
        "FLYING_TO_WAYPOINT",
        "HOVERING",
        "LANDING",
        "DISARMING",
        "DONE",
    ]


def test_context_wait_anchors_injection_timing(mission_a, narrow_config):
    test = make_case(app_state=AppState.TAKEOFF, action="ALTCTL", delay_ms=250.0)
    profile, trace = fly_traced(Executor(mission_a, narrow_config), test)
    assert profile.context_reached
    assert profile.context_reached_time_ms == 500.0
    # the action lands at context time + delay: ALTCTL is honored at once
    injection_time = profile.context_reached_time_ms + test.delay_ms
    assert injection_time == 750.0
    assert [t for t, _app, mode in trace if mode == "ALTCTL"][0] == injection_time
    assert profile.app_state_at_injection == "TAKEOFF"


def test_flying_context_time_matches_climb(mission_a, narrow_config):
    test = make_case(app_state=AppState.FLYING_TO_WAYPOINT, action="ALTCTL", delay_ms=100.0)
    profile = Executor(mission_a, narrow_config).execute(test)
    assert 13000.0 <= profile.context_reached_time_ms <= 13020.0


def test_f2_race_resolves_by_injection_delay(mission_a):
    cfg = SutConfig(latency_window_ms=(200.0, 600.0), seeded_faults=("F2",))
    ex = Executor(mission_a, cfg)

    early = ex.execute(make_case(delay_ms=100.0, seed=11))
    assert early.mode_at_injection == "STABILIZED"
    assert not early.injection_acknowledged
    assert early.mode_after_settle in ("STABILIZED", "OFFBOARD")  # switch may fire in the settle second

    late = ex.execute(make_case(delay_ms=700.0, seed=11))
    assert late.mode_at_injection == "OFFBOARD"
    assert late.injection_acknowledged
    assert late.mode_after_settle == "POSCTL"
    assert late.final_app_state == "DONE"


def test_injection_after_flight_end_is_dead_lettered(mission_a, narrow_config):
    # DISARMING lasts one second; an 8 s delay outlives the whole flight
    test = make_case(
        app_state=AppState.DISARMING,
        target_mode=AutopilotMode.LAND,
        action="POSCTL",
        delay_ms=8000.0,
        band=("long", 600.0, 10000.0),
    )
    profile, trace = fly_traced(Executor(mission_a, narrow_config), test)
    assert profile.context_reached
    assert not profile.injection_acknowledged and not profile.injection_deferred
    assert profile.app_state_at_injection == "DONE"
    assert profile.mode_after_settle is None
    # the flight, and its last trace point, end before the injection instant
    injection_time = profile.context_reached_time_ms + test.delay_ms
    assert profile.flight_duration_ms < injection_time
    assert trace[-1][0] < injection_time


def test_settle_sample_reflects_the_honored_mode(mission_a, narrow_config):
    test = make_case(app_state=AppState.HOVERING, action="ALTCTL", delay_ms=300.0)
    profile = Executor(mission_a, narrow_config).execute(test)
    assert profile.injection_acknowledged and not profile.injection_deferred
    assert profile.mode_after_settle == "ALTCTL"
    assert profile.final_app_state == "DONE"
    assert not profile.mission_completed  # manual takeover interrupts the plan


def test_deferred_flag_propagates(mission_c):
    cfg = SutConfig(seeded_faults=("F4",))
    test = make_case(
        app_state=AppState.RETURNING,
        target_mode=AutopilotMode.RTL,
        action="POSCTL",
        delay_ms=400.0,
        geofence="RETURN",
        mission_id="Flight plan C",
    )
    profile = Executor(mission_c, cfg).execute(test)
    assert profile.injection_deferred and not profile.injection_acknowledged
    assert profile.final_mode == "POSCTL"  # applied on touchdown


def test_execute_is_deterministic(mission_a, narrow_config):
    test = make_case(delay_ms=321.0, wind="high", gps_noise="low", seed=77)
    ex = Executor(mission_a, narrow_config)
    assert ex.execute(test) == ex.execute(test)


def test_profile_round_trips_through_a_json_row(mission_a, narrow_config):
    test = make_case(app_state=AppState.HOVERING, action="STABILIZED", delay_ms=200.0)
    flown, trace = fly_traced(Executor(mission_a, narrow_config), test)
    events = make_profile(test, failsafe_events=[(1.5, "GEOFENCE", "RTL")],
                          exceptions=["boom"], trace=[(0.0, "TAKEOFF", "OFFBOARD")])
    assert trace and flown.trace_digest == trace_digest(trace)
    for profile in (flown, events):
        # a row is the field values in declaration order, test_id first
        row = json.loads(json.dumps([getattr(profile, name) for name in PROFILE_FIELDS]))
        assert row[0] == test.test_id
        assert ExecutionProfile.from_row(row) == profile
        # to_dict names the same values, and its JSON is the lists' JSON
        assert json.dumps(profile.to_dict()) == json.dumps(dict(zip(PROFILE_FIELDS, row)))


def test_path_deviation_is_rounded_to_micrometers(mission_a, narrow_config):
    test = make_case(action=NO_ACTION, delay_ms=0.0, gps_noise="medium", seed=5)
    profile = Executor(mission_a, narrow_config).execute(test)
    assert profile.path_deviation_max_m == round(profile.path_deviation_max_m, 6)
    assert profile.path_deviation_max_m > 0


def test_campaign_results_align_with_inputs(spec, mission_a, narrow_config):
    config = GeneratorConfig(repetitions_per_combination=1, master_seed=0)
    tests = generate(spec, config, mission_a.id)[:10]
    profiles = run_campaign(tests, mission_a, narrow_config, parallelism=1)
    assert [p.test_id for p in profiles] == [t.test_id for t in tests]


def test_parallel_campaign_matches_serial(spec, mission_a, narrow_config):
    config = GeneratorConfig(repetitions_per_combination=1, master_seed=4)
    tests = generate(spec, config, mission_a.id)[:12]
    serial = run_campaign(tests, mission_a, narrow_config, parallelism=1)
    parallel = run_campaign(tests, mission_a, narrow_config, parallelism=4)
    assert serial == parallel


def test_results_do_not_depend_on_the_memo_order(spec, mission_a, narrow_config):
    config = GeneratorConfig(repetitions_per_combination=2, master_seed=4)
    tests = generate(spec, config, mission_a.id)
    fresh = {t.test_id: Executor(mission_a, narrow_config).execute(t) for t in tests}
    shared = Executor(mission_a, narrow_config)
    forward = [shared.execute(t) for t in tests]
    entries = len(shared.cruise_runs)
    backward = [shared.execute(t) for t in reversed(tests)]
    # the reversed pass replays every cruise run the forward pass stored
    assert entries and len(shared.cruise_runs) == entries
    for profile in forward + backward:
        assert profile == fresh[profile.test_id]
