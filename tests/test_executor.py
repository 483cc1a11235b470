"""Flight execution: context waits, injection delivery, settle sampling."""

import pytest

from statefuzz.executor import ExecutionProfile, Executor, run_campaign
from statefuzz.sutmodel import NO_ACTION, AppState, AutopilotMode, SutConfig
from statefuzz.testgen import GeneratorConfig, generate

from helpers import make_case


def test_baseline_flies_the_mission_without_injections(mission_a, narrow_config):
    test = make_case(action=NO_ACTION, delay_ms=0.0)
    profile = Executor(mission_a, narrow_config).execute(test)
    assert profile.injections == ()
    assert not profile.injection_attempted
    assert profile.injection_acknowledged is None
    assert profile.mission_completed
    assert profile.final_app_state == "DONE"
    assert profile.final_mode == "LAND"
    assert profile.exceptions == ()
    assert profile.path_deviation_max_m == 0.0
    states = []
    for _, app, _ in profile.trace:
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
    profile = Executor(mission_a, narrow_config).execute(test)
    assert profile.context_reached
    assert profile.context_reached_time_ms == 500.0
    rec = profile.injections[0]
    assert rec.scheduled_time_ms == 750.0
    assert rec.actual_time_ms == 750.0
    assert rec.app_state_at_injection == "TAKEOFF"


def test_flying_context_time_matches_climb(mission_a, narrow_config):
    test = make_case(app_state=AppState.FLYING_TO_WAYPOINT, action="ALTCTL", delay_ms=100.0)
    profile = Executor(mission_a, narrow_config).execute(test)
    assert 13000.0 <= profile.context_reached_time_ms <= 13020.0


def test_f2_race_resolves_by_injection_delay(mission_a):
    cfg = SutConfig(latency_window_ms=(200.0, 600.0), seeded_faults=("F2",))
    ex = Executor(mission_a, cfg)

    early = ex.execute(make_case(delay_ms=100.0, seed=11))
    rec = early.injections[0]
    assert rec.mode_at_injection == "STABILIZED"
    assert not rec.acknowledged
    assert early.mode_after_settle in ("STABILIZED", "OFFBOARD")  # switch may fire in the settle second

    late = ex.execute(make_case(delay_ms=700.0, seed=11))
    rec = late.injections[0]
    assert rec.mode_at_injection == "OFFBOARD"
    assert rec.acknowledged
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
    profile = Executor(mission_a, narrow_config).execute(test)
    assert profile.context_reached
    rec = profile.injections[0]
    assert not rec.acknowledged and not rec.deferred
    assert rec.app_state_at_injection == "DONE"
    assert profile.mode_after_settle is None
    assert profile.flight_duration_ms < rec.scheduled_time_ms


def test_settle_sample_reflects_the_honored_mode(mission_a, narrow_config):
    test = make_case(app_state=AppState.HOVERING, action="ALTCTL", delay_ms=300.0)
    profile = Executor(mission_a, narrow_config).execute(test)
    rec = profile.injections[0]
    assert rec.acknowledged and not rec.deferred
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
    rec = profile.injections[0]
    assert rec.deferred and not rec.acknowledged
    assert profile.injection_deferred
    assert profile.final_mode == "POSCTL"  # applied on touchdown


def test_execute_is_deterministic(mission_a, narrow_config):
    test = make_case(delay_ms=321.0, wind="high", gps_noise="low", seed=77)
    ex = Executor(mission_a, narrow_config)
    assert ex.execute(test) == ex.execute(test)


def test_profile_round_trips_through_dict(mission_a, narrow_config):
    test = make_case(app_state=AppState.HOVERING, action="STABILIZED", delay_ms=200.0)
    profile = Executor(mission_a, narrow_config).execute(test)
    raw = profile.to_dict()
    assert raw["test_id"] == test.test_id
    assert ExecutionProfile.from_dict(raw) == profile


def test_path_deviation_is_rounded_to_micrometers(mission_a, narrow_config):
    test = make_case(action=NO_ACTION, delay_ms=0.0, gps_noise="medium", seed=5)
    profile = Executor(mission_a, narrow_config).execute(test)
    assert profile.path_deviation_max_m == round(profile.path_deviation_max_m, 6)
    assert profile.path_deviation_max_m > 0


def test_campaign_results_align_with_inputs(spec, mission_a, narrow_config):
    tests = generate(spec, GeneratorConfig(repetitions_per_combination=1, master_seed=0))[:10]
    profiles = run_campaign(tests, mission_a, narrow_config, parallelism=1)
    assert [p.test_id for p in profiles] == [t.test_id for t in tests]


def test_parallel_campaign_matches_serial(spec, mission_a, narrow_config):
    tests = generate(spec, GeneratorConfig(repetitions_per_combination=1, master_seed=4))[:12]
    serial = run_campaign(tests, mission_a, narrow_config, parallelism=1)
    parallel = run_campaign(tests, mission_a, narrow_config, parallelism=4)
    assert serial == parallel


def test_results_do_not_depend_on_the_memo_order(spec, mission_a, narrow_config):
    tests = generate(spec, GeneratorConfig(repetitions_per_combination=2, master_seed=4))
    fresh = {t.test_id: Executor(mission_a, narrow_config).execute(t) for t in tests}
    shared = Executor(mission_a, narrow_config)
    forward = [shared.execute(t) for t in tests]
    entries = len(shared.cruise_runs)
    backward = [shared.execute(t) for t in reversed(tests)]
    # the reversed pass replays every cruise run the forward pass stored
    assert entries and len(shared.cruise_runs) == entries
    for profile in forward + backward:
        assert profile == fresh[profile.test_id]
