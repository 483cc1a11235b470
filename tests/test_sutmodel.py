"""Flight simulation: phase machine, failsafes, fault registry."""

import math
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from statefuzz import sutmodel
from statefuzz.errors import ConfigError, IllegalEvent, UnknownFault
from statefuzz.executor import Executor
from statefuzz.sutmodel import (
    GEOFENCE_SETTINGS,
    INTENSITY_LEVELS,
    NO_ACTION,
    OSC_WINDOW_MS,
    TARGETABLE_STATES,
    THROTTLE_LEVELS,
    AppState,
    AutopilotMode,
    Decision,
    FaultId,
    InjectionRequest,
    RcAction,
    SutConfig,
    Vehicle,
    _fence_hops,
    inject_fault_behavior,
    summarize_events,
)

from conftest import MISSION_A_RAW, MISSION_C_RAW
from helpers import make_case
from reference import grid_advance_until


def make_vehicle(config=None, env=None, mission=MISSION_A_RAW, seed=1, cruise_runs=None):
    return Vehicle(
        waypoints=tuple(tuple(w) for w in mission["waypoints"]),
        cruise_speed=mission["cruise_speed"],
        geofence_polygon=(
            tuple(tuple(p) for p in mission["geofence_polygon"])
            if "geofence_polygon" in mission
            else None
        ),
        config=config or SutConfig(),
        env=env or {},
        rng=Random(seed),
        cruise_runs=cruise_runs,
    )


def summary(vehicle):
    return summarize_events(vehicle.events)


def first_entries(vehicle):
    seen = {}
    for t, app, _ in summary(vehicle)["trace"]:
        seen.setdefault(AppState(app), t)
    return seen


def failsafes(vehicle):
    return [(kind, detail) for _, kind, detail in summary(vehicle)["failsafe_events"]]


def visited(vehicle):
    return {AppState(app) for _, app, _ in summary(vehicle)["trace"]}


def logged(vehicle, text):
    return any(text in detail for _, _, detail in vehicle.events)


# ---------------------------------------------------------------------------
# nominal flight
# ---------------------------------------------------------------------------


def test_baseline_flight_timeline():
    v = make_vehicle()
    v.advance_until(120000, stop_state=None)
    assert v.finished and v.mission_completed
    assert v.legs_done == 3
    s = summary(v)
    assert s["exceptions"] == ()
    assert s["failsafe_events"] == ()
    assert s["oscillation_count"] == 0
    assert v.path_deviation_max == 0.0
    assert v.mode is AutopilotMode.LAND

    entries = first_entries(v)
    assert s["trace"][0] == (0.0, "PRE_ARM", "STABILIZED")
    assert entries[AppState.TAKEOFF] == 500.0
    # 10 m at 0.8 m/s on a 10 ms grid
    assert 13000.0 <= entries[AppState.FLYING_TO_WAYPOINT] <= 13020.0
    # three 20 m legs at 5 m/s
    hover = entries[AppState.HOVERING]
    assert hover == pytest.approx(entries[AppState.FLYING_TO_WAYPOINT] + 12000.0, abs=40)
    assert entries[AppState.LANDING] == pytest.approx(hover + 3000.0, abs=20)
    # 10 m down at 2 m/s, then a 1 s disarm pause
    assert entries[AppState.DISARMING] == pytest.approx(entries[AppState.LANDING] + 5000.0, abs=20)
    assert entries[AppState.DONE] == pytest.approx(entries[AppState.DISARMING] + 1000.0, abs=20)

    assert AppState.HUMAN_CONTROL not in visited(v)
    assert AppState.RETURNING not in visited(v)


def test_mode_switch_lands_inside_latency_window():
    cfg = SutConfig(latency_window_ms=(200.0, 600.0))
    v = make_vehicle(config=cfg)
    v.advance_until(60000, stop_state=AppState.FLYING_TO_WAYPOINT)
    switch = next(t for t, _, m in summary(v)["trace"] if m == "OFFBOARD")
    # armed at t=500, switch timer set relative to that instant
    assert 700.0 <= switch <= 1110.0
    assert 200.0 <= v.switch_latency < 600.0


def test_switch_latency_is_seeded():
    assert make_vehicle(seed=1).switch_latency != make_vehicle(seed=2).switch_latency
    assert make_vehicle(seed=5).switch_latency == make_vehicle(seed=5).switch_latency


def test_same_seed_reproduces_the_whole_trace():
    a = make_vehicle(env={"wind": "high", "gps_noise": "low"}, seed=9)
    b = make_vehicle(env={"wind": "high", "gps_noise": "low"}, seed=9)
    a.advance_until(120000, stop_state=None)
    b.advance_until(120000, stop_state=None)
    assert a.events == b.events
    assert a.path_deviation_max == b.path_deviation_max


def test_advance_until_stops_at_state_entry():
    v = make_vehicle()
    v.advance_until(120000, stop_state=AppState.HOVERING)
    assert v.app is AppState.HOVERING
    assert not v.finished


def test_simulation_ceiling_guards_unreachable_waypoints():
    far = {"id": "far", "waypoints": [[100000, 0, 10]], "cruise_speed": 5.0}
    v = make_vehicle(mission=far)
    v.advance_until(10_000_000, stop_state=None)
    assert v.finished and not v.mission_completed
    assert summary(v)["exceptions"] == ("sim-timeout",)
    assert v.t <= 600000.0


@pytest.mark.parametrize("back_at, oscillations", [
    (1000.0 + OSC_WINDOW_MS, 1),        # OFFBOARD -> POSCTL -> OFFBOARD at the window
    (1000.0 + OSC_WINDOW_MS + 1.0, 0),  # the same return 1 ms later
])
def test_summarize_events_replays_the_log(back_at, oscillations):
    events = [
        (500.0, "state", "TAKEOFF"),
        (500.0, "note", "armed"),
        (1000.0, "mode", "OFFBOARD"),
        (3000.0, "injection", "POSCTL honored"),
        (3000.0, "mode", "POSCTL"),
        (3000.0, "state", "HUMAN_CONTROL"),     # same instant: one trace point
        (4000.0, "failsafe", "GEOFENCE:WARN"),
        (4500.0, "failsafe", "DEGRADED_GPS:high"),
        (back_at, "mode", "OFFBOARD"),
        (back_at + 10.0, "exception", "disarm-timeout"),
        (back_at + 10.0, "state", "DONE"),
        (back_at + 10.0, "note", "flight ended: disarm hang"),
    ]
    assert summarize_events(events) == {
        "trace": (
            (0.0, "PRE_ARM", "STABILIZED"),
            (500.0, "TAKEOFF", "STABILIZED"),
            (1000.0, "TAKEOFF", "OFFBOARD"),
            (3000.0, "HUMAN_CONTROL", "POSCTL"),
            (back_at, "HUMAN_CONTROL", "OFFBOARD"),
            (back_at + 10.0, "DONE", "OFFBOARD"),
        ),
        "failsafe_events": ((4000.0, "GEOFENCE", "WARN"), (4500.0, "DEGRADED_GPS", "high")),
        "exceptions": ("disarm-timeout",),
        "oscillation_count": oscillations,
    }


# ---------------------------------------------------------------------------
# config validation
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "kwargs, exc",
    [
        ({"latency_window_ms": (-1.0, 500.0)}, ConfigError),
        ({"latency_window_ms": (500.0, 500.0)}, ConfigError),
        ({"latency_window_ms": (900.0, 200.0)}, ConfigError),
        # retired keys, which only earlier layouts wrote, are unknown keys
        ({"app_signal_loss_s": 20.0}, ConfigError),
        ({"autopilot_signal_loss_s": 60.0}, ConfigError),
        ({"geofence_action": "RETURN"}, ConfigError),
        ({"latency_window_ms": (200.0, 600.0), "geofence_action": "RETURN"}, ConfigError),
        ({"gps_degrade_level": "extreme"}, ConfigError),
        ({"compass_degrade_level": ""}, ConfigError),
        ({"seeded_faults": ("F2", "F99")}, UnknownFault),
        # values of the wrong type, which raised TypeError or ValueError
        ({"latency_window_ms": 5}, ConfigError),
        ({"latency_window_ms": [200.0]}, ConfigError),
        ({"latency_window_ms": ["a", 600.0]}, ConfigError),
        ({"latency_window_ms": None}, ConfigError),
        ({"latency_window_ms": [200, 10**400]}, ConfigError),
        ({"seeded_faults": [[1]]}, ConfigError),
        ({"seeded_faults": 5}, ConfigError),
        ({"seeded_faults": "F2"}, ConfigError),
        ({"gps_degrade_level": ["high"]}, ConfigError),
    ],
)
def test_config_validation(kwargs, exc):
    with pytest.raises(exc) as refused:
        SutConfig.from_dict(kwargs)
    # an unknown key is named in the error
    for key in set(kwargs) - set(SutConfig().to_dict()):
        assert repr(key) in str(refused.value)


def test_a_config_that_is_not_an_object_is_refused():
    with pytest.raises(ConfigError, match="must be a JSON object"):
        SutConfig.from_dict([["latency_window_ms", [200, 600]]])


def test_config_round_trip_sorts_faults():
    cfg = SutConfig(seeded_faults=("F5", "F1", "F2"))
    raw = cfg.to_dict()
    assert set(raw) == {
        "latency_window_ms", "gps_degrade_level", "compass_degrade_level", "seeded_faults"
    }
    assert raw["seeded_faults"] == ["F1", "F2", "F5"]
    again = SutConfig.from_dict(raw)
    assert again.faults() == (FaultId.F1, FaultId.F2, FaultId.F5)
    assert again.has(FaultId.F2) and not again.has(FaultId.F3)


def test_config_from_dict_rejects_unknown_keys():
    raw = SutConfig().to_dict()
    raw["turbo"] = True
    with pytest.raises(ConfigError, match="unknown config keys"):
        SutConfig.from_dict(raw)


# ---------------------------------------------------------------------------
# fault registry
# ---------------------------------------------------------------------------


def req(action, state, mode, warn=False, fence=False):
    return InjectionRequest(
        action=action,
        app_state=state,
        mode=mode,
        warn_active=warn,
        fence_failsafe_active=fence,
    )


@pytest.mark.parametrize(
    "fault, request_, decision",
    [
        ("F1", req(RcAction.AUTO_LAND, AppState.HOVERING, AutopilotMode.OFFBOARD), Decision.IGNORE),
        ("F1", req(RcAction.AUTO_LAND, AppState.LANDING, AutopilotMode.OFFBOARD), Decision.PASS_THROUGH),
        ("F1", req(RcAction.AUTO_RTL, AppState.HOVERING, AutopilotMode.OFFBOARD), Decision.PASS_THROUGH),
        ("F2", req(RcAction.POSCTL, AppState.TAKEOFF, AutopilotMode.STABILIZED), Decision.IGNORE),
        ("F2", req(RcAction.POSCTL, AppState.TAKEOFF, AutopilotMode.OFFBOARD), Decision.PASS_THROUGH),
        ("F2", req(RcAction.POSCTL, AppState.HOVERING, AutopilotMode.STABILIZED), Decision.PASS_THROUGH),
        ("F3", req(RcAction.OFFBOARD, AppState.LANDING, AutopilotMode.LAND), Decision.CORRUPT),
        ("F3", req(RcAction.OFFBOARD, AppState.RETURNING, AutopilotMode.RTL), Decision.CORRUPT),
        ("F3", req(RcAction.OFFBOARD, AppState.FLYING_TO_WAYPOINT, AutopilotMode.OFFBOARD), Decision.PASS_THROUGH),
        ("F3", req(RcAction.POSCTL, AppState.LANDING, AutopilotMode.LAND), Decision.PASS_THROUGH),
        ("F4", req(RcAction.POSCTL, AppState.RETURNING, AutopilotMode.RTL, fence=True), Decision.DEFER),
        ("F4", req(RcAction.POSCTL, AppState.RETURNING, AutopilotMode.RTL), Decision.PASS_THROUGH),
        ("F4", req(RcAction.ALTCTL, AppState.RETURNING, AutopilotMode.RTL, fence=True), Decision.PASS_THROUGH),
        ("F5", req(RcAction.AUTO_RTL, AppState.TAKEOFF, AutopilotMode.STABILIZED), Decision.IGNORE),
        ("F5", req(RcAction.AUTO_RTL, AppState.TAKEOFF, AutopilotMode.OFFBOARD), Decision.IGNORE),
        ("F5", req(RcAction.AUTO_RTL, AppState.FLYING_TO_WAYPOINT, AutopilotMode.OFFBOARD), Decision.PASS_THROUGH),
        ("F7", req(RcAction.POSCTL, AppState.FLYING_TO_WAYPOINT, AutopilotMode.OFFBOARD, warn=True), Decision.IGNORE),
        ("F7", req(RcAction.POSCTL, AppState.FLYING_TO_WAYPOINT, AutopilotMode.OFFBOARD), Decision.PASS_THROUGH),
    ],
)
def test_fault_decisions(fault, request_, decision):
    assert inject_fault_behavior(fault, request_) is decision


def test_unknown_fault_id_rejected():
    r = req(RcAction.POSCTL, AppState.TAKEOFF, AutopilotMode.STABILIZED)
    with pytest.raises(UnknownFault):
        inject_fault_behavior("F99", r)


any_request = st.builds(
    req,
    st.sampled_from(list(RcAction)),
    st.sampled_from(list(AppState)),
    st.sampled_from(list(AutopilotMode)),
    warn=st.booleans(),
    fence=st.booleans(),
)


@given(fault=st.sampled_from([FaultId.F6, FaultId.F8, FaultId.F9, FaultId.F10, FaultId.F11]), request_=any_request)
def test_state_free_faults_never_intercept(fault, request_):
    """F6 and F8 act on flight phases, F9-F11 on realized modes; none of
    them filters the injected action itself."""
    assert inject_fault_behavior(fault, request_) is Decision.PASS_THROUGH


# ---------------------------------------------------------------------------
# manual takeover and realized modes
# ---------------------------------------------------------------------------


def test_takeover_holds_then_ends_flight():
    v = make_vehicle()
    v.advance_until(60000, stop_state=AppState.FLYING_TO_WAYPOINT)
    t0 = v.t
    assert v.apply_rc(RcAction.POSCTL)
    assert v.app is AppState.HUMAN_CONTROL
    assert v.mode is AutopilotMode.POSCTL
    v.advance_until(120000, stop_state=None)
    assert v.finished and not v.mission_completed
    assert v.t == pytest.approx(t0 + 10000.0, abs=20)
    assert logged(v, "takeover hold window elapsed")


def test_loiter_request_realizes_as_position_hold():
    v = make_vehicle()
    v.advance_until(60000, stop_state=AppState.FLYING_TO_WAYPOINT)
    assert v.apply_rc(RcAction.AUTO_LOITER)
    assert v.mode is AutopilotMode.POSCTL
    assert v.app is AppState.HUMAN_CONTROL


def test_throttle_toggle_realizes_as_position_hold():
    v = make_vehicle()
    v.advance_until(60000, stop_state=AppState.HOVERING)
    assert v.apply_rc(RcAction.THROTTLE_TOGGLED)
    assert v.mode is AutopilotMode.POSCTL
    assert v.app is AppState.HUMAN_CONTROL


def test_offboard_request_resumes_the_mission():
    v = make_vehicle()
    v.advance_until(60000, stop_state=AppState.FLYING_TO_WAYPOINT)
    v.apply_rc(RcAction.POSCTL)
    assert v.apply_rc(RcAction.OFFBOARD)
    assert v.app is AppState.FLYING_TO_WAYPOINT
    assert v.mode is AutopilotMode.OFFBOARD
    v.advance_until(120000, stop_state=None)
    assert v.finished and v.legs_done == 3
    assert summary(v)["exceptions"] == ()
    # the interruption is latched: a resumed flight finishes every leg but
    # no longer counts as completed-as-planned
    assert not v.mission_completed


def test_mode_ping_pong_counts_oscillations():
    v = make_vehicle()
    v.advance_until(60000, stop_state=AppState.FLYING_TO_WAYPOINT)
    v.apply_rc(RcAction.POSCTL)
    v.advance_until(v.t + 500.0)
    v.apply_rc(RcAction.OFFBOARD)   # OFFBOARD was set ages ago: no return yet
    v.advance_until(v.t + 500.0)
    v.apply_rc(RcAction.POSCTL)     # POSCTL -> OFFBOARD -> POSCTL inside 5 s
    v.advance_until(v.t + 500.0)
    v.apply_rc(RcAction.OFFBOARD)   # and back again
    assert summary(v)["oscillation_count"] == 2


def test_rc_input_rejected_before_arming_and_after_done():
    v = make_vehicle()
    with pytest.raises(IllegalEvent):
        v.apply_rc(RcAction.POSCTL)
    v.advance_until(120000, stop_state=None)
    with pytest.raises(IllegalEvent):
        v.apply_rc(RcAction.POSCTL)


def test_auto_land_from_hover_is_honored_when_healthy():
    v = make_vehicle()
    v.advance_until(60000, stop_state=AppState.HOVERING)
    assert v.apply_rc(RcAction.AUTO_LAND)
    assert v.app is AppState.LANDING
    assert v.mode is AutopilotMode.LAND
    v.advance_until(120000, stop_state=None)
    assert v.finished and summary(v)["exceptions"] == ()


def test_auto_rtl_keeps_rtl_mode_through_landing():
    v = make_vehicle()
    v.advance_until(60000, stop_state=AppState.FLYING_TO_WAYPOINT)
    assert v.apply_rc(RcAction.AUTO_RTL)
    assert v.app is AppState.RETURNING
    assert v.mode is AutopilotMode.RTL
    v.advance_until(120000, stop_state=None)
    assert v.finished and not v.mission_completed
    assert v.mode is AutopilotMode.RTL
    assert v.pos[0] == pytest.approx(0.0, abs=0.3)
    assert v.pos[1] == pytest.approx(0.0, abs=0.3)


# ---------------------------------------------------------------------------
# seeded fault behavior end to end
# ---------------------------------------------------------------------------


def test_f1_swallows_land_request_in_hover():
    v = make_vehicle(config=SutConfig(seeded_faults=("F1",)))
    v.advance_until(60000, stop_state=AppState.HOVERING)
    assert not v.apply_rc(RcAction.AUTO_LAND)
    assert v.app is AppState.HOVERING
    v.advance_until(120000, stop_state=None)
    assert v.mission_completed  # hover pause elapses and the flight lands anyway


def test_f2_swallows_posctl_only_before_the_switch():
    cfg = SutConfig(latency_window_ms=(200.0, 600.0), seeded_faults=("F2",))
    early = make_vehicle(config=cfg)
    early.advance_until(60000, stop_state=AppState.TAKEOFF)
    early.advance_until(early.t + 100.0)  # still STABILIZED
    assert early.mode is AutopilotMode.STABILIZED
    assert not early.apply_rc(RcAction.POSCTL)
    assert early.app is AppState.TAKEOFF

    late = make_vehicle(config=cfg)
    late.advance_until(60000, stop_state=AppState.TAKEOFF)
    late.advance_until(late.t + 700.0)  # past the window: OFFBOARD
    assert late.mode is AutopilotMode.OFFBOARD
    assert late.apply_rc(RcAction.POSCTL)
    assert late.app is AppState.HUMAN_CONTROL


def test_f3_offboard_resume_during_landing_jerks_and_thrashes():
    v = make_vehicle(config=SutConfig(seeded_faults=("F3",)))
    v.advance_until(60000, stop_state=AppState.LANDING)
    assert v.mode is AutopilotMode.LAND
    assert v.apply_rc(RcAction.OFFBOARD)  # honored, but with a stale setpoint
    assert v.jerk_flag
    v.advance_until(120000, stop_state=None)
    assert summary(v)["oscillation_count"] >= 3
    assert logged(v, "stale setpoint")


def test_f3_does_not_fire_without_the_fault():
    v = make_vehicle()
    v.advance_until(60000, stop_state=AppState.LANDING)
    assert v.apply_rc(RcAction.OFFBOARD)
    assert not v.jerk_flag
    v.advance_until(120000, stop_state=None)
    # resume -> hover -> land again is one benign mode return, not a thrash
    assert summary(v)["oscillation_count"] <= 1
    assert v.legs_done == 3 and summary(v)["exceptions"] == ()


def test_f4_defers_posctl_until_touchdown_during_fence_return():
    cfg = SutConfig(seeded_faults=("F4",))
    v = make_vehicle(config=cfg, env={"geofence": "RETURN"}, mission=MISSION_C_RAW)
    v.advance_until(120000, stop_state=AppState.RETURNING)
    assert v.mode is AutopilotMode.RTL
    assert v.fence_failsafe_active
    assert not v.apply_rc(RcAction.POSCTL)
    assert v.deferred_action is RcAction.POSCTL
    v.advance_until(120000, stop_state=None)
    assert v.finished
    assert v.mode is AutopilotMode.POSCTL  # applied at touchdown, far too late
    assert logged(v, "deferred")


def test_f5_swallows_rtl_during_takeoff_in_both_modes():
    cfg = SutConfig(latency_window_ms=(200.0, 600.0), seeded_faults=("F5",))
    for extra_wait in (100.0, 700.0):
        v = make_vehicle(config=cfg)
        v.advance_until(60000, stop_state=AppState.TAKEOFF)
        v.advance_until(v.t + extra_wait)
        assert not v.apply_rc(RcAction.AUTO_RTL)
        assert v.app is AppState.TAKEOFF
        v.advance_until(120000, stop_state=None)
        assert v.mission_completed


def test_f6_oscillates_on_noisy_gps_without_any_injection():
    v = make_vehicle(config=SutConfig(seeded_faults=("F6",)), env={"gps_noise": "high"})
    v.advance_until(120000, stop_state=None)
    # six forced flips; the first cannot complete a return pair, the
    # remaining entries give four A -> B -> A returns inside the window
    assert summary(v)["oscillation_count"] == 4
    assert v.finished
    healthy = make_vehicle(env={"gps_noise": "high"})
    healthy.advance_until(120000, stop_state=None)
    assert summary(healthy)["oscillation_count"] == 0


def test_f7_ignores_posctl_while_fence_warning_active():
    cfg = SutConfig(seeded_faults=("F7",))
    v = make_vehicle(config=cfg, env={"geofence": "WARN"}, mission=MISSION_C_RAW)
    v.advance_until(120000, stop_state=AppState.FLYING_TO_WAYPOINT)
    v.advance_until(v.t + 5000.0)  # fence crossed about 3.6 s into the leg
    assert v.warn_active
    assert not v.apply_rc(RcAction.POSCTL)
    assert v.app is AppState.FLYING_TO_WAYPOINT


def test_f8_hangs_the_disarm_after_manual_landing():
    v = make_vehicle(config=SutConfig(seeded_faults=("F8",)))
    v.advance_until(60000, stop_state=AppState.LANDING)
    assert v.apply_rc(RcAction.STABILIZED)
    assert v.app is AppState.HUMAN_CONTROL
    v.advance_until(200000, stop_state=None)
    assert summary(v)["exceptions"] == ("disarm-timeout",)
    assert not v.mission_completed

    healthy = make_vehicle()
    healthy.advance_until(60000, stop_state=AppState.LANDING)
    healthy.apply_rc(RcAction.STABILIZED)
    healthy.advance_until(200000, stop_state=None)
    assert summary(healthy)["exceptions"] == ()


# ---------------------------------------------------------------------------
# geofence
# ---------------------------------------------------------------------------


def test_geofence_warn_only_warns():
    v = make_vehicle(env={"geofence": "WARN"}, mission=MISSION_C_RAW)
    v.advance_until(120000, stop_state=None)
    assert failsafes(v) == [("GEOFENCE", "WARN")]
    assert v.mission_completed  # warning does not abort the mission


def test_geofence_return_diverts_home():
    v = make_vehicle(env={"geofence": "RETURN"}, mission=MISSION_C_RAW)
    v.advance_until(120000, stop_state=None)
    assert failsafes(v) == [("GEOFENCE", "RETURN")]
    assert AppState.RETURNING in visited(v)
    assert not v.mission_completed
    assert v.mode is AutopilotMode.RTL
    assert v.pos[0] == pytest.approx(0.0, abs=0.3)


def test_geofence_land_descends_in_place():
    v = make_vehicle(env={"geofence": "LAND"}, mission=MISSION_C_RAW)
    v.advance_until(120000, stop_state=None)
    assert failsafes(v) == [("GEOFENCE", "LAND")]
    assert AppState.RETURNING not in visited(v)
    assert AppState.LANDING in visited(v)
    assert not v.mission_completed
    assert v.pos[0] == pytest.approx(18.0, abs=0.3)  # came down at the breach point


def test_geofence_disabled_level_never_fires():
    v = make_vehicle(env={"geofence": "none"}, mission=MISSION_C_RAW)
    v.advance_until(120000, stop_state=None)
    assert failsafes(v) == []
    assert v.mission_completed


# ---------------------------------------------------------------------------
# wind, GPS noise and degraded sensors
# ---------------------------------------------------------------------------


def test_wind_drift_saturates_at_the_level_cap():
    v = make_vehicle(env={"wind": "high"})
    v.advance_until(120000, stop_state=None)
    assert v.path_deviation_max == pytest.approx(3.0)
    low = make_vehicle(env={"wind": "low"})
    low.advance_until(120000, stop_state=None)
    assert low.path_deviation_max == pytest.approx(0.5)


def test_gps_jitter_adds_bounded_noise_without_alerts():
    v = make_vehicle(env={"gps_noise": "low"})
    v.advance_until(120000, stop_state=None)
    assert 0.0 < v.path_deviation_max <= 0.1
    assert failsafes(v) == []


def test_gps_degradation_alert_follows_config_threshold():
    noisy = make_vehicle(env={"gps_noise": "high"})
    noisy.advance_until(120000, stop_state=None)
    assert failsafes(noisy) == [("DEGRADED_GPS", "high")]

    sensitive = make_vehicle(
        config=SutConfig(gps_degrade_level="low"), env={"gps_noise": "medium"}
    )
    sensitive.advance_until(120000, stop_state=None)
    assert failsafes(sensitive) == [("DEGRADED_GPS", "medium")]

    tolerant = make_vehicle(env={"gps_noise": "medium"})
    tolerant.advance_until(120000, stop_state=None)
    assert failsafes(tolerant) == []


def test_compass_interference_alert():
    v = make_vehicle(env={"compass_interference": "high"})
    v.advance_until(120000, stop_state=None)
    assert failsafes(v) == [("DEGRADED_COMPASS", "high")]


# ---------------------------------------------------------------------------
# the event-skipping loop against the plain grid loop
# ---------------------------------------------------------------------------


def observables(v):
    return (
        v.t, v.pos, v.wind_dev, v.path_deviation_max, v.events, v.rng.getstate(),
    )


flight_steps = st.lists(
    st.one_of(
        st.tuples(st.just("until"), st.sampled_from(TARGETABLE_STATES)),
        st.tuples(st.just("wait"), st.sampled_from([0.0, 7.5, 60.0, 333.3, 1000.0, 4321.5])),
        st.tuples(st.just("rc"), st.sampled_from(list(RcAction))),
    ),
    max_size=8,
)


def fly_pair(config, env, mission, seed, steps, cruise_runs=None):
    """Fly a vehicle with advance_until and its twin with the grid loop,
    comparing the two whenever the fast vehicle returns.

    An "until" step and the final leg fly each vehicle to math.inf, unless
    it is already in the stop state.
    """
    fast = make_vehicle(config=config, env=env, mission=mission, seed=seed,
                        cruise_runs=cruise_runs)
    grid = make_vehicle(config=config, env=env, mission=mission, seed=seed)

    def until(stop_state=None):
        if fast.app is not stop_state:
            fast.advance_until(math.inf, stop_state)
        if grid.app is not stop_state:
            grid_advance_until(grid, math.inf, stop_state)
        assert observables(fast) == observables(grid)

    for kind, arg in steps:
        if kind == "until":
            until(arg)
        elif kind == "wait":
            fast.advance_until(fast.t + arg)
            grid_advance_until(grid, grid.t + arg, None)
            assert observables(fast) == observables(grid)
        elif kind == "rc" and fast.app not in (AppState.PRE_ARM, AppState.DONE):
            assert fast.apply_rc(arg) == grid.apply_rc(arg)
    until()
    assert fast.finished


@settings(derandomize=True, deadline=None, max_examples=60)
@given(
    mission=st.sampled_from([MISSION_A_RAW, MISSION_C_RAW]),
    env=st.fixed_dictionaries({
        "throttle": st.sampled_from(THROTTLE_LEVELS),
        "geofence": st.sampled_from(GEOFENCE_SETTINGS),
        "wind": st.sampled_from(INTENSITY_LEVELS),
        "gps_noise": st.sampled_from(INTENSITY_LEVELS),
        "compass_interference": st.sampled_from(INTENSITY_LEVELS),
    }),
    faults=st.sets(st.sampled_from([f"F{i}" for i in range(1, 9)])),
    # the last window outlasts the 12.5 s climb, which then clamps at altitude
    window=st.sampled_from([(0.0, 300.0), (200.0, 600.0), (1500.0, 4500.0),
                            (13000.0, 16000.0)]),
    degrade_level=st.sampled_from(["low", "high"]),
    steps=flight_steps,
    seed=st.integers(0, 2**32 - 1),
)
def test_advance_until_matches_the_grid_loop(
    mission, env, faults, window, degrade_level, steps, seed
):
    """Same hops, floats, events and RNG draws as a loop that runs every
    handler on every 10 ms tick, through legs, waits, stops and
    injections."""
    config = SutConfig(
        latency_window_ms=window,
        gps_degrade_level=degrade_level,
        compass_degrade_level=degrade_level,
        seeded_faults=tuple(sorted(faults)),
    )
    fly_pair(config, env, mission, seed, steps)


FLYING = ("until", AppState.FLYING_TO_WAYPOINT)

#: a leg whose last full hop lands exactly on the waypoint although the
#: distance left exceeds the stride
EXACT_LEG = {"id": "exact leg", "waypoints": [[19, 0, 10]], "cruise_speed": 10.0}

#: mission C's fence, crossed on the diagonal through its corner (18, 18)
DIAGONAL_LEG = {"id": "diagonal leg", "waypoints": [[30, 30, 10]], "cruise_speed": 5.0,
                "geofence_polygon": MISSION_C_RAW["geofence_polygon"]}


def cfg(lo, hi, *faults):
    """A config with the latency window (lo, hi) and faults seeded."""
    return SutConfig(latency_window_ms=(lo, hi), seeded_faults=faults)


#: flights that take each kind of run _coast replays in one piece:
#: (mission, config, environment, steps)
RUN_CASES = {
    # TAKEOFF stays STABILIZED past the 12.5 s climb, so z clamps at 10 m
    "climb clamped at altitude": (MISSION_A_RAW, cfg(13000.0, 16000.0), {}, []),
    "climb clamped, wind ramp and jitter": (
        MISSION_A_RAW, cfg(13000.0, 16000.0), {"wind": "high", "gps_noise": "low"}, []),
    # F2 drops the POSCTL; the vehicle then holds at 10 m until the switch
    "F2 flight held in TAKEOFF at 10 m": (
        MISSION_A_RAW, cfg(13000.0, 16000.0, "F2"), {"gps_noise": "low"},
        [("until", AppState.TAKEOFF), ("wait", 333.3), ("rc", RcAction.POSCTL)]),
    # every flight ends with one; jitter draws on every hop of it
    "landing descent with jitter": (MISSION_A_RAW, cfg(200.0, 600.0), {"gps_noise": "medium"}, []),
    "manual sink to the ground": (
        MISSION_A_RAW, cfg(200.0, 600.0), {"throttle": "low"},
        [("until", AppState.TAKEOFF), ("wait", 3000.0), ("rc", RcAction.POSCTL)]),
    "manual landing descent": (
        MISSION_A_RAW, cfg(200.0, 600.0), {"throttle": "high"},
        [("until", AppState.LANDING), ("wait", 500.0), ("rc", RcAction.ALTCTL)]),
    "manual ascent": (
        MISSION_A_RAW, cfg(200.0, 600.0), {"throttle": "high", "gps_noise": "low"},
        [FLYING, ("rc", RcAction.STABILIZED)]),
    # the takeover 333.3 ms into the leg sets hold_until off the grid
    "takeover whose hold ends off the grid": (
        MISSION_A_RAW, cfg(200.0, 600.0), {"wind": "low"},
        [FLYING, ("wait", 333.3), ("rc", RcAction.POSCTL)]),
    # the ramp reaches its cap inside a hold run and a climb run
    "wind ramp from the start": (MISSION_A_RAW, cfg(1500.0, 4500.0), {"wind": "medium"}, []),
    # the ramp reaches its cap within 3.4 s, before any cruise starts
    "cruise with the wind at its cap": (MISSION_A_RAW, cfg(200.0, 600.0), {"wind": "high"}, [FLYING]),
    "cruise at the wind cap with jitter": (
        MISSION_A_RAW, cfg(200.0, 600.0), {"wind": "low", "gps_noise": "low"}, [FLYING]),
    "cruise onto the waypoint": (EXACT_LEG, cfg(200.0, 600.0), {}, []),
    # capped runs up to the breach at x = 18, then the per-hop loop
    "cruise under a live WARN fence, jitter at the wind cap": (
        MISSION_C_RAW, cfg(200.0, 600.0),
        {"geofence": "WARN", "wind": "high", "gps_noise": "medium"}, [FLYING]),
    # the ramp runs out in 3.4 s, within the 12.5 s climb, so it ramps under
    # the live fence in climb runs, and no cruise starts before it is capped
    "cruise under a live RETURN fence, wind ramping in the climb": (
        MISSION_C_RAW, cfg(200.0, 600.0), {"geofence": "RETURN", "wind": "medium"}, []),
    # the diagonal leaves through the corner (18, 18)
    "cruise out through a fence vertex": (
        DIAGONAL_LEG, cfg(200.0, 600.0), {"geofence": "WARN"}, []),
}


@pytest.mark.parametrize("case", list(RUN_CASES))
def test_runs_match_the_grid_loop(case):
    mission, config, env, steps = RUN_CASES[case]
    memo = {}
    fly_pair(config, env, mission, 7, steps, memo)
    filled = dict(memo)
    # the sibling flight replays every cruise run from the shared memo
    fly_pair(config, env, mission, 7, steps, memo)
    assert memo == filled


@pytest.mark.parametrize("mission, geofence", [
    (MISSION_C_RAW, "WARN"),
    (MISSION_C_RAW, "RETURN"),
    # runs that the clearance cut short follow each other: with one run
    # per call of _coast, this takes about 100 calls
    (DIAGONAL_LEG, "WARN"),
])
def test_fence_crossing_replays_runs(monkeypatch, mission, geofence):
    """The cruise toward the fence is replayed in runs: a per-hop fence
    check on each of its 10 ms hops would take 360 calls or more."""
    calls = 0
    ray_cast = sutmodel._point_in_polygon

    def counted(*args):
        nonlocal calls
        calls += 1
        return ray_cast(*args)

    monkeypatch.setattr(sutmodel, "_point_in_polygon", counted)
    v = make_vehicle(config=cfg(200.0, 600.0), env={"geofence": geofence},
                     mission=mission, seed=7)
    v.advance_until(math.inf)
    assert failsafes(v) == [("GEOFENCE", geofence)]
    assert 0 < calls < 50


def test_a_calm_flight_takes_few_runs_of_bounded_length(monkeypatch, mission_a):
    """A calm mission A baseline flies in a few runs, each of which builds
    no list longer than the 10 m climb needs: its 1,250 hops, the bound's
    slack of 2 and the altitude the list starts from. Runs restarted at
    fixed intervals, or lists reaching toward the ceiling, fail this."""
    runs, lengths = 0, []
    last_tick, accumulate = sutmodel._last_tick_before, sutmodel.accumulate

    def counted(bound):
        nonlocal runs
        runs += 1           # each run asks for its last tick once
        return last_tick(bound)

    def measured(*args, **kwargs):
        items = list(accumulate(*args, **kwargs))
        lengths.append(len(items))
        return iter(items)

    monkeypatch.setattr(sutmodel, "_last_tick_before", counted)
    monkeypatch.setattr(sutmodel, "accumulate", measured)
    test = make_case(action=NO_ACTION, delay_ms=0.0)
    profile = Executor(mission_a, cfg(200.0, 600.0)).execute(test)
    assert profile.mission_completed
    assert 0 < runs <= 12
    assert 0 < max(lengths) <= 1250 + 2 + 1


FENCE = tuple(tuple(map(float, p)) for p in MISSION_C_RAW["geofence_polygon"])
#: an L-shaped fence whose corner (10, 10) points inward
L_FENCE = ((0.0, 0.0), (20.0, 0.0), (20.0, 10.0), (10.0, 10.0), (10.0, 20.0), (0.0, 20.0))


@pytest.mark.parametrize("fence, x, y, hops", [
    (FENCE, 17.0, 0.0, 18),         # 1 m from the edge x = 18: 19 strides, less one
    (FENCE, 17.95, 0.0, 0),         # one stride from the edge
    (FENCE, 18.0, 0.0, 0),          # on the edge
    (FENCE, 17.0, 17.0, 18),        # 1 m from both edges at a corner
    (L_FENCE, 9.0, 9.0, 27),        # sqrt(2) m from the inward corner, 1 m from its edges' lines
    (FENCE, 19.0, 0.0, 0),          # outside
    (L_FENCE, 11.0, 11.0, 0),       # outside, in the notch
])
def test_fence_hops_keep_clear_of_the_nearest_edge(fence, x, y, hops):
    stride = 0.05
    assert _fence_hops(x, y, fence, stride) == hops
    # toward any point, that many hops of one stride stay inside
    for tx, ty in ((x + 30.0, y), (x, y + 30.0), (x + 30.0, y + 30.0), (x - 30.0, y - 30.0)):
        px, py = x, y
        for _ in range(hops):
            d = math.hypot(tx - px, ty - py)
            px, py = px + (tx - px) * stride / d, py + (ty - py) * stride / d
            assert sutmodel._point_in_polygon(px, py, fence)


def edges(name, fence):
    """Each edge of fence as (fence, start, end), its vertices in order."""
    for i, start in enumerate(fence):
        end = fence[(i + 1) % len(fence)]
        yield pytest.param(fence, start, end, id=f"{name} {start}-{end}")


@pytest.mark.parametrize("fence, start, end", [*edges("C", FENCE), *edges("L", L_FENCE)])
def test_every_edge_and_vertex_is_inside(fence, start, end):
    """Both vertices of each edge and the points along it, the top and
    right edges too, count as inside; a point half a metre out from the
    edge does not."""
    (x1, y1), (x2, y2) = start, end
    for u in (0.0, 0.25, 0.5, 0.75, 1.0):
        assert sutmodel._point_in_polygon(x1 + (x2 - x1) * u, y1 + (y2 - y1) * u, fence)
    # both fences run counterclockwise, so the outward normal is (dy, -dx)
    out = 0.5 / math.hypot(x2 - x1, y2 - y1)
    mx, my = (x1 + x2) / 2, (y1 + y2) / 2
    assert not sutmodel._point_in_polygon(mx + (y2 - y1) * out, my - (x2 - x1) * out, fence)
