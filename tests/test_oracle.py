"""Decision-tree oracle: predicates, revisions v0/v1."""

import math
from dataclasses import replace

import pytest

from statefuzz.errors import MalformedTree, MissingDatum
from statefuzz.oracle import Node, classify, default_tree, expected_mode
from statefuzz.sutmodel import NO_ACTION, AppState, AutopilotMode, RcAction, SutConfig

from helpers import fired_path, make_case, make_profile, run_case


# ---------------------------------------------------------------------------
# revisions
# ---------------------------------------------------------------------------


def test_default_tree_rejects_unknown_revision():
    with pytest.raises(MalformedTree):
        default_tree("v2")


def shape(part):
    """part with every node's predicate replaced by its name."""
    if not isinstance(part, Node):
        return part
    return (part.predicate.__name__, shape(part.on_true), shape(part.on_false))


def predicates(part) -> list:
    """Every node's predicate, depth first."""
    if not isinstance(part, Node):
        return []
    return [part.predicate, *predicates(part.on_true), *predicates(part.on_false)]


def test_revisions_differ_only_in_the_mode_mapping():
    v0, v1 = default_tree("v0"), default_tree("v1")
    assert (default_tree("v0"), default_tree("v1")) == (v0, v1)
    assert v0 != v1
    assert shape(v0) == shape(v1)
    differ = [(p0, p1) for p0, p1 in zip(predicates(v0), predicates(v1)) if p0 is not p1]
    assert [(p0.__name__, p1.__name__) for p0, p1 in differ] == [
        ("expected_mode_after_action", "expected_mode_after_action")
    ]
    # judged over every request and settled mode, from OFFBOARD: only a
    # loiter request and a throttle toggle, which the airframe realizes as
    # POSCTL, tell them apart
    (naive, rotorcraft), = differ
    apart = set()
    for action in RcAction:
        test = make_case(action=action.value)
        for mode in AutopilotMode:
            profile = make_profile(test, mode_at_injection="OFFBOARD", mode_after_settle=mode.value)
            if naive(test, profile) != rotorcraft(test, profile):
                apart.add((action.value, mode.value, rotorcraft(test, profile)))
    assert apart == {
        ("AUTO.LOITER", "POSCTL", True),
        ("AUTO.LOITER", "AUTO.LOITER", False),
        ("THROTTLE_TOGGLED", "POSCTL", True),
        ("THROTTLE_TOGGLED", "OFFBOARD", False),
    }


# ---------------------------------------------------------------------------
# expected-mode mappings
# ---------------------------------------------------------------------------


def test_expected_mode_mappings():
    assert expected_mode("AUTO.LOITER", "rotorcraft", "OFFBOARD") == "POSCTL"
    assert expected_mode("THROTTLE_TOGGLED", "rotorcraft", "OFFBOARD") == "POSCTL"
    assert expected_mode("AUTO.LOITER", "naive", "OFFBOARD") == "AUTO.LOITER"
    # the literal reading treats a throttle toggle as no mode request
    assert expected_mode("THROTTLE_TOGGLED", "naive", "OFFBOARD") == "OFFBOARD"
    assert expected_mode("AUTO.LAND", "naive", None) == "LAND"
    assert expected_mode("POSCTL", "rotorcraft", None) == "POSCTL"
    with pytest.raises(MalformedTree):
        expected_mode("POSCTL", "fixed-wing", None)


# ---------------------------------------------------------------------------
# verdicts on synthetic profiles
# ---------------------------------------------------------------------------


V1 = default_tree("v1")


def judge(test, profile, tree=V1):
    return classify(test, profile, tree)


def test_baseline_nominal():
    test = make_case(action=NO_ACTION)
    v = judge(test, make_profile(test))
    assert (v.verdict, v.reason) == ("SUCCESS", "nominal")
    assert fired_path(test, make_profile(test), V1)[0] == "injection_planned=false"


def test_baseline_incomplete_mission_fails():
    test = make_case(action=NO_ACTION)
    v = judge(test, make_profile(test, mission_completed=False))
    assert (v.verdict, v.reason) == ("FAILURE", "mission-incomplete")


def test_context_never_reached_is_invalid():
    test = make_case()
    v = judge(test, make_profile(test, context_reached=False))
    assert (v.verdict, v.reason) == ("INVALID", "context-not-met")


def test_wrong_context_is_invalid():
    test = make_case(app_state=AppState.HOVERING)
    v = judge(test, make_profile(test, injection_app_state="DONE"))
    assert (v.verdict, v.reason) == ("INVALID", "wrong-context")


def test_ignored_injection_fails():
    test = make_case()
    v = judge(test, make_profile(test, acknowledged=False))
    assert (v.verdict, v.reason) == ("FAILURE", "mode-change-ignored")
    path = fired_path(test, make_profile(test, acknowledged=False), V1)
    assert path[-1] == "mode_change_deferred=false"


def test_deferred_injection_fails_differently():
    test = make_case()
    v = judge(test, make_profile(test, acknowledged=False, deferred=True))
    assert (v.verdict, v.reason) == ("FAILURE", "mode-change-delayed")


def test_jerk_flag_fails_as_thrashing():
    test = make_case(action="OFFBOARD")
    v = judge(test, make_profile(test, jerk_flag=True, mode_after_settle="OFFBOARD"))
    assert (v.verdict, v.reason) == ("FAILURE", "thrashing")


def test_oscillation_threshold_defaults_to_three():
    test = make_case(action="OFFBOARD")
    ok = make_profile(test, oscillation_count=2, mode_after_settle="OFFBOARD")
    assert judge(test, ok).reason != "mode-oscillation"
    bad = make_profile(test, oscillation_count=3, mode_after_settle="OFFBOARD")
    assert (judge(test, bad).verdict, judge(test, bad).reason) == ("FAILURE", "mode-oscillation")


def test_unexpected_mode_fails():
    test = make_case(action="POSCTL")
    v = judge(test, make_profile(test, mode_after_settle="OFFBOARD", mission_completed=False))
    assert (v.verdict, v.reason) == ("FAILURE", "unexpected-mode")


def test_dirty_shutdown_fails():
    test = make_case(action="STABILIZED")
    profile = make_profile(
        test,
        mode_after_settle="STABILIZED",
        mission_completed=False,
        exceptions=("disarm-timeout",),
    )
    v = judge(test, profile)
    assert (v.verdict, v.reason) == ("FAILURE", "disarm-failure")


def test_takeover_expects_an_incomplete_mission():
    test = make_case(action="POSCTL")
    parked = make_profile(test, mode_after_settle="POSCTL", mission_completed=False)
    assert judge(test, parked).reason == "action-honored"
    finished = make_profile(test, mode_after_settle="POSCTL", mission_completed=True)
    assert judge(test, finished).reason == "mission-incomplete"


def test_path_deviation_fails_past_threshold():
    test = make_case(action="POSCTL", wind="high")

    def reason(deviation_m):
        profile = make_profile(test, mode_after_settle="POSCTL", mission_completed=False,
                               path_deviation_max_m=deviation_m)
        return judge(test, profile).reason

    assert reason(5.0) == "action-honored"
    assert reason(math.nextafter(5.0, math.inf)) == "path-deviation"
    assert reason(7.5) == "path-deviation"


@pytest.mark.parametrize("disturbance, alert", [("gps_noise", "DEGRADED_GPS"),
                                                ("compass_interference", "DEGRADED_COMPASS")])
def test_only_high_disturbance_expects_an_alert(disturbance, alert):
    medium = make_case(action=NO_ACTION, **{disturbance: "medium"})
    v = judge(medium, make_profile(medium))
    assert (v.verdict, v.reason) == ("SUCCESS", "nominal")
    alerted = make_profile(medium, failsafe_events=((9000.0, alert, "medium"),))
    assert judge(medium, alerted).reason == "failsafe-mismatch"
    high = make_case(action=NO_ACTION, **{disturbance: "high"})
    v = judge(high, make_profile(high))
    assert (v.verdict, v.reason) == ("FAILURE", "failsafe-mismatch")


def test_missing_degradation_alert_is_a_failsafe_mismatch():
    test = make_case(action="POSCTL", gps_noise="high")
    quiet = make_profile(test, mode_after_settle="POSCTL", mission_completed=False)
    assert judge(test, quiet).reason == "failsafe-mismatch"
    alerted = make_profile(
        test,
        mode_after_settle="POSCTL",
        mission_completed=False,
        failsafe_events=((9000.0, "DEGRADED_GPS", "high"),),
    )
    assert judge(test, alerted).reason == "action-honored"


def test_unanswerable_predicate_raises_missing_datum():
    test = make_case()
    profile = replace(make_profile(test), app_state_at_injection=None)
    with pytest.raises(MissingDatum):
        judge(test, profile)
    no_settle = make_profile(test, mode_after_settle=None)
    with pytest.raises(MissingDatum):
        judge(test, no_settle)


def test_fired_path_records_every_step():
    test = make_case(action=NO_ACTION)
    assert fired_path(test, make_profile(test), V1) == (
        "injection_planned=false",
        "mission_completed_when_expected=true",
        "shutdown_clean=true",
        "oscillation_count=false",
        "path_deviation_max=true",
        "failsafe_fired_when_expected=true",
    )


# ---------------------------------------------------------------------------
# verdicts on real flights
# ---------------------------------------------------------------------------


def test_f2_flight_verdicts(mission_a):
    cfg = SutConfig(latency_window_ms=(200.0, 600.0), seeded_faults=("F2",))
    _, early = run_case(make_case(delay_ms=100.0), mission_a, cfg)
    assert (early.verdict, early.reason) == ("FAILURE", "mode-change-ignored")
    _, late = run_case(make_case(delay_ms=700.0), mission_a, cfg)
    assert (late.verdict, late.reason) == ("SUCCESS", "action-honored")


def test_f3_flight_verdict(mission_a):
    cfg = SutConfig(latency_window_ms=(200.0, 600.0), seeded_faults=("F3",))
    test = make_case(
        app_state=AppState.LANDING,
        target_mode=AutopilotMode.LAND,
        action="OFFBOARD",
        delay_ms=150.0,
    )
    _, v = run_case(test, mission_a, cfg)
    assert (v.verdict, v.reason) == ("FAILURE", "thrashing")


def test_f8_flight_verdict(mission_a):
    cfg = SutConfig(latency_window_ms=(200.0, 600.0), seeded_faults=("F8",))
    test = make_case(
        app_state=AppState.LANDING,
        target_mode=AutopilotMode.LAND,
        action="STABILIZED",
        delay_ms=150.0,
    )
    _, v = run_case(test, mission_a, cfg)
    assert (v.verdict, v.reason) == ("FAILURE", "disarm-failure")


def test_f6_baseline_verdict(mission_a):
    cfg = SutConfig(latency_window_ms=(200.0, 600.0), seeded_faults=("F6",))
    test = make_case(action=NO_ACTION, gps_noise="high")
    _, v = run_case(test, mission_a, cfg)
    assert (v.verdict, v.reason) == ("FAILURE", "mode-oscillation")
    healthy = SutConfig(latency_window_ms=(200.0, 600.0))
    _, v = run_case(test, mission_a, healthy)
    assert (v.verdict, v.reason) == ("SUCCESS", "nominal")


def test_loiter_and_throttle_depend_on_the_revision(mission_a, narrow_config):
    for action in ("AUTO.LOITER", "THROTTLE_TOGGLED"):
        test = make_case(
            app_state=AppState.FLYING_TO_WAYPOINT, action=action, delay_ms=300.0
        )
        profile, v1_verdict = run_case(test, mission_a, narrow_config, version="v1")
        assert (v1_verdict.verdict, v1_verdict.reason) == ("SUCCESS", "action-honored")
        v0_verdict = classify(test, profile, default_tree("v0"))
        assert (v0_verdict.verdict, v0_verdict.reason) == ("FAILURE", "unexpected-mode")
