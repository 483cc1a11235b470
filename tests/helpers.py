"""Hand-built pipeline objects shared across test modules."""

from __future__ import annotations

from statefuzz.executor import PROFILE_FIELDS, ExecutionProfile, Executor, trace_digest
from statefuzz.oracle import Node, classify, default_tree
from statefuzz.sutmodel import AppState, AutopilotMode, summarize_events
from statefuzz.testgen import TestCase


def make_case(
    app_state=AppState.TAKEOFF,
    action="POSCTL",
    delay_ms=100.0,
    *,
    target_mode=AutopilotMode.OFFBOARD,
    band=("short", 50.0, 1200.0),
    throttle="mid",
    geofence="none",
    wind="none",
    gps_noise="none",
    compass_interference="none",
    recurring=False,
    seed=7,
    test_id="t-hand",
    index=0,
    mission_id="Flight plan A",
    spec_id="spec",
    repetition=0,
):
    name, lo, hi = band
    return TestCase(
        test_id=test_id,
        index=index,
        spec_id=spec_id,
        mission_id=mission_id,
        app_state=app_state,
        target_mode=target_mode,
        recurring=recurring,
        action=action,
        band_name=name,
        band_min_ms=lo,
        band_max_ms=hi,
        delay_ms=delay_ms,
        throttle=throttle,
        geofence=geofence,
        wind=wind,
        gps_noise=gps_noise,
        compass_interference=compass_interference,
        seed=seed,
        repetition=repetition,
    )


def column(name: str) -> int:
    """Where a results-log row (as iter_results gives it) holds the profile
    field name; tests read and edit raw rows only through it."""
    return PROFILE_FIELDS.index(name)


def fly_traced(executor, test):
    """test's profile and its flight's trace, as summarize_events builds it
    from the vehicle's event log."""
    profile, events = executor.fly(test)
    return profile, summarize_events(events)["trace"]


def run_case(test, mission, config, version="v1"):
    """Execute one case on a fresh vehicle and judge it."""
    profile = Executor(mission, config).execute(test)
    verdict = classify(test, profile, default_tree(version))
    return profile, verdict


def make_profile(
    test,
    *,
    mode_at_injection="OFFBOARD",
    injection_app_state=None,
    acknowledged=True,
    deferred=False,
    mode_after_settle=None,
    final_app_state="DONE",
    final_mode="LAND",
    mission_completed=True,
    context_reached=True,
    jerk_flag=False,
    oscillation_count=0,
    path_deviation_max_m=0.0,
    failsafe_events=(),
    exceptions=(),
    flight_duration_ms=34000.0,
    trace=(),
):
    """Synthetic profile for oracle/analysis tests; it holds trace as its
    trace_digest.

    A test with action NONE (the executor waits for no context), or one
    whose context was never reached, has no context time and no injection:
    its injection fields are unset, matching what the executor emits for
    those runs.
    """
    injected = test.action != "NONE" and context_reached
    return ExecutionProfile(
        test_id=test.test_id,
        context_reached_time_ms=1000.0 if injected else None,
        app_state_at_injection=(
            (test.app_state.value if injection_app_state is None else injection_app_state)
            if injected else None
        ),
        mode_at_injection=mode_at_injection if injected else None,
        injection_acknowledged=acknowledged if injected else None,
        injection_deferred=deferred and injected,
        mode_after_settle=mode_after_settle,
        final_app_state=final_app_state,
        final_mode=final_mode,
        mission_completed=mission_completed,
        flight_duration_ms=flight_duration_ms,
        path_deviation_max_m=path_deviation_max_m,
        jerk_flag=jerk_flag,
        oscillation_count=oscillation_count,
        failsafe_events=tuple(failsafe_events),
        exceptions=tuple(exceptions),
        trace_digest=trace_digest(tuple(trace)),
    )


def fired_path(test, profile, tree) -> tuple[str, ...]:
    """Each predicate classify meets on its way to the leaf that judges the
    run, as "predicate=outcome", in order; checks that classify ends at
    that leaf."""
    path, node = [], tree
    while isinstance(node, Node):
        outcome = bool(node.predicate(test, profile))
        path.append(f"{node.predicate.__name__}={str(outcome).lower()}")
        node = node.on_true if outcome else node.on_false
    assert classify(test, profile, tree) is node
    return tuple(path)
