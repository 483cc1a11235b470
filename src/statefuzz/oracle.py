"""Verdict assignment: a decision tree over a closed predicate registry.

The oracle is data, not code: a tree of nodes, each naming a registered
predicate (with optional parameters) and routing to a true/false branch,
ending in leaves that carry a verdict and a reason code. A campaign
records the revision that judged it by name (default_tree builds each
one), and a stored campaign can be re-judged under the other revision
without re-flying.

Two built-in revisions exist. They differ in a single parameter: how an
honored action is expected to realize as a flight mode. The naive mapping
("v0") takes requests literally (a loiter request should yield AUTO.LOITER,
a throttle toggle should change nothing); the rotorcraft mapping ("v1")
knows this airframe realizes both as POSCTL. Everything else is shared.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional, Union

from .errors import MalformedTree, MissingDatum
from .executor import ExecutionProfile
from .sutmodel import (
    NO_ACTION,
    REALIZED_MODE,
    TAKEOVER_MODES,
    AppState,
    AutopilotMode,
    RcAction,
    reaches,
)
from .testgen import TestCase

SUCCESS = "SUCCESS"
FAILURE = "FAILURE"
INVALID = "INVALID"

#: literal request-to-mode reading: what a fixed-wing style interpretation
#: would expect; the airframe actually follows REALIZED_MODE
_NAIVE_MODE = {
    RcAction.ALTCTL: AutopilotMode.ALTCTL,
    RcAction.POSCTL: AutopilotMode.POSCTL,
    RcAction.STABILIZED: AutopilotMode.STABILIZED,
    RcAction.OFFBOARD: AutopilotMode.OFFBOARD,
    RcAction.AUTO_LOITER: AutopilotMode.AUTO_LOITER,
    RcAction.AUTO_LAND: AutopilotMode.LAND,
    RcAction.AUTO_RTL: AutopilotMode.RTL,
    # a throttle toggle is not a mode request at all in the literal reading
    RcAction.THROTTLE_TOGGLED: None,
}


@dataclass(frozen=True)
class Verdict:
    verdict: str
    reason: str


# ---------------------------------------------------------------------------
# predicates
# ---------------------------------------------------------------------------


def _need(value, name: str):
    if value is None:
        raise MissingDatum(f"profile lacks {name}; the tree reached a predicate it cannot answer")
    return value


def _p_injection_planned(test: TestCase, profile: ExecutionProfile, params: Mapping) -> bool:
    return test.action != NO_ACTION


def _p_context_reached(test: TestCase, profile: ExecutionProfile, params: Mapping) -> bool:
    return profile.context_reached


def _p_injection_in_target_context(
    test: TestCase, profile: ExecutionProfile, params: Mapping
) -> bool:
    at = _need(profile.app_state_at_injection, "app_state_at_injection")
    return at == test.app_state.value


def _p_injection_acknowledged(test: TestCase, profile: ExecutionProfile, params: Mapping) -> bool:
    return _need(profile.injection_acknowledged, "injection_acknowledged")


def _p_mode_change_deferred(test: TestCase, profile: ExecutionProfile, params: Mapping) -> bool:
    return profile.injection_deferred


def expected_mode(action: str, mapping: str, mode_at_injection: Optional[str]) -> Optional[str]:
    """What mode an honored action should settle into, under a mapping."""
    act = RcAction(action)
    if mapping == "rotorcraft":
        return REALIZED_MODE[act].value
    if mapping == "naive":
        literal = _NAIVE_MODE[act]
        if literal is None:
            return mode_at_injection  # expected: no change at all
        return literal.value
    raise MalformedTree(f"unknown mode mapping {mapping!r}")


def _p_expected_mode_after_action(
    test: TestCase, profile: ExecutionProfile, params: Mapping
) -> bool:
    mapping = params.get("mapping", "rotorcraft")
    settled = _need(profile.mode_after_settle, "mode_after_settle")
    want = expected_mode(test.action, mapping, profile.mode_at_injection)
    return settled == want


def _p_oscillation_count(test: TestCase, profile: ExecutionProfile, params: Mapping) -> bool:
    threshold = params.get("threshold", 3)
    return profile.oscillation_count >= threshold


def _p_jerk_flag(test: TestCase, profile: ExecutionProfile, params: Mapping) -> bool:
    return profile.jerk_flag


def _p_path_deviation_max(test: TestCase, profile: ExecutionProfile, params: Mapping) -> bool:
    threshold = params.get("threshold", 5.0)
    return profile.path_deviation_max_m <= threshold


def _expected_completion(test: TestCase, profile: ExecutionProfile) -> bool:
    # environment-triggered aborts are expected to cut the mission short
    for _t, kind, detail in profile.failsafe_events:
        if kind == "GEOFENCE" and detail in ("RETURN", "LAND"):
            return False
    if test.action == NO_ACTION or not profile.injection_acknowledged:
        return True
    act = RcAction(test.action)
    realized = REALIZED_MODE[act]
    if realized in TAKEOVER_MODES:
        return False  # operator takeover parks the plan
    if act is RcAction.OFFBOARD:
        return True  # reactivation resumes the plan
    at = profile.app_state_at_injection
    if act is RcAction.AUTO_LAND:
        # landing while already hovering/landing/disarmed-at-home is the plan
        return at in (
            AppState.HOVERING.value,
            AppState.LANDING.value,
            AppState.DISARMING.value,
        )
    if act is RcAction.AUTO_RTL:
        return at == AppState.DISARMING.value  # on the ground it is a no-op
    return True


def _p_mission_completed_when_expected(
    test: TestCase, profile: ExecutionProfile, params: Mapping
) -> bool:
    return profile.mission_completed == _expected_completion(test, profile)


def _p_failsafe_fired_when_expected(
    test: TestCase, profile: ExecutionProfile, params: Mapping
) -> bool:
    gps_alert = params.get("gps_alert_level", "high")
    compass_alert = params.get("compass_alert_level", "high")
    kinds = [kind for _t, kind, _d in profile.failsafe_events]
    for _t, kind, detail in profile.failsafe_events:
        if kind == "GEOFENCE":
            if test.geofence == "none" or detail != test.geofence:
                return False
    want_gps = reaches(test.gps_noise, gps_alert)
    if want_gps != ("DEGRADED_GPS" in kinds):
        return False
    want_compass = reaches(test.compass_interference, compass_alert)
    if want_compass != ("DEGRADED_COMPASS" in kinds):
        return False
    return True


def _p_shutdown_clean(test: TestCase, profile: ExecutionProfile, params: Mapping) -> bool:
    return not any(e in ("disarm-timeout", "sim-timeout") for e in profile.exceptions)


#: name -> the predicate a tree node names
PREDICATES: dict[str, Callable[[TestCase, ExecutionProfile, Mapping], bool]] = {
    "injection_planned": _p_injection_planned,
    "context_reached": _p_context_reached,
    "injection_in_target_context": _p_injection_in_target_context,
    "injection_acknowledged": _p_injection_acknowledged,
    "mode_change_deferred": _p_mode_change_deferred,
    "expected_mode_after_action": _p_expected_mode_after_action,
    "oscillation_count": _p_oscillation_count,
    "jerk_flag": _p_jerk_flag,
    "path_deviation_max": _p_path_deviation_max,
    "mission_completed_when_expected": _p_mission_completed_when_expected,
    "failsafe_fired_when_expected": _p_failsafe_fired_when_expected,
    "shutdown_clean": _p_shutdown_clean,
}


# ---------------------------------------------------------------------------
# tree structure
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Leaf:
    verdict: str
    reason: str


@dataclass(frozen=True)
class Node:
    predicate: str
    on_true: Union["Node", Leaf]
    on_false: Union["Node", Leaf]
    params: Mapping = field(default_factory=dict)


TreePart = Union[Node, Leaf]


def classify(test: TestCase, profile: ExecutionProfile, tree: TreePart) -> Verdict:
    """Walk the tree for one run to the leaf that judges it."""
    node = tree
    while isinstance(node, Node):
        fn = PREDICATES[node.predicate]
        node = node.on_true if fn(test, profile, node.params) else node.on_false
    return Verdict(node.verdict, node.reason)


# ---------------------------------------------------------------------------
# built-in revisions
# ---------------------------------------------------------------------------


def default_tree(version: str = "v1") -> TreePart:
    """The built-in oracle; 'v0' reads mode requests literally, 'v1' uses
    the rotorcraft realization mapping. All other checks are identical."""
    if version not in ("v0", "v1"):
        raise MalformedTree(f"no built-in oracle revision {version!r}")
    mapping = "naive" if version == "v0" else "rotorcraft"

    def fail(reason: str) -> Leaf:
        return Leaf(FAILURE, reason)

    def within_bounds(reason: str) -> Node:
        """SUCCESS (reason) for a path within 5 m whose failsafes fired as expected."""
        return Node(
            "path_deviation_max",
            Node("failsafe_fired_when_expected", Leaf(SUCCESS, reason), fail("failsafe-mismatch")),
            fail("path-deviation"),
            {"threshold": 5.0},
        )

    baseline = Node(
        "mission_completed_when_expected",
        Node(
            "shutdown_clean",
            Node("oscillation_count", fail("mode-oscillation"), within_bounds("nominal")),
            fail("disarm-failure"),
        ),
        fail("mission-incomplete"),
    )
    honored = Node(
        "expected_mode_after_action",
        Node(
            "shutdown_clean",
            Node("mission_completed_when_expected", within_bounds("action-honored"),
                 fail("mission-incomplete")),
            fail("disarm-failure"),
        ),
        fail("unexpected-mode"),
        {"mapping": mapping},
    )
    acknowledged = Node(
        "jerk_flag",
        fail("thrashing"),
        Node("oscillation_count", fail("mode-oscillation"), honored),
    )
    missed = Node("mode_change_deferred", fail("mode-change-delayed"), fail("mode-change-ignored"))
    injected = Node(
        "context_reached",
        Node(
            "injection_in_target_context",
            Node("injection_acknowledged", acknowledged, missed),
            Leaf(INVALID, "wrong-context"),
        ),
        Leaf(INVALID, "context-not-met"),
    )
    return Node("injection_planned", injected, baseline)
