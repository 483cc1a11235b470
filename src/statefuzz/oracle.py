"""Verdict assignment: a decision tree of predicates.

The oracle is a tree of nodes, each holding a predicate over one test
case and its execution profile and routing to a true/false branch, ending
in leaves that are the verdicts (a verdict and a reason code) they give.
A predicate is named by its __name__. The limits are module constants:
OSCILLATION_LIMIT returns to a mode, PATH_DEVIATION_LIMIT_M metres off
the planned path, and a degradation alert expected once GPS noise or
compass interference reaches ALERT_LEVEL. A campaign records the revision that judged it by name
(default_tree builds each one), and a stored campaign can be re-judged
under the other revision without re-flying.

Two built-in revisions exist. They differ in a single predicate: how an
honored action is expected to realize as a flight mode. The naive mapping
("v0") takes requests literally (a loiter request should yield AUTO.LOITER,
a throttle toggle should change nothing); the rotorcraft mapping ("v1")
knows this airframe realizes both as POSCTL. Everything else is shared.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Union

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

#: this many returns to a mode within the oscillation window is a failure
OSCILLATION_LIMIT = 3
#: the farthest a flight may stray from its planned path, in metres
PATH_DEVIATION_LIMIT_M = 5.0
#: the GPS noise and compass interference level that must raise an alert
ALERT_LEVEL = "high"

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


def injection_planned(test: TestCase, profile: ExecutionProfile) -> bool:
    return test.action != NO_ACTION


def context_reached(test: TestCase, profile: ExecutionProfile) -> bool:
    return profile.context_reached


def injection_in_target_context(test: TestCase, profile: ExecutionProfile) -> bool:
    at = _need(profile.app_state_at_injection, "app_state_at_injection")
    return at == test.app_state.value


def injection_acknowledged(test: TestCase, profile: ExecutionProfile) -> bool:
    return _need(profile.injection_acknowledged, "injection_acknowledged")


def mode_change_deferred(test: TestCase, profile: ExecutionProfile) -> bool:
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


def _expecting(mapping: str) -> Callable[[TestCase, ExecutionProfile], bool]:
    """The expected-mode predicate under one mapping."""

    def expected_mode_after_action(test: TestCase, profile: ExecutionProfile) -> bool:
        settled = _need(profile.mode_after_settle, "mode_after_settle")
        return settled == expected_mode(test.action, mapping, profile.mode_at_injection)

    return expected_mode_after_action


#: revision -> its expected-mode predicate, built once so that two trees of
#: one revision are equal
_MODE_PREDICATE = {"v0": _expecting("naive"), "v1": _expecting("rotorcraft")}


def oscillation_count(test: TestCase, profile: ExecutionProfile) -> bool:
    return profile.oscillation_count >= OSCILLATION_LIMIT


def jerk_flag(test: TestCase, profile: ExecutionProfile) -> bool:
    return profile.jerk_flag


def path_deviation_max(test: TestCase, profile: ExecutionProfile) -> bool:
    return profile.path_deviation_max_m <= PATH_DEVIATION_LIMIT_M


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


def mission_completed_when_expected(test: TestCase, profile: ExecutionProfile) -> bool:
    return profile.mission_completed == _expected_completion(test, profile)


def failsafe_fired_when_expected(test: TestCase, profile: ExecutionProfile) -> bool:
    kinds = [kind for _t, kind, _d in profile.failsafe_events]
    for _t, kind, detail in profile.failsafe_events:
        if kind == "GEOFENCE":
            if test.geofence == "none" or detail != test.geofence:
                return False
    want_gps = reaches(test.gps_noise, ALERT_LEVEL)
    if want_gps != ("DEGRADED_GPS" in kinds):
        return False
    want_compass = reaches(test.compass_interference, ALERT_LEVEL)
    if want_compass != ("DEGRADED_COMPASS" in kinds):
        return False
    return True


def shutdown_clean(test: TestCase, profile: ExecutionProfile) -> bool:
    return not any(e in ("disarm-timeout", "sim-timeout") for e in profile.exceptions)


# ---------------------------------------------------------------------------
# tree structure
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Node:
    """A branch on predicate, named by its __name__; a leaf is a Verdict."""

    predicate: Callable[[TestCase, ExecutionProfile], bool]
    on_true: Union["Node", Verdict]
    on_false: Union["Node", Verdict]


def classify(test: TestCase, profile: ExecutionProfile, tree: Node) -> Verdict:
    """Walk the tree for one run to the leaf that judges it."""
    node = tree
    while isinstance(node, Node):
        node = node.on_true if node.predicate(test, profile) else node.on_false
    return node


# ---------------------------------------------------------------------------
# built-in revisions
# ---------------------------------------------------------------------------


def default_tree(version: str = "v1") -> Node:
    """The built-in oracle; 'v0' reads mode requests literally, 'v1' uses
    the rotorcraft realization mapping. All other checks are identical."""
    if version not in _MODE_PREDICATE:
        raise MalformedTree(f"no built-in oracle revision {version!r}")

    def fail(reason: str) -> Verdict:
        return Verdict(FAILURE, reason)

    def within_bounds(reason: str) -> Node:
        """SUCCESS (reason) for a path within bounds whose failsafes fired as expected."""
        return Node(
            path_deviation_max,
            Node(failsafe_fired_when_expected, Verdict(SUCCESS, reason), fail("failsafe-mismatch")),
            fail("path-deviation"),
        )

    baseline = Node(
        mission_completed_when_expected,
        Node(
            shutdown_clean,
            Node(oscillation_count, fail("mode-oscillation"), within_bounds("nominal")),
            fail("disarm-failure"),
        ),
        fail("mission-incomplete"),
    )
    honored = Node(
        _MODE_PREDICATE[version],
        Node(
            shutdown_clean,
            Node(mission_completed_when_expected, within_bounds("action-honored"),
                 fail("mission-incomplete")),
            fail("disarm-failure"),
        ),
        fail("unexpected-mode"),
    )
    acknowledged = Node(
        jerk_flag,
        fail("thrashing"),
        Node(oscillation_count, fail("mode-oscillation"), honored),
    )
    missed = Node(mode_change_deferred, fail("mode-change-delayed"), fail("mode-change-ignored"))
    injected = Node(
        context_reached,
        Node(
            injection_in_target_context,
            Node(injection_acknowledged, acknowledged, missed),
            Verdict(INVALID, "wrong-context"),
        ),
        Verdict(INVALID, "context-not-met"),
    )
    return Node(injection_planned, injected, baseline)
