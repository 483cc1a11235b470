"""Verdict assignment: a decision tree over a closed predicate registry.

The oracle is data, not code: a tree of nodes, each naming a registered
predicate (with optional parameters) and routing to a true/false branch,
ending in leaves that carry a verdict and a reason code. Trees serialize
to JSON, so a campaign records exactly which oracle judged it and a stored
campaign can be re-judged by a different tree revision without re-flying.

Two built-in revisions exist. They differ in a single parameter: how an
honored action is expected to realize as a flight mode. The naive mapping
("v0") takes requests literally (a loiter request should yield AUTO.LOITER,
a throttle toggle should change nothing); the rotorcraft mapping ("v1")
knows this airframe realizes both as POSCTL. Everything else is shared.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional, Union

from .errors import MalformedTree, MissingDatum, UnknownPredicate
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

_VERDICTS = (SUCCESS, FAILURE, INVALID)

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


#: name -> (callable, allowed parameter names)
PREDICATES: dict[str, tuple[Callable[[TestCase, ExecutionProfile, Mapping], bool], frozenset]] = {
    "injection_planned": (_p_injection_planned, frozenset()),
    "context_reached": (_p_context_reached, frozenset()),
    "injection_in_target_context": (_p_injection_in_target_context, frozenset()),
    "injection_acknowledged": (_p_injection_acknowledged, frozenset()),
    "mode_change_deferred": (_p_mode_change_deferred, frozenset()),
    "expected_mode_after_action": (_p_expected_mode_after_action, frozenset({"mapping"})),
    "oscillation_count": (_p_oscillation_count, frozenset({"threshold"})),
    "jerk_flag": (_p_jerk_flag, frozenset()),
    "path_deviation_max": (_p_path_deviation_max, frozenset({"threshold"})),
    "mission_completed_when_expected": (_p_mission_completed_when_expected, frozenset()),
    "failsafe_fired_when_expected": (
        _p_failsafe_fired_when_expected,
        frozenset({"gps_alert_level", "compass_alert_level"}),
    ),
    "shutdown_clean": (_p_shutdown_clean, frozenset()),
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

_MAX_DEPTH = 64


def parse_tree(raw: dict, _depth: int = 0) -> TreePart:
    """Build a tree from its JSON form, validating structure and vocabulary."""
    if _depth > _MAX_DEPTH:
        raise MalformedTree(f"tree deeper than {_MAX_DEPTH}; refusing")
    if not isinstance(raw, dict):
        raise MalformedTree(f"tree node must be an object, got {type(raw).__name__}")
    if "verdict" in raw:
        extra = set(raw) - {"verdict", "reason"}
        if extra:
            raise MalformedTree(f"leaf has unknown keys {sorted(extra)}")
        verdict = raw["verdict"]
        if verdict not in _VERDICTS:
            raise MalformedTree(f"leaf verdict must be one of {_VERDICTS}, got {verdict!r}")
        reason = raw.get("reason")
        if not isinstance(reason, str) or not reason:
            raise MalformedTree("leaf needs a non-empty reason string")
        return Leaf(verdict, reason)
    extra = set(raw) - {"predicate", "params", "true", "false"}
    if extra:
        raise MalformedTree(f"node has unknown keys {sorted(extra)}")
    for key in ("predicate", "true", "false"):
        if key not in raw:
            raise MalformedTree(f"node is missing {key!r}")
    name = raw["predicate"]
    if name not in PREDICATES:
        raise UnknownPredicate(f"predicate {name!r} is not registered")
    params = raw.get("params", {})
    if not isinstance(params, dict):
        raise MalformedTree(f"params of {name!r} must be an object")
    allowed = PREDICATES[name][1]
    bad = set(params) - allowed
    if bad:
        raise MalformedTree(f"predicate {name!r} does not take params {sorted(bad)}")
    return Node(
        predicate=name,
        params=dict(params),
        on_true=parse_tree(raw["true"], _depth + 1),
        on_false=parse_tree(raw["false"], _depth + 1),
    )


def serialize_tree(part: TreePart) -> dict:
    if isinstance(part, Leaf):
        return {"verdict": part.verdict, "reason": part.reason}
    out: dict = {"predicate": part.predicate}
    if part.params:
        out["params"] = dict(part.params)
    out["true"] = serialize_tree(part.on_true)
    out["false"] = serialize_tree(part.on_false)
    return out


def classify(test: TestCase, profile: ExecutionProfile, tree: TreePart) -> Verdict:
    """Walk the tree for one run to the leaf that judges it."""
    node = tree
    while isinstance(node, Node):
        fn, _allowed = PREDICATES[node.predicate]
        node = node.on_true if fn(test, profile, node.params) else node.on_false
    return Verdict(node.verdict, node.reason)


# ---------------------------------------------------------------------------
# built-in revisions
# ---------------------------------------------------------------------------


def _leaf(verdict: str, reason: str) -> dict:
    return {"verdict": verdict, "reason": reason}


def default_tree(version: str = "v1") -> TreePart:
    """The built-in oracle; 'v0' reads mode requests literally, 'v1' uses
    the rotorcraft realization mapping. All other checks are identical."""
    if version not in ("v0", "v1"):
        raise MalformedTree(f"no built-in oracle revision {version!r}")
    mapping = "naive" if version == "v0" else "rotorcraft"

    nominal_tail = {
        "predicate": "oscillation_count",
        "true": _leaf(FAILURE, "mode-oscillation"),
        "false": {
            "predicate": "path_deviation_max",
            "params": {"threshold": 5.0},
            "true": {
                "predicate": "failsafe_fired_when_expected",
                "true": _leaf(SUCCESS, "nominal"),
                "false": _leaf(FAILURE, "failsafe-mismatch"),
            },
            "false": _leaf(FAILURE, "path-deviation"),
        },
    }
    baseline_branch = {
        "predicate": "mission_completed_when_expected",
        "true": {
            "predicate": "shutdown_clean",
            "true": nominal_tail,
            "false": _leaf(FAILURE, "disarm-failure"),
        },
        "false": _leaf(FAILURE, "mission-incomplete"),
    }
    honored_tail = {
        "predicate": "expected_mode_after_action",
        "params": {"mapping": mapping},
        "true": {
            "predicate": "shutdown_clean",
            "true": {
                "predicate": "mission_completed_when_expected",
                "true": {
                    "predicate": "path_deviation_max",
                    "params": {"threshold": 5.0},
                    "true": {
                        "predicate": "failsafe_fired_when_expected",
                        "true": _leaf(SUCCESS, "action-honored"),
                        "false": _leaf(FAILURE, "failsafe-mismatch"),
                    },
                    "false": _leaf(FAILURE, "path-deviation"),
                },
                "false": _leaf(FAILURE, "mission-incomplete"),
            },
            "false": _leaf(FAILURE, "disarm-failure"),
        },
        "false": _leaf(FAILURE, "unexpected-mode"),
    }
    injected_branch = {
        "predicate": "context_reached",
        "true": {
            "predicate": "injection_in_target_context",
            "true": {
                "predicate": "injection_acknowledged",
                "true": {
                    "predicate": "jerk_flag",
                    "true": _leaf(FAILURE, "thrashing"),
                    "false": {
                        "predicate": "oscillation_count",
                        "true": _leaf(FAILURE, "mode-oscillation"),
                        "false": honored_tail,
                    },
                },
                "false": {
                    "predicate": "mode_change_deferred",
                    "true": _leaf(FAILURE, "mode-change-delayed"),
                    "false": _leaf(FAILURE, "mode-change-ignored"),
                },
            },
            "false": _leaf(INVALID, "wrong-context"),
        },
        "false": _leaf(INVALID, "context-not-met"),
    }
    raw = {
        "predicate": "injection_planned",
        "true": injected_branch,
        "false": baseline_branch,
    }
    return parse_tree(raw)
