"""Parsing and validation of fuzz specifications and mission plans.

A fuzz specification is a JSON document with a fixed, closed vocabulary:

    {
      "FROM_PX4_modes":   ["OFFBOARD", "LAND"],
      "FROM_APP_states":  ["TAKEOFF", "FLYING_TO_WAYPOINT", ...],
      "RC_INPUT_EVENTS":  ["ALTCTL", "POSCTL", "STABILIZED"],
      "ENVIRONMENT": {
        "transition_delay": {"bands": {"short": {"min": 50, "max": 200}, ...}},
        "throttle": ["mid"], "geofence": ["none"], "wind": ["none"],
        "GPS": ["none"], "COMPASS_INTERFERENCE": ["none"]
      },
      "MISSION_CONTEXT": ["Flight plan A"],
      "CONSTRAINTS": {"REQUIRES_PX4_MODE": {"OFFBOARD": ["TAKEOFF", ...], ...}}
    }

Each environment axis but the delay is named by its ENVIRONMENT key in the
document and by a field of EnvironmentSpace and TestCase in code; the two
differ for ``GPS`` (field ``gps_noise``) and ``COMPASS_INTERFERENCE`` (field
``compass_interference``). ENV_TABLE pairs them, in sweep order.

MISSION_CONTEXT lists the ids of the mission plans the spec may fly. A
campaign flies one of them, and testgen.generate refuses any other.

Unknown keys are rejected at every level, as are values outside the state,
mode, action and level vocabularies. A trailing ``*`` on an app state (in
FROM_APP_states or in a constraint value) marks it as recurring once per
waypoint leg; injection targets its first occurrence.

Mission plans are separate JSON documents (id, waypoints, cruise speed,
optional geofence polygon, optional expected state sequence). When the
sequence is omitted it is derived from the waypoint count; when present it
is validated against it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Optional

from .errors import (
    BandError,
    ConfigError,
    ConstraintError,
    GeometryError,
    SequenceError,
    VocabularyError,
    naming,
)
from .sutmodel import (
    CONSTRAINT_MODES,
    GEOFENCE_SETTINGS,
    INTENSITY_LEVELS,
    TARGETABLE_STATES,
    THROTTLE_LEVELS,
    AppState,
    AutopilotMode,
    RcAction,
    SutConfig,
    is_number,
)

#: the largest magnitude of a mission coordinate (m) and of its cruise speed
#: (m/s): far beyond a small drone's range, and small enough that the
#: simulator's squared distances stay finite
MISSION_LIMIT = 1e5

_TOP_KEYS = (
    "FROM_PX4_modes",
    "FROM_APP_states",
    "RC_INPUT_EVENTS",
    "ENVIRONMENT",
    "MISSION_CONTEXT",
    "CONSTRAINTS",
)
#: the environment axes, in sweep order: the field EnvironmentSpace and
#: TestCase name each by, its key under ENVIRONMENT, and its levels
ENV_TABLE = (
    ("throttle", "throttle", THROTTLE_LEVELS),
    ("geofence", "geofence", GEOFENCE_SETTINGS),
    ("wind", "wind", INTENSITY_LEVELS),
    ("gps_noise", "GPS", INTENSITY_LEVELS),
    ("compass_interference", "COMPASS_INTERFERENCE", INTENSITY_LEVELS),
)
ENV_AXES = tuple(name for name, _key, _levels in ENV_TABLE)


@dataclass(frozen=True)
class DelayBand:
    """A named closed-open interval of injection delays in milliseconds."""

    name: str
    min_ms: float
    max_ms: float


@dataclass(frozen=True)
class StateTarget:
    """An app state a spec targets; recurring targets repeat per mission leg."""

    state: AppState
    recurring: bool = False

    @property
    def label(self) -> str:
        return self.state.value + ("*" if self.recurring else "")


@dataclass(frozen=True)
class EnvironmentSpace:
    """The environment dimensions a spec sweeps over."""

    bands: tuple[DelayBand, ...]
    throttle: tuple[str, ...] = ("mid",)
    geofence: tuple[str, ...] = ("none",)
    wind: tuple[str, ...] = ("none",)
    gps_noise: tuple[str, ...] = ("none",)
    compass_interference: tuple[str, ...] = ("none",)

    def delay_bounds(self) -> tuple[float, float]:
        """Spec-wide (min, max) over all bands; used for normalization."""
        return min(b.min_ms for b in self.bands), max(b.max_ms for b in self.bands)

    def to_dict(self) -> dict:
        doc = {
            "transition_delay": {
                "bands": {b.name: {"min": b.min_ms, "max": b.max_ms} for b in self.bands}
            }
        }
        for name, key, _levels in ENV_TABLE:
            doc[key] = list(getattr(self, name))
        return doc


@dataclass(frozen=True)
class FuzzSpecification:
    modes: tuple[AutopilotMode, ...]
    states: tuple[StateTarget, ...]
    actions: tuple[RcAction, ...]
    environment: EnvironmentSpace
    mission_contexts: tuple[str, ...]
    constraints: Mapping[AutopilotMode, tuple[StateTarget, ...]]
    spec_id: str = field(default="spec", compare=False)

    def constraint_pairs(self) -> tuple[tuple[AutopilotMode, StateTarget], ...]:
        """All (mode, state) pairs the constraints allow, in declaration order."""
        pairs: list[tuple[AutopilotMode, StateTarget]] = []
        for mode in self.modes:
            for target in self.constraints.get(mode, ()):
                pairs.append((mode, target))
        return tuple(pairs)

    def to_dict(self) -> dict:
        return {
            "FROM_PX4_modes": [m.value for m in self.modes],
            "FROM_APP_states": [t.label for t in self.states],
            "RC_INPUT_EVENTS": [a.value for a in self.actions],
            "ENVIRONMENT": self.environment.to_dict(),
            "MISSION_CONTEXT": list(self.mission_contexts),
            "CONSTRAINTS": {
                "REQUIRES_PX4_MODE": {
                    m.value: [t.label for t in targets]
                    for m, targets in self.constraints.items()
                }
            },
        }


@dataclass(frozen=True)
class MissionPlan:
    id: str
    waypoints: tuple[tuple[float, float, float], ...]
    cruise_speed: float
    geofence_polygon: Optional[tuple[tuple[float, float], ...]]
    expected_state_sequence: tuple[AppState, ...]

    def to_dict(self) -> dict:
        return {
            "id": self.id,
            "waypoints": [list(w) for w in self.waypoints],
            "cruise_speed": self.cruise_speed,
            "geofence_polygon": [list(p) for p in self.geofence_polygon]
            if self.geofence_polygon
            else None,
            "expected_state_sequence": [s.value for s in self.expected_state_sequence],
        }


@dataclass(frozen=True)
class PairCoverage:
    """Whether one constrained (mode, state) pair is reachable in a mission."""

    mode: AutopilotMode
    state: AppState
    reachable: bool

    def to_dict(self) -> dict:
        return {"mode": self.mode.value, "state": self.state.value, "reachable": self.reachable}


@dataclass(frozen=True)
class CoverageReport:
    pairs: tuple[PairCoverage, ...]
    geofence_required: bool
    geofence_satisfied: bool

    @property
    def fully_covered(self) -> bool:
        return self.geofence_satisfied and all(p.reachable for p in self.pairs)

    def warnings(self) -> list[str]:
        notes = [
            f"({p.mode.value}, {p.state.value}) is unreachable under this mission"
            for p in self.pairs
            if not p.reachable
        ]
        if self.geofence_required and not self.geofence_satisfied:
            notes.append("spec exercises the geofence but the mission has no polygon")
        return notes

    def to_dict(self) -> dict:
        return {
            "pairs": [p.to_dict() for p in self.pairs],
            "geofence_required": self.geofence_required,
            "geofence_satisfied": self.geofence_satisfied,
            "fully_covered": self.fully_covered,
            "warnings": self.warnings(),
        }


# ---------------------------------------------------------------------------
# fuzz spec parsing
# ---------------------------------------------------------------------------


def _require_keys(raw: dict, allowed: tuple[str, ...], where: str, required: tuple[str, ...]) -> None:
    unknown = set(raw) - set(allowed)
    if unknown:
        raise VocabularyError(f"unknown keys in {where}: {sorted(unknown)}")
    missing = [k for k in required if k not in raw]
    if missing:
        raise VocabularyError(f"missing keys in {where}: {missing}")


def _string_list(raw: object, where: str) -> list[str]:
    if not isinstance(raw, list) or not raw or not all(isinstance(x, str) for x in raw):
        raise VocabularyError(f"{where} must be a non-empty list of strings")
    if len(set(raw)) != len(raw):
        raise VocabularyError(f"{where} contains duplicates")
    return raw


def _parse_bands(raw: object) -> tuple[DelayBand, ...]:
    """The bands in order of their bounds (min, max, then name).

    Not in document order: canonical JSON sorts the keys of the bands
    object, so a spec stored in campaign.json would come back in another
    order, and generation, which walks the bands in order, would give other
    tests from it.
    """
    if not isinstance(raw, dict):
        raise BandError("transition_delay must be an object")
    _require_keys(raw, ("bands",), "transition_delay", ("bands",))
    entries = raw["bands"]
    if not isinstance(entries, dict) or not entries:
        raise BandError("transition_delay.bands must be a non-empty object")
    bands: list[DelayBand] = []
    for name, spec in entries.items():
        if not isinstance(spec, dict):
            raise BandError(f"band {name!r} must be an object")
        _require_keys(spec, ("min", "max"), f"band {name!r}", ("min", "max"))
        try:
            lo, hi = float(spec["min"]), float(spec["max"])
        except (TypeError, ValueError):
            raise BandError(f"band {name!r} bounds must be numbers") from None
        if lo < 0 or not lo < hi:
            raise BandError(f"band {name!r} must satisfy 0 <= min < max, got [{lo}, {hi})")
        bands.append(DelayBand(name, lo, hi))
    return tuple(sorted(bands, key=lambda b: (b.min_ms, b.max_ms, b.name)))


def _parse_levels(raw: object, key: str, vocab: tuple[str, ...]) -> tuple[str, ...]:
    values = _string_list(raw, f"ENVIRONMENT.{key}")
    bad = [v for v in values if v not in vocab]
    if bad:
        raise VocabularyError(f"ENVIRONMENT.{key} has unknown levels {bad}; expected {list(vocab)}")
    return tuple(values)


def _split_star(entry: str) -> tuple[str, bool]:
    return (entry[:-1], True) if entry.endswith("*") else (entry, False)


def parse_fuzz_spec(raw: dict, spec_id: str = "spec") -> FuzzSpecification:
    """Validate a parsed JSON document and build a FuzzSpecification.

    Raises VocabularyError for unknown keys or values, BandError for bad
    delay bands, ConstraintError for mode/state constraint violations.
    """
    if not isinstance(raw, dict):
        raise VocabularyError("fuzz spec must be a JSON object")
    _require_keys(raw, _TOP_KEYS, "fuzz spec", _TOP_KEYS)

    mode_names = _string_list(raw["FROM_PX4_modes"], "FROM_PX4_modes")
    allowed_modes = {m.value for m in CONSTRAINT_MODES}
    bad = [m for m in mode_names if m not in allowed_modes]
    if bad:
        raise VocabularyError(f"FROM_PX4_modes has unknown modes {bad}")
    modes = tuple(AutopilotMode(m) for m in mode_names)

    state_entries = _string_list(raw["FROM_APP_states"], "FROM_APP_states")
    targetable = {s.value for s in TARGETABLE_STATES}
    declared: dict[AppState, bool] = {}
    declared_order: list[AppState] = []
    for entry in state_entries:
        bare, starred = _split_star(entry)
        if bare not in targetable:
            raise VocabularyError(f"FROM_APP_states entry {entry!r} is not a targetable state")
        state = AppState(bare)
        if state in declared:
            raise VocabularyError(f"FROM_APP_states targets {bare!r} twice")
        declared[state] = starred
        declared_order.append(state)

    action_names = _string_list(raw["RC_INPUT_EVENTS"], "RC_INPUT_EVENTS")
    allowed_actions = {a.value for a in RcAction}
    bad = [a for a in action_names if a not in allowed_actions]
    if bad:
        raise VocabularyError(f"RC_INPUT_EVENTS has unknown actions {bad}")
    actions = tuple(RcAction(a) for a in action_names)

    env_raw = raw["ENVIRONMENT"]
    if not isinstance(env_raw, dict):
        raise VocabularyError("ENVIRONMENT must be an object")
    env_keys = ("transition_delay",) + tuple(key for _name, key, _levels in ENV_TABLE)
    _require_keys(env_raw, env_keys, "ENVIRONMENT", ("transition_delay",))
    bands = _parse_bands(env_raw["transition_delay"])
    # an axis the spec leaves out keeps EnvironmentSpace's default
    levels = {
        name: _parse_levels(env_raw[key], key, vocab)
        for name, key, vocab in ENV_TABLE
        if key in env_raw
    }
    environment = EnvironmentSpace(bands=bands, **levels)

    contexts = tuple(_string_list(raw["MISSION_CONTEXT"], "MISSION_CONTEXT"))

    constraints_raw = raw["CONSTRAINTS"]
    if not isinstance(constraints_raw, dict):
        raise VocabularyError("CONSTRAINTS must be an object")
    _require_keys(constraints_raw, ("REQUIRES_PX4_MODE",), "CONSTRAINTS", ("REQUIRES_PX4_MODE",))
    req_raw = constraints_raw["REQUIRES_PX4_MODE"]
    if not isinstance(req_raw, dict):
        raise ConstraintError("REQUIRES_PX4_MODE must be an object")
    constraint_states: dict[AutopilotMode, list[AppState]] = {}
    # each state names one context level, so it may sit under one mode only
    owner: dict[AppState, str] = {}
    for mode_name, entries in req_raw.items():
        if mode_name not in {m.value for m in modes}:
            raise ConstraintError(
                f"REQUIRES_PX4_MODE names {mode_name!r}, which is not in FROM_PX4_modes"
            )
        names = _string_list(entries, f"REQUIRES_PX4_MODE.{mode_name}")
        resolved: list[AppState] = []
        for entry in names:
            bare, starred = _split_star(entry)
            if bare not in {s.value for s in declared}:
                raise ConstraintError(
                    f"REQUIRES_PX4_MODE.{mode_name} names {entry!r}, "
                    "which is not in FROM_APP_states"
                )
            state = AppState(bare)
            if state in resolved:
                raise ConstraintError(
                    f"REQUIRES_PX4_MODE.{mode_name} lists {bare!r} twice"
                )
            if state in owner:
                raise ConstraintError(
                    f"REQUIRES_PX4_MODE lists {bare!r} under both {owner[state]} and "
                    f"{mode_name}; a state may require one mode"
                )
            owner[state] = mode_name
            if starred:
                declared[state] = True
            resolved.append(state)
        constraint_states[AutopilotMode(mode_name)] = resolved

    # a star anywhere marks the state recurring everywhere it appears
    states = tuple(StateTarget(s, declared[s]) for s in declared_order)
    constraints = {
        mode: tuple(StateTarget(s, declared[s]) for s in listed)
        for mode, listed in constraint_states.items()
    }

    return FuzzSpecification(
        modes=modes,
        states=states,
        actions=actions,
        environment=environment,
        mission_contexts=contexts,
        constraints=constraints,
        spec_id=spec_id,
    )


def load_fuzz_spec(path: str | Path) -> FuzzSpecification:
    """The spec of the document at path, named by its stem; an error names
    the file."""
    path = Path(path)
    with open(path, encoding="utf-8") as fh:
        raw = json.load(fh)
    with naming(path):
        return parse_fuzz_spec(raw, spec_id=path.stem)


def validate_coverage(spec: FuzzSpecification, mission: MissionPlan) -> CoverageReport:
    """Report which constrained (mode, state) pairs this mission can reach.

    A pair is reachable when its state occurs in the mission's expected
    sequence; RETURNING is additionally reachable when the spec arms the
    geofence and the mission carries a polygon. Purely informational: an
    unreachable pair means those tests will come back INVALID, not that
    the campaign is rejected.
    """
    fence_armed = any(g != "none" for g in spec.environment.geofence)
    has_polygon = mission.geofence_polygon is not None
    in_sequence = set(mission.expected_state_sequence)
    pairs = []
    for mode, target in spec.constraint_pairs():
        reachable = target.state in in_sequence or (
            target.state is AppState.RETURNING and fence_armed and has_polygon
        )
        pairs.append(PairCoverage(mode=mode, state=target.state, reachable=reachable))
    return CoverageReport(
        pairs=tuple(pairs),
        geofence_required=fence_armed,
        geofence_satisfied=has_polygon or not fence_armed,
    )


def validate_sut_config(config: SutConfig, spec: FuzzSpecification) -> None:
    """Check a system config against a spec's delay bands.

    The internal mode-switch latency window must sit inside [0, longest
    band max]; otherwise late injections could never race the switch.
    """
    _, upper = spec.environment.delay_bounds()
    lo, hi = config.latency_window_ms
    if hi > upper:
        raise ConfigError(
            f"latency window [{lo}, {hi}] ms extends past the longest delay "
            f"band (max {upper} ms); the spec could never observe a "
            "post-switch injection"
        )


# ---------------------------------------------------------------------------
# mission parsing
# ---------------------------------------------------------------------------


def _orient(p: tuple, q: tuple, r: tuple) -> float:
    return (q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0])


def _segments_cross(a: tuple, b: tuple, c: tuple, d: tuple) -> bool:
    """Proper crossing of open segments ab and cd (shared endpoints allowed)."""
    d1, d2 = _orient(c, d, a), _orient(c, d, b)
    d3, d4 = _orient(a, b, c), _orient(a, b, d)
    return ((d1 > 0) != (d2 > 0)) and ((d3 > 0) != (d4 > 0))


def _polygon_self_intersects(poly: tuple[tuple[float, float], ...]) -> bool:
    n = len(poly)
    for i in range(n):
        a, b = poly[i], poly[(i + 1) % n]
        for j in range(i + 1, n):
            if j == i or (j + 1) % n == i or (i + 1) % n == j:
                continue  # adjacent edges share an endpoint
            c, d = poly[j], poly[(j + 1) % n]
            if _segments_cross(a, b, c, d):
                return True
    return False


def _derive_sequence(n_waypoints: int) -> tuple[AppState, ...]:
    return (
        (AppState.TAKEOFF,)
        + (AppState.FLYING_TO_WAYPOINT,) * n_waypoints
        + (AppState.HOVERING, AppState.LANDING, AppState.DISARMING)
    )


def _check_sequence(names: list, n_waypoints: int) -> tuple[AppState, ...]:
    if not isinstance(names, list) or not names:
        raise SequenceError("expected_state_sequence must be a non-empty list")
    sequence: list[AppState] = []
    for entry in names:
        try:
            sequence.append(AppState(entry))
        except ValueError:
            raise SequenceError(f"unknown state {entry!r} in expected_state_sequence") from None
    if sequence[0] is not AppState.TAKEOFF:
        raise SequenceError("expected_state_sequence must start with TAKEOFF")
    if sequence[-1] is not AppState.DISARMING:
        raise SequenceError("expected_state_sequence must end with DISARMING")
    legs = sum(1 for s in sequence if s is AppState.FLYING_TO_WAYPOINT)
    if legs != n_waypoints:
        raise SequenceError(
            f"expected_state_sequence has {legs} FLYING_TO_WAYPOINT entries "
            f"for {n_waypoints} waypoints (one per leg)"
        )
    return tuple(sequence)


def _point(raw: object, n: int, where: str) -> tuple[float, ...]:
    """raw, a list of n numbers within MISSION_LIMIT, as floats;
    GeometryError naming where otherwise."""
    if not isinstance(raw, list) or len(raw) != n or not all(map(is_number, raw)):
        shape = "[x, y, z]" if n == 3 else "[x, y]"
        raise GeometryError(f"{where} must be {shape}, {n} numbers, got {raw!r}")
    if any(abs(v) > MISSION_LIMIT for v in raw):
        raise GeometryError(f"{where} must lie within {MISSION_LIMIT:g} m of 0, got {raw!r}")
    return tuple(map(float, raw))


def parse_mission(raw: dict) -> MissionPlan:
    """Validate a mission document; derive the state sequence when absent.
    Every number must be a finite int or float (is_number) within
    MISSION_LIMIT; an error names the key."""
    if not isinstance(raw, dict):
        raise GeometryError("mission must be a JSON object")
    _require_keys(
        raw,
        ("id", "waypoints", "cruise_speed", "geofence_polygon", "expected_state_sequence"),
        "mission",
        ("id", "waypoints", "cruise_speed"),
    )
    mission_id = raw["id"]
    if not isinstance(mission_id, str) or not mission_id:
        raise GeometryError("mission id must be a non-empty string")

    wps_raw = raw["waypoints"]
    if not isinstance(wps_raw, list):
        raise GeometryError("waypoints must be a list")
    if not wps_raw:
        raise SequenceError("a mission needs at least one waypoint to derive its state sequence")
    waypoints: list[tuple[float, float, float]] = []
    for i, wp in enumerate(wps_raw):
        x, y, z = _point(wp, 3, f"waypoints[{i}]")
        if z <= 0:
            raise GeometryError(f"waypoint {i} altitude must be positive, got {z}")
        waypoints.append((x, y, z))
    for i, (a, b) in enumerate(zip(waypoints, waypoints[1:])):
        if a == b:
            raise GeometryError(f"waypoints {i} and {i + 1} coincide (zero-length leg)")

    cruise = raw["cruise_speed"]
    if not is_number(cruise):
        raise GeometryError(f"cruise_speed must be a number, got {cruise!r}")
    cruise = float(cruise)
    if not 0 < cruise <= MISSION_LIMIT:
        raise GeometryError(f"cruise_speed must be positive and at most {MISSION_LIMIT:g} "
                            f"m/s, got {cruise}")

    fence_raw = raw.get("geofence_polygon")
    fence: Optional[tuple[tuple[float, float], ...]] = None
    if fence_raw is not None:
        if not isinstance(fence_raw, list) or len(fence_raw) < 3:
            raise GeometryError("geofence_polygon must have at least 3 vertices")
        pts = [_point(p, 2, f"geofence_polygon[{i}]") for i, p in enumerate(fence_raw)]
        if len(set(pts)) != len(pts):
            raise GeometryError("geofence polygon repeats a vertex")
        fence = tuple(pts)
        if _polygon_self_intersects(fence):
            raise GeometryError("geofence polygon is self-intersecting")

    if raw.get("expected_state_sequence") is not None:
        sequence = _check_sequence(raw["expected_state_sequence"], len(waypoints))
    else:
        sequence = _derive_sequence(len(waypoints))
    return MissionPlan(
        id=mission_id,
        waypoints=tuple(waypoints),
        cruise_speed=cruise,
        geofence_polygon=fence,
        expected_state_sequence=sequence,
    )


def load_mission(path: str | Path) -> MissionPlan:
    """The mission of the document at path; an error names the file."""
    with open(path, encoding="utf-8") as fh:
        raw = json.load(fh)
    with naming(path):
        return parse_mission(raw)
