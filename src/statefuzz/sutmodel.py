"""Simulated system under test: a dual-layer vehicle state machine.

Two layers evolve together. The application layer walks a mission script
(PRE_ARM through DONE) while the autopilot layer tracks the flight mode
(STABILIZED, OFFBOARD, ...). The composed pair is what tests target and
what traces record.

A flight is driven through Vehicle.advance_until and Vehicle.apply_rc and
writes one event log, Vehicle.events; summarize_events derives a flight's
trace (a profile keeps its digest), failsafe events, exceptions and
oscillation count from it.
advance_until(math.inf, stop_state) flies a whole leg in one call, and its
only hop stops are grid ticks and timer instants. Cruise runs are memoized
in a dict the caller may share between flights (each executor shares one
among the flights it flies); a run's result depends only on its exact float
inputs, so a shared memo changes no output.

The module also hosts the fault registry. A fault is a behavioral override
keyed by an id (F1..F11) that is either seeded into a config or not; the
transition core consults the registry at every injected control action and
at the few environment-conditioned points the registry describes. F9-F11
describe rotorcraft semantics that are always on (loiter and throttle-toggle
requests realize as POSCTL); they are listed so configs may name them, but
seeding them changes nothing.

Times are simulated milliseconds. Nothing here reads a wall clock.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, fields
from enum import Enum
from itertools import accumulate, repeat, starmap
from operator import add, mul, neg, sub
from random import Random
from typing import Iterable, Optional

from .errors import ConfigError, IllegalEvent, UnknownFault

# ---------------------------------------------------------------------------
# vocabulary
# ---------------------------------------------------------------------------


class AppState(str, Enum):
    PRE_ARM = "PRE_ARM"
    TAKEOFF = "TAKEOFF"
    FLYING_TO_WAYPOINT = "FLYING_TO_WAYPOINT"
    HOVERING = "HOVERING"
    LANDING = "LANDING"
    DISARMING = "DISARMING"
    HUMAN_CONTROL = "HUMAN_CONTROL"
    RETURNING = "RETURNING"
    DONE = "DONE"


class AutopilotMode(str, Enum):
    STABILIZED = "STABILIZED"
    OFFBOARD = "OFFBOARD"
    POSCTL = "POSCTL"
    ALTCTL = "ALTCTL"
    LAND = "LAND"
    RTL = "RTL"
    AUTO_LOITER = "AUTO.LOITER"
    AUTO_LAND = "AUTO.LAND"


class RcAction(str, Enum):
    """Control actions a test may inject (RC input events)."""

    ALTCTL = "ALTCTL"
    POSCTL = "POSCTL"
    STABILIZED = "STABILIZED"
    OFFBOARD = "OFFBOARD"
    AUTO_LOITER = "AUTO.LOITER"
    AUTO_LAND = "AUTO.LAND"
    AUTO_RTL = "AUTO.RTL"
    THROTTLE_TOGGLED = "THROTTLE_TOGGLED"


#: sentinel action name for baseline (no-injection) tests
NO_ACTION = "NONE"

#: app states a fuzz spec may target
TARGETABLE_STATES = (
    AppState.TAKEOFF,
    AppState.FLYING_TO_WAYPOINT,
    AppState.HOVERING,
    AppState.LANDING,
    AppState.DISARMING,
    AppState.RETURNING,
)

#: autopilot modes a fuzz spec may pair with app states
CONSTRAINT_MODES = (
    AutopilotMode.STABILIZED,
    AutopilotMode.OFFBOARD,
    AutopilotMode.POSCTL,
    AutopilotMode.ALTCTL,
    AutopilotMode.LAND,
    AutopilotMode.RTL,
)

THROTTLE_LEVELS = ("low", "mid", "high")
GEOFENCE_SETTINGS = ("none", "WARN", "RETURN", "LAND")
INTENSITY_LEVELS = ("none", "low", "medium", "high")

INTENSITY_RANK = {lvl: i for i, lvl in enumerate(INTENSITY_LEVELS)}

#: what mode the autopilot actually enters for each honored action.
#: AUTO.LOITER and THROTTLE_TOGGLED realize as POSCTL on this airframe;
#: that mapping is exactly what the naive oracle variant gets wrong.
REALIZED_MODE = {
    RcAction.ALTCTL: AutopilotMode.ALTCTL,
    RcAction.POSCTL: AutopilotMode.POSCTL,
    RcAction.STABILIZED: AutopilotMode.STABILIZED,
    RcAction.OFFBOARD: AutopilotMode.OFFBOARD,
    RcAction.AUTO_LOITER: AutopilotMode.POSCTL,
    RcAction.AUTO_LAND: AutopilotMode.LAND,
    RcAction.AUTO_RTL: AutopilotMode.RTL,
    RcAction.THROTTLE_TOGGLED: AutopilotMode.POSCTL,
}

#: honored manual-family requests hand the vehicle to the operator
TAKEOVER_MODES = {
    AutopilotMode.ALTCTL,
    AutopilotMode.POSCTL,
    AutopilotMode.STABILIZED,
}


# ---------------------------------------------------------------------------
# fault registry
# ---------------------------------------------------------------------------


class FaultId(str, Enum):
    F1 = "F1"   # land request dropped while hovering
    F2 = "F2"   # manual POSCTL dropped during the stabilized phase of takeoff
    F3 = "F3"   # offboard reactivation streams a stale setpoint (jerk/thrash)
    F4 = "F4"   # POSCTL deferred during fence-triggered return, until landed
    F5 = "F5"   # return-to-launch request dropped during takeoff
    F6 = "F6"   # heavy gps noise drives climb/land mode thrashing
    F7 = "F7"   # manual POSCTL dropped after a geofence warning
    F8 = "F8"   # disarm hangs after touching down in STABILIZED
    F9 = "F9"   # throttle toggle realizes as POSCTL (airframe semantics, always on)
    F10 = "F10"  # loiter request realizes as POSCTL while flying (always on)
    F11 = "F11"  # loiter request realizes as POSCTL while landing (always on)


class Decision(str, Enum):
    """What a seeded fault does to an injected control action."""

    IGNORE = "IGNORE"
    DEFER = "DEFER"
    CORRUPT = "CORRUPT"
    PASS_THROUGH = "PASS_THROUGH"


@dataclass(frozen=True)
class InjectionRequest:
    """The context a fault override sees when an action arrives."""

    action: RcAction
    app_state: AppState
    mode: AutopilotMode
    warn_active: bool = False
    fence_failsafe_active: bool = False


def inject_fault_behavior(fault: FaultId | str, request: InjectionRequest) -> Decision:
    """Decide how a single seeded fault treats an injected action.

    Pure and deterministic. Raises UnknownFault for ids outside the registry.
    """
    try:
        fault = FaultId(fault)
    except ValueError:
        raise UnknownFault(f"no such fault id: {fault!r}") from None

    a, s, m = request.action, request.app_state, request.mode
    if fault is FaultId.F1 and a is RcAction.AUTO_LAND and s is AppState.HOVERING:
        return Decision.IGNORE
    if (
        fault is FaultId.F2
        and a is RcAction.POSCTL
        and s is AppState.TAKEOFF
        and m is AutopilotMode.STABILIZED
    ):
        return Decision.IGNORE
    if (
        fault is FaultId.F3
        and a is RcAction.OFFBOARD
        and m in (AutopilotMode.LAND, AutopilotMode.RTL)
    ):
        return Decision.CORRUPT
    if (
        fault is FaultId.F4
        and a is RcAction.POSCTL
        and m is AutopilotMode.RTL
        and request.fence_failsafe_active
    ):
        return Decision.DEFER
    if fault is FaultId.F5 and a is RcAction.AUTO_RTL and s is AppState.TAKEOFF:
        return Decision.IGNORE
    if fault is FaultId.F7 and a is RcAction.POSCTL and request.warn_active:
        return Decision.IGNORE
    # F6 and F8 are environment/phase conditioned, not action overrides.
    # F9-F11 are the always-on realized-mode mapping.
    return Decision.PASS_THROUGH


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


def is_number(value) -> bool:
    """value is a finite int or float, and not a bool: what a number in a
    mission or config document must be. An int too large for a float is
    not one."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


@dataclass(frozen=True)
class SutConfig:
    """Tunable system parameters plus the seeded fault set.

    latency_window_ms bounds the internal STABILIZED-to-OFFBOARD switch
    during TAKEOFF; each flight samples the switch latency uniformly from
    it. The degrade levels are the lowest GPS noise and compass
    interference levels that raise a degradation alert.
    """

    latency_window_ms: tuple[float, float] = (1500.0, 4500.0)
    gps_degrade_level: str = "high"
    compass_degrade_level: str = "high"
    seeded_faults: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        window = self.latency_window_ms
        if not (isinstance(window, tuple) and len(window) == 2 and all(map(is_number, window))):
            raise ConfigError(f"latency_window_ms must be [lo, hi], two numbers of ms, "
                              f"got {window!r}")
        lo, hi = window
        if not (0.0 <= lo < hi):
            raise ConfigError(
                f"latency window must satisfy 0 <= lo < hi, got {self.latency_window_ms}"
            )
        for key in ("gps_degrade_level", "compass_degrade_level"):
            lvl = getattr(self, key)
            if not isinstance(lvl, str) or lvl not in INTENSITY_LEVELS:
                raise ConfigError(f"{key}: unknown sensitivity level {lvl!r}")
        faults = self.seeded_faults
        if not (isinstance(faults, tuple) and all(isinstance(fid, str) for fid in faults)):
            raise ConfigError(f"seeded_faults must be a list of fault ids such as \"F2\", "
                              f"got {faults!r}")
        for fid in faults:
            if fid not in FaultId._value2member_map_:
                raise UnknownFault(f"cannot seed unknown fault {fid!r}")

    def faults(self) -> tuple[FaultId, ...]:
        return tuple(FaultId(f) for f in self.seeded_faults)

    def has(self, fault: FaultId) -> bool:
        return fault.value in self.seeded_faults

    def to_dict(self) -> dict:
        return {
            "latency_window_ms": list(self.latency_window_ms),
            "gps_degrade_level": self.gps_degrade_level,
            "compass_degrade_level": self.compass_degrade_level,
            "seeded_faults": sorted(self.seeded_faults),
        }

    @classmethod
    def from_dict(cls, raw: dict) -> "SutConfig":
        """Build a config from its dict form; a key that to_dict does not
        write, or a value of the wrong type, raises ConfigError, which
        names the key."""
        if not isinstance(raw, dict):
            raise ConfigError(f"a config must be a JSON object, got {raw!r}")
        extra = set(raw) - {f.name for f in fields(cls)}
        if extra:
            raise ConfigError(f"unknown config keys: {sorted(extra)}")
        kwargs = dict(raw)
        # JSON gives lists; a list of the right items becomes the tuple
        # __post_init__ checks, and any other value reaches it as it is
        window = kwargs.get("latency_window_ms")
        if isinstance(window, (list, tuple)) and all(map(is_number, window)):
            kwargs["latency_window_ms"] = tuple(map(float, window))
        faults = kwargs.get("seeded_faults")
        if isinstance(faults, list) and all(isinstance(fid, str) for fid in faults):
            kwargs["seeded_faults"] = tuple(faults)
        return cls(**kwargs)


# ---------------------------------------------------------------------------
# flight kinematics constants (desk scale)
# ---------------------------------------------------------------------------

TICK_MS = 10.0
PREARM_MS = 500.0
TAKEOFF_ALT_M = 10.0
CLIMB_RATE_MPS = 0.8          # 10 m climb -> takeoff lasts 12.5 s
DESCENT_RATE_MPS = 2.0
MANUAL_SINK_MPS = 1.0         # low-throttle sink while a human holds
MANUAL_CLIMB_MPS = 0.8        # high-throttle drift while a human holds
HOVER_PAUSE_MS = 3000.0
HOLD_WINDOW_MS = 10000.0      # observation window after a takeover
DISARM_MS = 1000.0
DISARM_TIMEOUT_MS = 5000.0
SIM_CEILING_MS = 600_000.0
JERK_JUMP_M = 8.0             # setpoint discontinuity that counts as a jerk
OSC_WINDOW_MS = 5000.0        # a mode must return within this window to count
THRASH_PERIOD_MS = 500.0
THRASH_PAIR = (AutopilotMode.LAND, AutopilotMode.OFFBOARD)  # F3/F6 flip between these

WIND_DRIFT_CAP_M = {"none": 0.0, "low": 0.5, "medium": 1.5, "high": 3.0}
WIND_DRIFT_RATE_MPS = {"none": 0.0, "low": 0.15, "medium": 0.45, "high": 0.9}
GPS_JITTER_M = {"none": 0.0, "low": 0.1, "medium": 0.3, "high": 0.8}

#: how far inside the fence a replayed cruise hop stays: far beyond the
#: rounding of the ray cast and of _fence_hops at desk scale
FENCE_MARGIN_M = 1e-6


def _dist3(a: tuple[float, float, float], b: tuple[float, float, float]) -> float:
    return math.sqrt((a[0] - b[0]) ** 2 + (a[1] - b[1]) ** 2 + (a[2] - b[2]) ** 2)


def reaches(level: str, threshold: str) -> bool:
    """True when a sensor disturbance level is at or above a sensitivity level."""
    return level != "none" and INTENSITY_RANK[level] >= INTENSITY_RANK[threshold]


def _last_tick_before(bound: float) -> float:
    """The largest grid tick (multiple of TICK_MS) strictly below bound."""
    tick = (math.ceil(bound / TICK_MS) - 1) * TICK_MS
    # the division rounds, so the tick may be one step off either way
    if tick >= bound:
        tick -= TICK_MS
    elif tick + TICK_MS < bound:
        tick += TICK_MS
    return tick


def _cruise_run(
    x: float, y: float, z: float, tx: float, ty: float, tz: float, stride: float, n: int
) -> tuple[int, float, float, float]:
    """(k, x, y, z) after up to n full hops of stride toward (tx, ty, tz).

    k is the number of hops taken: the run stops before the hop that
    reaches the target, which the per-hop loop takes. The arithmetic is
    Vehicle._move_toward's, expression by expression, so the floats are
    bit-identical. Pure, so Vehicle._coast memoizes it on its arguments.
    """
    for k in range(n):
        d = math.sqrt((x - tx) ** 2 + (y - ty) ** 2 + (z - tz) ** 2)
        if d <= stride or d == 0.0:
            break
        f = stride / d
        nx, ny, nz = x + (tx - x) * f, y + (ty - y) * f, z + (tz - z) * f
        if nx == tx and ny == ty and nz == tz:
            break
        x, y, z = nx, ny, nz
    else:
        k = n
    return k, x, y, z


def _point_in_polygon(x: float, y: float, poly: tuple[tuple[float, float], ...]) -> bool:
    """Ray-cast point-in-polygon; boundary points count as inside.

    An edge the ray crosses holds the point when the crossing is the point;
    the crossing test leaves out the upper vertex of an edge and every
    horizontal edge, so those are matched apart.
    """
    inside = False
    n = len(poly)
    for i in range(n):
        x1, y1 = poly[i]
        x2, y2 = poly[(i + 1) % n]
        if (y1 > y) != (y2 > y):
            xi = x1 + (y - y1) * (x2 - x1) / (y2 - y1)
            if x < xi:
                inside = not inside
            elif x == xi:
                return True
        elif y == y1 and (x == x1 or y == y2 and min(x1, x2) <= x <= max(x1, x2)):
            return True
    return inside


def _fence_hops(x: float, y: float, poly: tuple[tuple[float, float], ...], stride: float) -> int:
    """How many hops of at most stride in the plane surely keep (x, y)
    inside poly: floor((c - FENCE_MARGIN_M) / stride) - 1, where c is the
    distance from (x, y) to the nearest edge, and 0 from outside."""
    if not _point_in_polygon(x, y, poly):
        return 0
    c = math.inf
    n = len(poly)
    for i in range(n):
        x1, y1 = poly[i]
        x2, y2 = poly[(i + 1) % n]
        ex, ey = x2 - x1, y2 - y1
        length2 = ex * ex + ey * ey
        # the point of the edge nearest (x, y), as a fraction of the edge
        u = ((x - x1) * ex + (y - y1) * ey) / length2 if length2 else 0.0
        u = min(1.0, max(0.0, u))
        c = min(c, math.hypot(x - x1 - u * ex, y - y1 - u * ey))
    return max(0, math.floor((c - FENCE_MARGIN_M) / stride) - 1)


# ---------------------------------------------------------------------------
# event log
# ---------------------------------------------------------------------------


def summarize_events(events: Iterable[tuple[float, str, str]]) -> dict:
    """The profile fields a flight's event log determines, by field name.

    trace replays the state and mode events from (0.0, PRE_ARM,
    STABILIZED); a point at the same instant as the one before replaces it.
    A mode change counts as an oscillation when it returns to the mode two
    changes back within OSC_WINDOW_MS. A failsafe event's detail is
    "<kind>:<detail>". Every field keeps the log's order.
    """
    app, mode = AppState.PRE_ARM.value, AutopilotMode.STABILIZED.value
    trace = [(0.0, app, mode)]
    back, last = None, (0.0, mode)      # the last two mode changes
    oscillations = 0
    failsafes: list[tuple[float, str, str]] = []
    exceptions: list[str] = []
    for t, kind, detail in events:
        if kind == "state":
            app = detail
        elif kind == "mode":
            if back is not None and back[1] == detail and t - back[0] <= OSC_WINDOW_MS:
                oscillations += 1
            back, last, mode = last, (t, detail), detail
        else:
            if kind == "failsafe":
                failsafe, _, fired = detail.partition(":")
                failsafes.append((t, failsafe, fired))
            elif kind == "exception":
                exceptions.append(detail)
            continue
        if trace[-1][0] == t:
            trace[-1] = (t, app, mode)
        else:
            trace.append((t, app, mode))
    return {
        "trace": tuple(trace),
        "failsafe_events": tuple(failsafes),
        "exceptions": tuple(exceptions),
        "oscillation_count": oscillations,
    }


# ---------------------------------------------------------------------------
# simulation engine
# ---------------------------------------------------------------------------


class Vehicle:
    """Mutable flight simulation behind the executor.

    One instance is one flight. The executor drives it with apply_rc() and
    advance_until(): to math.inf for the leg to the targeted state and the
    leg to the end of the flight, and to the injection and settle instants.
    The environment (throttle, geofence, wind, GPS noise, compass
    interference) is fixed when the flight is built.

    events is the flight's one log, in order: (t_ms, kind, detail) for each
    app state entered ("state"), autopilot mode entered ("mode"), control
    action received ("injection"), failsafe or sensor alert ("failsafe",
    detail "<kind>:<detail>"), abnormal end ("exception": disarm-timeout or
    sim-timeout) and anything else worth reading later ("note").

    cruise_runs memoizes _cruise_run. Flights that share it (the executor
    passes one dict to every vehicle it builds) replay each other's cruise
    runs; without it the vehicle gets a private empty dict.
    """

    def __init__(
        self,
        waypoints: tuple[tuple[float, float, float], ...],
        cruise_speed: float,
        geofence_polygon: Optional[tuple[tuple[float, float], ...]],
        config: SutConfig,
        env: dict,
        rng: Random,
        cruise_runs: Optional[dict] = None,
    ) -> None:
        self.cfg = config
        self.rng = rng
        self.cruise_runs = {} if cruise_runs is None else cruise_runs
        self.waypoints = tuple(tuple(float(c) for c in w) for w in waypoints)
        self.cruise = float(cruise_speed)
        self.fence = (
            tuple(tuple(float(c) for c in p) for p in geofence_polygon)
            if geofence_polygon
            else None
        )

        self.t = 0.0
        self.app = AppState.PRE_ARM
        self.mode = AutopilotMode.STABILIZED
        self.pos = (0.0, 0.0, 0.0)
        self.armed = False

        self.throttle = env.get("throttle", "mid")
        self.geofence = env.get("geofence", "none")
        self.wind = env.get("wind", "none")
        self.gps_noise = env.get("gps_noise", "none")
        self.compass = env.get("compass_interference", "none")

        self.legs_done = 0
        self.mode_switch_at: Optional[float] = None
        lo, hi = config.latency_window_ms
        self.switch_latency = lo + (hi - lo) * rng.random()

        self.hold_until: Optional[float] = None
        self.manual_airborne = False
        self.manual_landing = False
        self.phase_deadline: Optional[float] = None   # hover pause / disarm timer
        self.disarm_deadline: Optional[float] = None  # disarm-hang watchdog
        self.land_target: Optional[tuple[float, float]] = None
        self.resume_target: Optional[tuple[float, float, float]] = None

        self.warn_active = False
        self.fence_breached = False
        self.fence_failsafe_active = False
        self.deferred_action: Optional[RcAction] = None
        self.diverted = False
        self.gps_degraded_noted = False
        self.compass_degraded_noted = False
        self.f6_pending = config.has(FaultId.F6) and self.gps_noise == "high"
        self.thrash_flips_left = 0
        self.thrash_next_at = 0.0

        self.wind_dev = 0.0
        self.path_deviation_max = 0.0
        self.jerk_flag = False

        self.finished = False
        self.mission_completed = False
        self.events: list[tuple[float, str, str]] = []

    # -- bookkeeping ------------------------------------------------------

    def log(self, kind: str, detail: str) -> None:
        """Append one event at the current instant."""
        self.events.append((self.t, kind, detail))

    def _set_app(self, state: AppState) -> None:
        if state is self.app:
            return
        if state in (AppState.HUMAN_CONTROL, AppState.RETURNING):
            self.diverted = True
        self.app = state
        self.log("state", state.value)

    def _set_mode(self, mode: AutopilotMode) -> None:
        if mode is self.mode:
            return
        self.mode = mode
        self.log("mode", mode.value)

    def _failsafe(self, kind: str, detail: str) -> None:
        self.log("failsafe", f"{kind}:{detail}")

    def _finish(self, reason: str) -> None:
        self.finished = True
        self._set_app(AppState.DONE)
        self.log("note", f"flight ended: {reason}")

    # -- deviation / sensors ----------------------------------------------

    def _sample_deviation(self, dt_s: float) -> None:
        cap = WIND_DRIFT_CAP_M[self.wind]
        if self.wind_dev < cap:
            self.wind_dev = min(cap, self.wind_dev + WIND_DRIFT_RATE_MPS[self.wind] * dt_s)
        dev = self.wind_dev
        jit = GPS_JITTER_M[self.gps_noise]
        if jit:
            dev += jit * self.rng.random()
        if dev > self.path_deviation_max:
            self.path_deviation_max = dev

    # -- geofence / failsafes ----------------------------------------------

    def _airborne(self) -> bool:
        return self.armed and self.pos[2] > 0.05

    def _check_geofence(self) -> None:
        if self.fence_breached or self.geofence == "none" or self.fence is None:
            return
        if not self._airborne():
            return
        if _point_in_polygon(self.pos[0], self.pos[1], self.fence):
            return
        self.fence_breached = True
        action = self.geofence
        self._failsafe("GEOFENCE", action)
        if action == "WARN":
            self.warn_active = True
        elif action == "RETURN":
            self.fence_failsafe_active = True
            self._set_mode(AutopilotMode.RTL)
            self._set_app(AppState.RETURNING)
        elif action == "LAND":
            self.fence_failsafe_active = True
            self.diverted = True
            self.land_target = (self.pos[0], self.pos[1])
            self._set_mode(AutopilotMode.LAND)
            self._set_app(AppState.LANDING)

    def _gps_degraded_due(self) -> bool:
        return not self.gps_degraded_noted and reaches(self.gps_noise, self.cfg.gps_degrade_level)

    def _compass_degraded_due(self) -> bool:
        return not self.compass_degraded_noted and reaches(
            self.compass, self.cfg.compass_degrade_level
        )

    def _check_degraded(self) -> None:
        if self._gps_degraded_due():
            self.gps_degraded_noted = True
            self._failsafe("DEGRADED_GPS", self.gps_noise)
        if self._compass_degraded_due():
            self.compass_degraded_noted = True
            self._failsafe("DEGRADED_COMPASS", self.compass)

    # -- motion -------------------------------------------------------------

    def _move_toward(
        self, target: tuple[float, float, float], speed: float, dt_s: float
    ) -> bool:
        """Advance position toward target; True when reached."""
        d = _dist3(self.pos, target)
        stride = speed * dt_s
        if d <= stride or d == 0.0:
            self.pos = target
            return True
        f = stride / d
        self.pos = (
            self.pos[0] + (target[0] - self.pos[0]) * f,
            self.pos[1] + (target[1] - self.pos[1]) * f,
            self.pos[2] + (target[2] - self.pos[2]) * f,
        )
        return False

    def _integrate(self, dt_ms: float) -> None:
        if dt_ms <= 0.0:
            return
        dt_s = dt_ms / 1000.0
        app = self.app
        if app is AppState.TAKEOFF:
            x, y, z = self.pos
            self.pos = (x, y, min(TAKEOFF_ALT_M, z + CLIMB_RATE_MPS * dt_s))
        elif app is AppState.FLYING_TO_WAYPOINT:
            target = self.resume_target or self.waypoints[self.legs_done]
            self._move_toward(target, self.cruise, dt_s)
        elif app is AppState.RETURNING:
            home = (0.0, 0.0, self.pos[2])
            self._move_toward(home, self.cruise, dt_s)
        elif app is AppState.LANDING:
            x, y, z = self.pos
            if self.land_target is not None:
                x, y = self.land_target
            self.pos = (x, y, max(0.0, z - DESCENT_RATE_MPS * dt_s))
        elif app is AppState.HUMAN_CONTROL:
            x, y, z = self.pos
            if z > 0.0:
                if self.manual_landing:
                    z = max(0.0, z - DESCENT_RATE_MPS * dt_s)
                elif self.throttle == "low":
                    z = max(0.0, z - MANUAL_SINK_MPS * dt_s)
                elif self.throttle == "high":
                    z = z + MANUAL_CLIMB_MPS * dt_s
                self.pos = (x, y, z)

    # -- phase transitions driven by position/time ---------------------------

    def _phase_step(self) -> None:
        app = self.app
        if app is AppState.PRE_ARM:
            if self.t >= PREARM_MS:
                self.armed = True
                self._set_app(AppState.TAKEOFF)
                self.mode_switch_at = self.t + self.switch_latency
                self.log(
                    "note", f"armed; offboard switch scheduled +{self.switch_latency:.1f}ms"
                )
        elif app is AppState.TAKEOFF:
            if self.pos[2] >= TAKEOFF_ALT_M and self.mode is AutopilotMode.OFFBOARD:
                if self.legs_done < len(self.waypoints):
                    self._set_app(AppState.FLYING_TO_WAYPOINT)
                    self._maybe_start_f6()
                else:
                    self._begin_hover()
        elif app is AppState.FLYING_TO_WAYPOINT:
            target = self.resume_target or self.waypoints[self.legs_done]
            if self.pos == target:
                if self.resume_target is not None:
                    self.resume_target = None
                    self.log("note", "stale setpoint reached; resuming plan")
                else:
                    self.legs_done += 1
                    self.log("note", f"waypoint {self.legs_done} reached")
                if self.legs_done >= len(self.waypoints):
                    self._begin_hover()
        elif app is AppState.HOVERING:
            if self.phase_deadline is not None and self.t >= self.phase_deadline:
                self.phase_deadline = None
                self.land_target = (self.pos[0], self.pos[1])
                self._set_mode(AutopilotMode.LAND)
                self._set_app(AppState.LANDING)
        elif app is AppState.RETURNING:
            if self.pos[0] == 0.0 and self.pos[1] == 0.0:
                self.land_target = (0.0, 0.0)
                # an RTL includes its landing phase; the mode only changes
                # when something other than RTL brought us home
                if self.mode is not AutopilotMode.RTL:
                    self._set_mode(AutopilotMode.LAND)
                self._set_app(AppState.LANDING)
        elif app is AppState.LANDING:
            if self.pos[2] <= 0.0:
                self._touchdown()
        elif app is AppState.HUMAN_CONTROL:
            if self.manual_airborne and self.pos[2] <= 0.0:
                self._touchdown()
            elif self.hold_until is not None and self.t >= self.hold_until:
                self.hold_until = None
                self._finish("takeover hold window elapsed")
        elif app is AppState.DISARMING:
            if self.disarm_deadline is not None and self.t >= self.disarm_deadline:
                self.log("exception", "disarm-timeout")
                self._finish("disarm hang")
            elif self.phase_deadline is not None and self.t >= self.phase_deadline:
                self.armed = False
                self.mission_completed = (
                    self.legs_done >= len(self.waypoints) and not self.diverted
                )
                self._finish("disarmed")

    def _begin_hover(self) -> None:
        self.phase_deadline = self.t + HOVER_PAUSE_MS
        self._set_app(AppState.HOVERING)

    def _maybe_start_f6(self) -> None:
        if self.f6_pending:
            self.f6_pending = False
            self.thrash_flips_left = 6
            self.thrash_next_at = self.t + THRASH_PERIOD_MS
            self.log("note", "gps noise destabilizing mode selection")

    def _touchdown(self) -> None:
        if self.deferred_action is not None:
            # the deferred request finally lands once the vehicle is down
            realized = REALIZED_MODE[self.deferred_action]
            self.log("injection", f"deferred {self.deferred_action.value} applied")
            self.deferred_action = None
            self._set_mode(realized)
        self._set_app(AppState.DISARMING)
        if self.cfg.has(FaultId.F8) and self.mode is AutopilotMode.STABILIZED:
            self.disarm_deadline = self.t + DISARM_TIMEOUT_MS
            self.phase_deadline = None
            self.log("note", "disarm requested; no acknowledgment")
        else:
            self.phase_deadline = self.t + DISARM_MS
            self.disarm_deadline = None

    # -- thrash scheduling (F3/F6) -------------------------------------------

    def _fire_thrash(self) -> None:
        a, b = THRASH_PAIR
        self._set_mode(a if self.mode is b else b)
        self.thrash_flips_left -= 1
        if self.thrash_flips_left > 0:
            self.thrash_next_at = self.t + THRASH_PERIOD_MS
        else:
            self._set_mode(AutopilotMode.OFFBOARD)

    # -- timers ---------------------------------------------------------------

    def _next_timer(self) -> float:
        t = math.inf
        if self.mode_switch_at is not None:
            t = min(t, self.mode_switch_at)
        if self.thrash_flips_left > 0:
            t = min(t, self.thrash_next_at)
        return t

    def _fire_timers(self) -> None:
        if self.mode_switch_at is not None and self.t >= self.mode_switch_at:
            self.mode_switch_at = None
            if self.app is AppState.TAKEOFF and self.mode is AutopilotMode.STABILIZED:
                self._set_mode(AutopilotMode.OFFBOARD)
        if self.thrash_flips_left > 0 and self.t >= self.thrash_next_at:
            self._fire_thrash()

    def _check_ceiling(self) -> None:
        if self.t >= SIM_CEILING_MS and not self.finished:
            self.log("exception", "sim-timeout")
            self._finish("simulation ceiling")

    # -- public driving surface -------------------------------------------

    def advance_until(self, t_target: float, stop_state: Optional[AppState] = None) -> None:
        """Integrate forward to t_target, stopping early when stop_state is
        entered; t_target may be math.inf, which flies until the flight
        ends or stop_state is entered.

        The clock takes the hops of a plain 10 ms grid loop and no others:
        every grid tick, every timer instant and t_target. Every hop moves
        the vehicle and samples deviation, with one GPS-jitter draw per hop
        while there is jitter. The handlers (timers, geofence, sensor
        degradation, the phase step and the simulation ceiling) run
        only on a hop where one of them can fire; _coast takes every other
        hop, replaying runs of full grid hops in one piece where it can. The
        stop check follows each handler hop, so the clock halts at the exact
        transition instant and the caller can schedule injection delays from
        it.
        """
        while not self.finished and self.t + 1e-9 < t_target:
            if self.app is not stop_state:
                self._coast(t_target)
                if not self.t + 1e-9 < t_target:
                    return
            next_grid = (math.floor(self.t / TICK_MS) + 1) * TICK_MS
            hop = min(t_target, next_grid, self._next_timer())
            dt = hop - self.t
            self._integrate(dt)
            self.t = hop
            self._fire_timers()
            self._sample_deviation(dt / 1000.0)
            self._check_geofence()
            self._check_degraded()
            self._phase_step()
            self._check_ceiling()
            if stop_state is not None and self.app is stop_state:
                return

    def _phase_due(self) -> float:
        """First instant at which the current phase's time condition holds."""
        app = self.app
        if app is AppState.PRE_ARM:
            return PREARM_MS
        if app is AppState.HOVERING:
            deadlines = (self.phase_deadline,)
        elif app is AppState.HUMAN_CONTROL:
            deadlines = (self.hold_until,)
        elif app is AppState.DISARMING:
            deadlines = (self.disarm_deadline, self.phase_deadline)
        else:
            return math.inf
        return min((d for d in deadlines if d is not None), default=math.inf)

    def _coast(self, t_target: float) -> None:
        """Take the hops ahead, up to t_target, on which no handler can fire.

        Stops before a hop that reaches a timer, a phase deadline or the
        ceiling, meets the phase's position condition or leaves the fence
        while airborne; takes no hop while a degradation note is pending.
        Each hop moves the clock, the position and the deviation with the
        expressions of _integrate and _sample_deviation. t_target may be
        math.inf: the ceiling is a time condition, so every call ends.

        A run is the stretch of full 10 ms hops from a grid tick to the last
        grid tick before the next time condition and t_target, replayed in
        one piece. The first grid tick the call reaches starts one: the
        clock itself, or the next tick when the clock stands off the grid
        (at a timer or at an earlier call's t_target, such as an injection
        instant). A run takes at most the hops its motion can still use,
        plus 2 for the rounding of the quotient: the climb up to
        TAKEOFF_ALT_M, the descent to the ground, the cruise to its target
        or the wind ramp to its cap, whichever lasts longest. A run this
        bound cut short is followed at once by another from where it ended,
        and a climb or descent clamped at its limit goes on as a hold, so
        the lists below stay that short however far off the next time
        condition is.

        A run's hops share one dt, so the altitudes of a climb, descent or
        ascent come from itertools.accumulate over one step: the loop's own
        additions, one by one in the loop's order, with no closed form, so
        the sums are bit-identical. bisect finds the hop that reaches the
        altitude or the ground on that monotone list. A cruise run is
        _cruise_run, looked up first in cruise_runs by its exact inputs; a
        hold run moves only the clock.

        Under a live fence only a cruise run starts, and it takes at most
        floor((c - FENCE_MARGIN_M) / s) - 1 hops (_fence_hops), where s is
        the stride and c is the distance from (x, y) to the nearest fence
        edge, or 0 when _point_in_polygon fails there. A hop moves at most
        s in the plane, so every replayed position stays more than
        FENCE_MARGIN_M inside, where the ray cast cannot answer otherwise,
        and the per-hop loop's fence check would have passed on each of
        those hops. A run the cap cut short is followed at once by another
        from where it ended, so only the last hops before the boundary stay
        in the per-hop loop, which detects the breach.

        The wind ramp is accumulated and then capped sum by sum, and GPS
        jitter draws one number per hop taken, in order, once the run's
        length is fixed. With the wind at its cap, the run's largest
        deviation is wind_dev + jit * (its largest draw): r -> w + j * r is
        nondecreasing in IEEE arithmetic for j > 0, and the same k draws in
        the same order leave the RNG where the loop leaves it. Hops from an
        off-grid time, the partial hop to t_target, hops of other motions
        under a live fence, and the hop that meets the phase's position
        condition stay in the per-hop loop.
        """
        if self._gps_degraded_due() or self._compass_degraded_due():
            return
        app = self.app
        t = self.t
        x, y, z = self.pos
        # a hop fires a time condition when it reaches this instant; hops
        # stop at timers, so below it a hop is min(t_target, next grid tick)
        due = min(self._next_timer(), SIM_CEILING_MS, self._phase_due())

        # this phase's motion, as in _integrate
        kind = "hold"
        lands = False               # the phase ends on touching the ground
        if app is AppState.TAKEOFF:
            offboard = self.mode is AutopilotMode.OFFBOARD
            # a climb clamped at the altitude holds there until the switch
            if offboard or z < TAKEOFF_ALT_M:
                kind = "climb"
        elif app is AppState.FLYING_TO_WAYPOINT:
            kind = "cruise"
            tx, ty, tz = self.resume_target or self.waypoints[self.legs_done]
        elif app is AppState.RETURNING:
            # z never moves toward this target, so reaching it is x == y == 0
            kind = "cruise"
            tx, ty, tz = 0.0, 0.0, z
        elif app is AppState.LANDING:
            kind, lands, sink = "descend", True, DESCENT_RATE_MPS
            if self.land_target is not None:
                x, y = self.land_target
        elif app is AppState.HUMAN_CONTROL:
            lands = self.manual_airborne
            if z > 0.0 and (self.manual_landing or self.throttle == "low"):
                kind = "descend"
                sink = DESCENT_RATE_MPS if self.manual_landing else MANUAL_SINK_MPS
            elif z > 0.0 and self.throttle == "high":
                kind = "ascend"

        fence = None
        if (self.fence is not None and not self.fence_breached
                and self.geofence != "none" and self.armed):
            fence = self.fence
            # x and y hold outside cruise, and z too in a hold, so the fence
            # cannot be left
            if (kind == "hold" and z <= 0.05
                    or kind != "cruise" and _point_in_polygon(x, y, fence)):
                fence = None

        cap = WIND_DRIFT_CAP_M[self.wind]
        rate = WIND_DRIFT_RATE_MPS[self.wind]
        jit = GPS_JITTER_M[self.gps_noise]
        rand = self.rng.random
        floor = math.floor
        wind_dev, dev_max = self.wind_dev, self.path_deviation_max
        memo = self.cruise_runs
        run = fence is None or kind == "cruise"

        while t + 1e-9 < t_target:
            if run and t == floor(t / TICK_MS) * TICK_MS:
                # a run: n full hops, of which the motion allows k
                n = int((_last_tick_before(min(due, t_target)) - t) / TICK_MS)
                dt_s = TICK_MS / 1000.0
                # the hops each ongoing motion can still use
                ends = []
                if kind == "climb":
                    ends.append((TAKEOFF_ALT_M - z) / (CLIMB_RATE_MPS * dt_s))
                elif kind == "descend":
                    ends.append(z / (sink * dt_s))
                elif kind == "cruise":
                    stride = self.cruise * dt_s
                    ends.append(math.sqrt((x - tx) ** 2 + (y - ty) ** 2 + (z - tz) ** 2) / stride)
                if wind_dev < cap:
                    ends.append((cap - wind_dev) / (rate * dt_s))
                bound = max(ends, default=math.inf) + 2
                cut = bound < n
                if cut:
                    n = math.ceil(bound)
                # a hold takes all n: a hold that lands on the ground was
                # ended by the touchdown on the hop that grounded it
                k = n
                if kind == "cruise":
                    if fence is not None:
                        most = _fence_hops(x, y, fence, stride)
                        if most < n:
                            n, cut = most, True
                    key = (x, y, z, tx, ty, tz, stride, n)
                    ran = memo.get(key)
                    if ran is None:
                        ran = memo[key] = _cruise_run(*key)
                    # -0.0 and 0.0 make one key: with no hop taken, the
                    # position stays this flight's own
                    k = ran[0]
                    if k > 0:
                        _, x, y, z = ran
                elif kind != "hold" and n > 0:
                    # zs[i] is z after i hops, by the loop's own additions
                    up = kind != "descend"
                    vz = CLIMB_RATE_MPS if kind == "climb" else MANUAL_CLIMB_MPS if up else sink
                    zs = list(accumulate(repeat(vz * dt_s, n), add if up else sub, initial=z))
                    if kind == "climb":
                        c, limit, stops = bisect_left(zs, TAKEOFF_ALT_M, 1), TAKEOFF_ALT_M, offboard
                    elif kind == "descend":
                        c, limit, stops = bisect_left(zs, 0.0, 1, key=neg), 0.0, lands
                    else:
                        c = n + 1
                    if c > n:
                        z = zs[n]
                    elif stops:     # the handler hop takes the crossing
                        k, z = c - 1, zs[c - 1]
                    else:           # clamped from hop c on, and held after
                        z, kind = limit, "hold"
                # a run the bound cut short is followed by another
                run = cut and 0 < k == n
                if k > 0:
                    t += k * TICK_MS
                    if wind_dev < cap:
                        # the ramp only grows, so capping each sum equals
                        # capping each step
                        ws = list(map(min, repeat(cap), accumulate(
                            repeat(rate * dt_s, k), initial=wind_dev)))[1:]
                        wind_dev = ws[-1]
                        if jit:
                            ws = map(add, ws, map(mul, repeat(jit), starmap(rand, repeat((), k))))
                        dev_max = max(dev_max, *ws)
                    elif jit:
                        # the largest draw makes the largest sum
                        dev_max = max(dev_max, wind_dev + jit * max(starmap(rand, repeat((), k))))
                    else:
                        dev_max = max(dev_max, wind_dev)
                continue
            # one hop; min() and max() are spelled out: same values, a third
            # of the cost
            hop = (floor(t / TICK_MS) + 1) * TICK_MS
            if not hop < t_target:
                hop = t_target
            if hop >= due:
                break
            dt_s = (hop - t) / 1000.0
            nx, ny, nz = x, y, z
            if kind == "climb":
                nz = z + CLIMB_RATE_MPS * dt_s
                if not nz < TAKEOFF_ALT_M:
                    nz = TAKEOFF_ALT_M
                    if offboard:
                        break
            elif kind == "cruise":
                d = math.sqrt((x - tx) ** 2 + (y - ty) ** 2 + (z - tz) ** 2)
                stride = self.cruise * dt_s
                if d <= stride or d == 0.0:
                    break           # the target is reached on this hop
                f = stride / d
                nx, ny, nz = x + (tx - x) * f, y + (ty - y) * f, z + (tz - z) * f
                if nx == tx and ny == ty and nz == tz:
                    break
            elif kind == "descend":
                nz = z - sink * dt_s
                if not nz > 0.0:
                    nz = 0.0
            elif kind == "ascend":
                nz = z + MANUAL_CLIMB_MPS * dt_s
            if lands and nz <= 0.0:
                break
            if fence is not None and nz > 0.05 and not _point_in_polygon(nx, ny, fence):
                break
            t, x, y, z = hop, nx, ny, nz
            if wind_dev < cap:
                wind_dev = min(cap, wind_dev + rate * dt_s)
            dev = wind_dev
            if jit:
                dev += jit * rand()
            if dev > dev_max:
                dev_max = dev

        if t != self.t:
            self.t = t
            self.pos = (x, y, z)
            self.wind_dev, self.path_deviation_max = wind_dev, dev_max

    def apply_rc(self, action: RcAction) -> bool:
        """Inject one control action now; returns acknowledgment."""
        if self.app in (AppState.PRE_ARM, AppState.DONE):
            raise IllegalEvent(f"RC input is undefined while {self.app.value}")
        request = InjectionRequest(
            action=action,
            app_state=self.app,
            mode=self.mode,
            warn_active=self.warn_active,
            fence_failsafe_active=self.fence_failsafe_active,
        )
        decision = Decision.PASS_THROUGH
        for fid in self.cfg.faults():
            d = inject_fault_behavior(fid, request)
            if d is not Decision.PASS_THROUGH:
                decision = d
                break

        if decision is Decision.IGNORE:
            self.log("injection", f"{action.value} ignored")
            return False
        if decision is Decision.DEFER:
            self.deferred_action = action
            self.log("injection", f"{action.value} deferred until landed")
            return False
        if decision is Decision.CORRUPT:
            # reactivation accepted, but the controller streams the oldest
            # stored setpoint instead of the vehicle's current position
            stale = (0.0, 0.0, TAKEOFF_ALT_M)
            self.log("injection", f"{action.value} honored with stale setpoint")
            self._apply_offboard_resume(initial_setpoint=stale)
            return True

        self.log("injection", f"{action.value} honored")
        self._apply_honored(action)
        return True

    def _apply_honored(self, action: RcAction) -> None:
        realized = REALIZED_MODE[action]
        if realized in TAKEOVER_MODES:
            self.mode_switch_at = None
            self.hold_until = self.t + HOLD_WINDOW_MS
            self.manual_airborne = self.pos[2] > 0.0
            self.manual_landing = self.app is AppState.LANDING
            self.phase_deadline = None
            self.disarm_deadline = None
            self._set_mode(realized)
            self._set_app(AppState.HUMAN_CONTROL)
        elif action is RcAction.OFFBOARD:
            self._apply_offboard_resume(initial_setpoint=self.pos)
        elif action is RcAction.AUTO_LAND:
            self._set_mode(AutopilotMode.LAND)
            if self.pos[2] <= 0.0:
                self.log("note", "land request on the ground; no-op")
                return
            self.mode_switch_at = None
            self.land_target = (self.pos[0], self.pos[1])
            self.phase_deadline = None
            self._set_app(AppState.LANDING)
        elif action is RcAction.AUTO_RTL:
            self._set_mode(AutopilotMode.RTL)
            if self.pos[2] <= 0.0:
                self.log("note", "return request on the ground; no-op")
                return
            self.mode_switch_at = None
            self._set_app(AppState.RETURNING)

    def _apply_offboard_resume(self, initial_setpoint: tuple[float, float, float]) -> None:
        jump = _dist3(self.pos, initial_setpoint)
        if jump > JERK_JUMP_M:
            self.jerk_flag = True
            self.log("note", f"setpoint discontinuity {jump:.1f} m")
            self.resume_target = initial_setpoint
            self.thrash_flips_left = 4
            self.thrash_next_at = self.t + THRASH_PERIOD_MS
        self.mode_switch_at = None
        self._set_mode(AutopilotMode.OFFBOARD)
        if self.app is AppState.TAKEOFF:
            return
        if self.legs_done < len(self.waypoints):
            self._set_app(AppState.FLYING_TO_WAYPOINT)
        else:
            self._begin_hover()
