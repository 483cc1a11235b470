"""Deterministic test execution against the simulated vehicle.

Each test case runs in a fresh vehicle instance seeded from the case's own
seed. The executor flies it to the first occurrence of the targeted app
state in one Vehicle.advance_until call with no time bound, schedules the
injection at exactly (state entry time + sampled delay), lets the flight
settle, flies it to its end in one more call, and assembles an execution
profile: the closed set of observables every later stage (oracle,
clustering, truth tables) works from. A leg's only hop stops are the
simulator's own: grid ticks, timer instants and the injection and settle
instants.

A profile holds what the oracle judges and clustering encodes: the
injection context, the final state and mode, the flight's duration and
path deviation, its failsafes, exceptions and oscillations. The
state-and-mode trace that summarize_events builds it holds only as its
trace_digest, 16 hex digits: no stage derives anything from the trace,
which was most of a stored flight's bytes, and a flight is deterministic
from its seed, so Executor.fly rebuilds the event log, and the trace with
it, on demand (replay --events). The digest keeps a replay that compares
whole profiles as strict: a switch latency shifted by a fraction of a
millisecond moves only the trace.

An Executor owns one cruise-run memo and shares it with every vehicle it
builds, so the memo lives as long as the executor: one serial run_campaign
call, one pool worker or one replay. A memoized run depends only on its
exact inputs, so the memo's contents and the order of the flights change
no output.

Campaigns fan out over a process pool; results keep submission order, so
campaign output is reproducible independent of worker scheduling. A caller
that flies several batches can open one pool with open_pool and hand it to
each run_campaign call: its workers, and their memos, then live until the
caller closes it. Without a pool, run_campaign opens one for the call and
closes it before returning.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, fields
from random import Random
from typing import Optional

from .fuzzspec import MissionPlan
from .sutmodel import (
    NO_ACTION,
    RcAction,
    SutConfig,
    Vehicle,
    summarize_events,
)
from .testgen import TestCase, derive_seed

#: observation window after an injection before the flight is resumed
SETTLE_MS = 1000.0


@dataclass(frozen=True)
class ExecutionProfile:
    """Everything one run exposes to the verdict and analysis stages.

    A flight injects at most once: at context_reached_time_ms plus the
    test's delay_ms, the test's action. The four injection fields describe
    that injection; they are None (injection_deferred False) when the
    context was never reached, so nothing was injected. A result line is
    the JSON array of the fields in declaration order (PROFILE_FIELDS), so
    a change to the fields or their order raises storage.LAYOUT.
    trace_digest is the flight's trace_digest(trace), the trace summarized
    from its event log.
    """

    test_id: str
    context_reached_time_ms: Optional[float]
    app_state_at_injection: Optional[str]
    mode_at_injection: Optional[str]
    injection_acknowledged: Optional[bool]
    injection_deferred: bool
    mode_after_settle: Optional[str]
    final_app_state: str
    final_mode: str
    mission_completed: bool
    flight_duration_ms: float
    path_deviation_max_m: float
    jerk_flag: bool
    oscillation_count: int
    failsafe_events: tuple[tuple[float, str, str], ...] = ()
    exceptions: tuple[str, ...] = ()
    trace_digest: str = ""

    @property
    def context_reached(self) -> bool:
        return self.context_reached_time_ms is not None

    def to_dict(self) -> dict:
        return {name: getattr(self, name) for name in PROFILE_FIELDS}

    @classmethod
    def from_row(cls, row: list) -> "ExecutionProfile":
        """The profile whose fields in PROFILE_FIELDS order are row's items,
        as JSON gives them back: failsafe_events and exceptions, lists,
        become tuples."""
        *head, failsafe_events, exceptions, digest = row
        return cls(*head, tuple(map(tuple, failsafe_events)), tuple(exceptions), digest)


#: ExecutionProfile's field names in declaration order, a result line's order
PROFILE_FIELDS = tuple(f.name for f in fields(ExecutionProfile))


def trace_digest(trace) -> str:
    """16 hex digits of blake2b over the repr of a trace as summarize_events
    builds it: a float's repr round-trips, so equal digests mean equal
    traces but for a 2**-64 chance."""
    return hashlib.blake2b(repr(trace).encode(), digest_size=8).hexdigest()


class Executor:
    """Runs test cases against one mission and one system configuration."""

    def __init__(self, mission: MissionPlan, config: SutConfig) -> None:
        self.mission = mission
        self.config = config
        #: the cruise-run memo shared by every flight this executor flies
        self.cruise_runs: dict = {}

    def execute(self, test: TestCase) -> ExecutionProfile:
        return self.fly(test)[0]

    def fly(self, test: TestCase) -> tuple[ExecutionProfile, list]:
        """test's flight: its profile and the vehicle's event log, the
        (time, kind, detail) entries summarize_events reads."""
        rng = Random(derive_seed(test.seed, "flight"))
        vehicle = Vehicle(
            waypoints=self.mission.waypoints,
            cruise_speed=self.mission.cruise_speed,
            geofence_polygon=self.mission.geofence_polygon,
            config=self.config,
            env=test.env(),
            rng=rng,
            cruise_runs=self.cruise_runs,
        )

        context_time: Optional[float] = None
        app_at_injection: Optional[str] = None
        mode_at_injection: Optional[str] = None
        acknowledged: Optional[bool] = None
        deferred = False
        mode_after_settle: Optional[str] = None

        # wait for the targeted state (a baseline just flies)
        if test.action != NO_ACTION:
            vehicle.advance_until(math.inf, stop_state=test.app_state)
            if vehicle.app is test.app_state:
                context_time = vehicle.t
                injection_time = context_time + test.delay_ms
                vehicle.advance_until(injection_time)
                app_at_injection = vehicle.app.value
                mode_at_injection = vehicle.mode.value
                if vehicle.finished:
                    # the flight ended before the scheduled instant; the
                    # request goes nowhere and nobody acknowledges it
                    acknowledged = False
                    vehicle.log("injection", f"{test.action} sent after flight end")
                else:
                    acknowledged = vehicle.apply_rc(RcAction(test.action))
                    deferred = vehicle.deferred_action is not None
                    vehicle.advance_until(injection_time + SETTLE_MS)
                    mode_after_settle = vehicle.mode.value

        vehicle.advance_until(math.inf)
        summary = summarize_events(vehicle.events)
        summary["trace_digest"] = trace_digest(summary.pop("trace"))

        return ExecutionProfile(
            test_id=test.test_id,
            context_reached_time_ms=context_time,
            app_state_at_injection=app_at_injection,
            mode_at_injection=mode_at_injection,
            injection_acknowledged=acknowledged,
            injection_deferred=deferred,
            mode_after_settle=mode_after_settle,
            final_app_state=vehicle.app.value,
            final_mode=vehicle.mode.value,
            mission_completed=vehicle.mission_completed,
            flight_duration_ms=vehicle.t,
            path_deviation_max_m=round(vehicle.path_deviation_max, 6),
            jerk_flag=vehicle.jerk_flag,
            **summary,
        ), vehicle.events


# -- campaign fan-out ---------------------------------------------------------

_POOL_EXECUTOR: Optional[Executor] = None


def _pool_init(mission: MissionPlan, config: SutConfig) -> None:
    global _POOL_EXECUTOR
    _POOL_EXECUTOR = Executor(mission, config)


def _pool_run(test: TestCase) -> ExecutionProfile:
    assert _POOL_EXECUTOR is not None
    return _POOL_EXECUTOR.execute(test)


def open_pool(mission: MissionPlan, config: SutConfig, parallelism: int):
    """A pool of parallelism workers, each with one Executor for mission and config.

    multiprocessing is imported here, so a serial command never loads it.
    """
    import multiprocessing

    return multiprocessing.Pool(
        processes=parallelism, initializer=_pool_init, initargs=(mission, config)
    )


def run_campaign(
    tests: list[TestCase],
    mission: MissionPlan,
    config: SutConfig,
    parallelism: int = 1,
    pool=None,
) -> list[ExecutionProfile]:
    """Execute every test; results align index-for-index with the input.

    With parallelism above 1 and at least two tests, the tests go to pool,
    which must come from open_pool with the same mission and config, or to
    a pool opened for this call alone.
    """
    if parallelism <= 1 or len(tests) < 2:
        ex = Executor(mission, config)
        return [ex.execute(t) for t in tests]
    chunk = max(1, len(tests) // (parallelism * 8))
    if pool is not None:
        return pool.map(_pool_run, tests, chunksize=chunk)
    with open_pool(mission, config, parallelism) as own:
        return own.map(_pool_run, tests, chunksize=chunk)
