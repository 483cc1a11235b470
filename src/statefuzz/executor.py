"""Deterministic test execution against the simulated vehicle.

Each test case runs in a fresh vehicle instance seeded from the case's own
seed. The executor drives it to the first occurrence of the targeted app
state in one Vehicle.drive call, schedules the injection at exactly (state
entry time + sampled delay), lets the flight settle, drives it to its end in
one more call, and assembles an execution profile: the closed set of
observables every later stage (oracle, clustering, truth tables) works from.

An Executor owns one cruise-run memo and shares it with every vehicle it
builds, so the memo lives as long as the executor: one run_campaign call,
one pool worker, one soundness check or one replay. A memoized run depends
only on its exact inputs, so the memo's contents and the order of the
flights change no output.

Campaigns fan out over a process pool; results keep submission order, so
campaign output is reproducible independent of worker scheduling.
"""

from __future__ import annotations

import multiprocessing
from dataclasses import dataclass
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

#: Vehicle.drive's chunk. A flight leg is one drive call, but each chunk end
#: (the clock plus this, again and again) is a simulator hop stop, usually at a
#: time off the 10 ms grid, and position and clock sums accumulate over those
#: hops: another chunk length gives other floats and other output bytes.
DRIVE_CHUNK_MS = 500.0


@dataclass(frozen=True)
class InjectionRecord:
    """One delivered (or dead-lettered) RC injection."""

    scheduled_time_ms: float
    actual_time_ms: float
    action: str
    acknowledged: bool
    app_state_at_injection: str
    mode_at_injection: str
    deferred: bool

    def to_dict(self) -> dict:
        return {
            "scheduled_time_ms": self.scheduled_time_ms,
            "actual_time_ms": self.actual_time_ms,
            "action": self.action,
            "acknowledged": self.acknowledged,
            "app_state_at_injection": self.app_state_at_injection,
            "mode_at_injection": self.mode_at_injection,
            "deferred": self.deferred,
        }

    @classmethod
    def from_dict(cls, raw: dict) -> "InjectionRecord":
        return cls(
            scheduled_time_ms=raw["scheduled_time_ms"],
            actual_time_ms=raw["actual_time_ms"],
            action=raw["action"],
            acknowledged=raw["acknowledged"],
            app_state_at_injection=raw["app_state_at_injection"],
            mode_at_injection=raw["mode_at_injection"],
            deferred=raw["deferred"],
        )


@dataclass(frozen=True)
class ExecutionProfile:
    """Everything one run exposes to the verdict and analysis stages."""

    test_id: str
    context_reached: bool
    context_reached_time_ms: Optional[float]
    injections: tuple[InjectionRecord, ...]
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
    trace: tuple[tuple[float, str, str], ...] = ()

    # -- flattened accessors for the (single-injection) common case --------

    @property
    def injection_attempted(self) -> bool:
        return bool(self.injections)

    @property
    def app_state_at_injection(self) -> Optional[str]:
        return self.injections[0].app_state_at_injection if self.injections else None

    @property
    def mode_at_injection(self) -> Optional[str]:
        return self.injections[0].mode_at_injection if self.injections else None

    @property
    def injection_acknowledged(self) -> Optional[bool]:
        return self.injections[0].acknowledged if self.injections else None

    @property
    def injection_deferred(self) -> bool:
        return any(i.deferred for i in self.injections)

    def to_dict(self) -> dict:
        return {
            "test_id": self.test_id,
            "context_reached": self.context_reached,
            "context_reached_time_ms": self.context_reached_time_ms,
            "injections": [i.to_dict() for i in self.injections],
            "mode_after_settle": self.mode_after_settle,
            "final_app_state": self.final_app_state,
            "final_mode": self.final_mode,
            "mission_completed": self.mission_completed,
            "flight_duration_ms": self.flight_duration_ms,
            "path_deviation_max_m": self.path_deviation_max_m,
            "jerk_flag": self.jerk_flag,
            "oscillation_count": self.oscillation_count,
            "failsafe_events": [list(e) for e in self.failsafe_events],
            "exceptions": list(self.exceptions),
            "trace": [list(p) for p in self.trace],
        }

    @classmethod
    def from_dict(cls, raw: dict) -> "ExecutionProfile":
        return cls(
            test_id=raw["test_id"],
            context_reached=raw["context_reached"],
            context_reached_time_ms=raw["context_reached_time_ms"],
            injections=tuple(InjectionRecord.from_dict(i) for i in raw["injections"]),
            mode_after_settle=raw["mode_after_settle"],
            final_app_state=raw["final_app_state"],
            final_mode=raw["final_mode"],
            mission_completed=raw["mission_completed"],
            flight_duration_ms=raw["flight_duration_ms"],
            path_deviation_max_m=raw["path_deviation_max_m"],
            jerk_flag=raw["jerk_flag"],
            oscillation_count=raw["oscillation_count"],
            failsafe_events=tuple(tuple(e) for e in raw["failsafe_events"]),
            exceptions=tuple(raw["exceptions"]),
            trace=tuple(tuple(p) for p in raw["trace"]),
        )


class Executor:
    """Runs test cases against one mission and one system configuration."""

    def __init__(self, mission: MissionPlan, config: SutConfig) -> None:
        self.mission = mission
        self.config = config
        #: the cruise-run memo shared by every flight this executor flies
        self.cruise_runs: dict = {}

    def execute(self, test: TestCase) -> ExecutionProfile:
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
        injections: list[InjectionRecord] = []
        mode_after_settle: Optional[str] = None

        # wait for the targeted state (injections only; baselines just fly)
        if test.action != NO_ACTION:
            vehicle.drive(DRIVE_CHUNK_MS, stop_state=test.app_state)
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
                    deferred = False
                    vehicle.log("injection", f"{test.action} sent after flight end")
                else:
                    acknowledged = vehicle.apply_rc(RcAction(test.action))
                    deferred = vehicle.deferred_action is not None
                    vehicle.advance_until(injection_time + SETTLE_MS)
                    mode_after_settle = vehicle.mode.value
                injections.append(
                    InjectionRecord(
                        scheduled_time_ms=injection_time,
                        actual_time_ms=injection_time,
                        action=test.action,
                        acknowledged=acknowledged,
                        app_state_at_injection=app_at_injection,
                        mode_at_injection=mode_at_injection,
                        deferred=deferred,
                    )
                )

        vehicle.drive(DRIVE_CHUNK_MS)

        return ExecutionProfile(
            test_id=test.test_id,
            context_reached=context_time is not None,
            context_reached_time_ms=context_time,
            injections=tuple(injections),
            mode_after_settle=mode_after_settle,
            final_app_state=vehicle.app.value,
            final_mode=vehicle.mode.value,
            mission_completed=vehicle.mission_completed,
            flight_duration_ms=vehicle.t,
            path_deviation_max_m=round(vehicle.path_deviation_max, 6),
            jerk_flag=vehicle.jerk_flag,
            **summarize_events(vehicle.events),
        )


# -- campaign fan-out ---------------------------------------------------------

_POOL_EXECUTOR: Optional[Executor] = None


def _pool_init(mission: MissionPlan, config: SutConfig) -> None:
    global _POOL_EXECUTOR
    _POOL_EXECUTOR = Executor(mission, config)


def _pool_run(test: TestCase) -> ExecutionProfile:
    assert _POOL_EXECUTOR is not None
    return _POOL_EXECUTOR.execute(test)


def run_campaign(
    tests: list[TestCase],
    mission: MissionPlan,
    config: SutConfig,
    parallelism: int = 1,
) -> list[ExecutionProfile]:
    """Execute every test; results align index-for-index with the input."""
    if parallelism <= 1 or len(tests) < 2:
        ex = Executor(mission, config)
        return [ex.execute(t) for t in tests]
    chunk = max(1, len(tests) // (parallelism * 8))
    with multiprocessing.Pool(
        processes=parallelism, initializer=_pool_init, initargs=(mission, config)
    ) as pool:
        return pool.map(_pool_run, tests, chunksize=chunk)
