"""Turning a fuzz specification into concrete, replayable test cases.

A combination is one point in the cross product of the spec's dimensions:
constrained (mode, state) pair x injected action x delay band x environment
levels. Each combination is expanded into ``repetitions_per_combination``
test cases; every test gets its own seed derived from the campaign master
seed, and its concrete injection delay is drawn from the band at generation
time so a stored test replays byte-for-byte.

Focused generation re-sweeps chosen axes around one base test (where a
failure cluster pointed), holding everything else at the base's values, to
populate a truth table. A sweep is named and seeded by its key, the inputs
that decide its tests, so two bases with one key get the same tests.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from itertools import product
from random import Random

from .errors import ConfigError, EmptyProduct, UnknownAxis
from .fuzzspec import ENV_AXES, DelayBand, FuzzSpecification, StateTarget
from .sutmodel import AppState, AutopilotMode, RcAction

DEFAULT_REPETITIONS = 80
DEFAULT_FOCUS_REPETITIONS = 20

#: sweepable dimensions for focused re-fuzzing, in canonical order
FOCUS_AXES = ("action", "delay_band") + ENV_AXES


def derive_seed(*parts: object) -> int:
    """Stable 64-bit seed from a list of values (order matters)."""
    text = ":".join(str(p) for p in parts)
    return int(hashlib.sha256(text.encode()).hexdigest()[:16], 16)


@dataclass(frozen=True)
class GeneratorConfig:
    repetitions_per_combination: int = DEFAULT_REPETITIONS
    master_seed: int = 0
    mission_policy: str = "cross-product"

    def __post_init__(self):
        if self.repetitions_per_combination < 1:
            raise ConfigError(
                f"repetitions_per_combination must be >= 1, got {self.repetitions_per_combination}"
            )
        if self.mission_policy not in ("cross-product", "first-only"):
            raise ConfigError(
                f"mission_policy must be 'cross-product' or 'first-only', got {self.mission_policy!r}"
            )


@dataclass(frozen=True)
class Combination:
    mode: AutopilotMode
    target: StateTarget
    action: RcAction
    band: DelayBand
    throttle: str
    geofence: str
    wind: str
    gps_noise: str
    compass_interference: str


@dataclass(frozen=True)
class TestCase:
    """One concrete run: everything the executor needs, nothing it draws late."""

    test_id: str
    index: int
    spec_id: str
    mission_id: str
    app_state: AppState
    target_mode: AutopilotMode
    recurring: bool
    action: str                # an RcAction value, or NONE for baselines
    band_name: str
    band_min_ms: float
    band_max_ms: float
    delay_ms: float
    throttle: str
    geofence: str
    wind: str
    gps_noise: str
    compass_interference: str
    seed: int
    repetition: int

    def env(self) -> dict:
        return {axis: getattr(self, axis) for axis in ENV_AXES}

    def to_dict(self) -> dict:
        return {
            "id": self.test_id,
            "index": self.index,
            "spec_id": self.spec_id,
            "mission_id": self.mission_id,
            "target_app_state": self.app_state.value,
            "target_px4_mode": self.target_mode.value,
            "recurring": self.recurring,
            "injected_action": self.action,
            "delay_band": {"name": self.band_name, "min": self.band_min_ms, "max": self.band_max_ms},
            "delay_ms": self.delay_ms,
            "environment": self.env(),
            "rng_seed": self.seed,
            "repetition": self.repetition,
        }

    @classmethod
    def from_dict(cls, raw: dict) -> "TestCase":
        band = raw["delay_band"]
        env = raw["environment"]
        return cls(
            test_id=raw["id"],
            index=raw["index"],
            spec_id=raw["spec_id"],
            mission_id=raw["mission_id"],
            app_state=AppState(raw["target_app_state"]),
            target_mode=AutopilotMode(raw["target_px4_mode"]),
            recurring=raw["recurring"],
            action=raw["injected_action"],
            band_name=band["name"],
            band_min_ms=band["min"],
            band_max_ms=band["max"],
            delay_ms=raw["delay_ms"],
            throttle=env["throttle"],
            geofence=env["geofence"],
            wind=env["wind"],
            gps_noise=env["gps_noise"],
            compass_interference=env["compass_interference"],
            seed=raw["rng_seed"],
            repetition=raw["repetition"],
        )


def axis_levels(spec: FuzzSpecification, axis: str) -> tuple:
    """The levels the spec gives a focus axis: its actions, its delay bands,
    or the levels of an environment axis."""
    if axis == "action":
        return spec.actions
    if axis == "delay_band":
        return spec.environment.bands
    return getattr(spec.environment, axis)


def axis_value(test: TestCase, axis: str) -> str:
    """A test's value on a focus axis, as truth tables and cut sets name it:
    the delay band's name, or the test's field of the axis's name."""
    return test.band_name if axis == "delay_band" else getattr(test, axis)


def enumerate_combinations(spec: FuzzSpecification) -> list[Combination]:
    """Constraint-filtered cross product of the spec, in declaration order."""
    pairs = spec.constraint_pairs()
    if not pairs:
        raise EmptyProduct("constraints admit no (mode, state) pair; nothing to enumerate")
    dims = [axis_levels(spec, axis) for axis in FOCUS_AXES]
    for dim in dims:
        if not dim:
            raise EmptyProduct("a spec dimension is empty; nothing to enumerate")
    return [
        Combination(mode, target, *rest)
        for (mode, target) in pairs
        for rest in product(*dims)
    ]


def _sample_delay(band: DelayBand, rng: Random) -> float:
    return band.min_ms + (band.max_ms - band.min_ms) * rng.random()


def _build_case(
    test_id: str,
    index: int,
    spec_id: str,
    mission_id: str,
    combo: Combination,
    delay_ms: float,
    seed: int,
    repetition: int,
) -> TestCase:
    return TestCase(
        test_id=test_id,
        index=index,
        spec_id=spec_id,
        mission_id=mission_id,
        app_state=combo.target.state,
        target_mode=combo.mode,
        recurring=combo.target.recurring,
        action=combo.action.value,
        band_name=combo.band.name,
        band_min_ms=combo.band.min_ms,
        band_max_ms=combo.band.max_ms,
        delay_ms=delay_ms,
        throttle=combo.throttle,
        geofence=combo.geofence,
        wind=combo.wind,
        gps_noise=combo.gps_noise,
        compass_interference=combo.compass_interference,
        seed=seed,
        repetition=repetition,
    )


def generate(spec: FuzzSpecification, config: GeneratorConfig | None = None) -> list[TestCase]:
    """Expand every combination into seeded, delay-sampled test cases."""
    config = config or GeneratorConfig()
    contexts = spec.mission_contexts
    if config.mission_policy == "first-only":
        contexts = contexts[:1]
    combos = enumerate_combinations(spec)
    cases: list[TestCase] = []
    index = 0
    for mission_id in contexts:
        for combo in combos:
            for rep in range(config.repetitions_per_combination):
                seed = derive_seed(config.master_seed, index)
                delay = _sample_delay(
                    combo.band, Random(derive_seed(config.master_seed, index, "delay"))
                )
                cases.append(
                    _build_case(
                        f"t{index:05d}", index, spec.spec_id, mission_id, combo, delay, seed, rep
                    )
                )
                index += 1
    return cases


def sweep_tag(
    base: TestCase,
    axes: list[str],
    runs_per_cell: int,
    master_seed: int = 0,
) -> str:
    """Eight hex digits naming the focus sweep around ``base``.

    They are derived from the sweep's key: the base's spec, mission, scope
    state, target mode and ``recurring`` flag, the swept axes in
    ``FOCUS_AXES`` order, the base's value on every unswept axis,
    ``runs_per_cell`` and the master seed. Nothing else of the base (its id,
    seed, delay or repetition) goes in. An unknown or repeated axis raises
    UnknownAxis.
    """
    bad = [a for a in axes if a not in FOCUS_AXES]
    if bad:
        raise UnknownAxis(f"unknown focus axes {bad}; valid axes are {list(FOCUS_AXES)}")
    if len(set(axes)) != len(axes):
        raise UnknownAxis("focus axes contain duplicates")
    held = [
        (base.band_name, base.band_min_ms, base.band_max_ms) if axis == "delay_band"
        else getattr(base, axis)
        for axis in FOCUS_AXES
        if axis not in axes
    ]
    key = (
        base.spec_id,
        base.mission_id,
        base.app_state.value,
        base.target_mode.value,
        base.recurring,
        [a for a in FOCUS_AXES if a in axes],
        held,
        runs_per_cell,
    )
    return f"{derive_seed(master_seed, 'sweep', key):016x}"[:8]


def focused_generate(
    base: TestCase,
    axes: list[str],
    runs_per_cell: int,
    spec: FuzzSpecification,
    master_seed: int = 0,
) -> list[TestCase]:
    """Sweep the listed axes around ``base`` for truth-table construction.

    Dimensions not named in ``axes`` stay at the base test's values; listed
    axes run over their full spec ranges. Every run re-samples its delay
    inside its cell's band, so even axes=[] replays draw fresh timing.

    Test i (``cell * runs_per_cell + repetition``) is ``f-<tag>-<i:04d>``,
    where ``tag`` is :func:`sweep_tag`; its seed and delay seed come from the
    tag and i too. So the tests depend on the sweep's key alone, and two
    bases with one key get the same tests.
    """
    tag = sweep_tag(base, axes, runs_per_cell, master_seed)
    if runs_per_cell < 1:
        raise ConfigError(f"runs_per_cell must be >= 1, got {runs_per_cell}")

    # an unswept axis holds the base's own level, its band whole
    held = {
        "action": RcAction(base.action),
        "delay_band": DelayBand(base.band_name, base.band_min_ms, base.band_max_ms),
        **base.env(),
    }
    ranges = [axis_levels(spec, axis) if axis in axes else [held[axis]] for axis in FOCUS_AXES]
    cases: list[TestCase] = []
    index = 0
    target = StateTarget(base.app_state, base.recurring)
    for values in product(*ranges):
        combo = Combination(base.target_mode, target, *values)
        for rep in range(runs_per_cell):
            seed = derive_seed(master_seed, "focus", tag, index)
            delay = _sample_delay(
                combo.band, Random(derive_seed(master_seed, "focus", tag, index, "delay"))
            )
            cases.append(
                _build_case(
                    f"f-{tag}-{index:04d}",
                    index,
                    base.spec_id,
                    base.mission_id,
                    combo,
                    delay,
                    seed,
                    rep,
                )
            )
            index += 1
    return cases
