"""Turning a fuzz specification into concrete, replayable test cases.

A campaign flies one mission, which the spec's MISSION_CONTEXT must list.
A combination is one level on each of AXES: constrained (mode, state)
pair (the injection context) x injected action x delay band x environment
levels. Each combination is expanded into ``repetitions_per_combination``
test cases; every test gets its own seed derived from the campaign master
seed, and its concrete injection delay is drawn from the band at generation
time so a stored test replays byte-for-byte. Every case, main, focused or
soundness trial, is made by new_case from one level per axis.

Focused generation re-sweeps chosen axes around one base test (where a
failure cluster pointed), holding the others at the base's levels, to
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

#: the axes a focus sweeps by default, in canonical order
FOCUS_AXES = ("action", "delay_band") + ENV_AXES
#: the injection context: a (mode, StateTarget) constraint pair, named by its state
CONTEXT = "app_state"
#: every dimension of a test, in canonical order: new_case takes one level per axis
AXES = (CONTEXT,) + FOCUS_AXES
#: where a levels tuple holds the delay band
_BAND = AXES.index("delay_band")


def derive_seed(*parts: object) -> int:
    """Stable 64-bit seed from a list of values (order matters)."""
    text = ":".join(str(p) for p in parts)
    return int(hashlib.sha256(text.encode()).hexdigest()[:16], 16)


@dataclass(frozen=True)
class GeneratorConfig:
    repetitions_per_combination: int = DEFAULT_REPETITIONS
    master_seed: int = 0

    def __post_init__(self):
        if self.repetitions_per_combination < 1:
            raise ConfigError(
                f"repetitions_per_combination must be >= 1, got {self.repetitions_per_combination}"
            )
        if self.master_seed < 0:
            raise ConfigError(f"master_seed must be >= 0, got {self.master_seed}")


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
    # the environment levels, in ENV_AXES order: new_case passes them by position
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
            **{axis: env[axis] for axis in ENV_AXES},
            seed=raw["rng_seed"],
            repetition=raw["repetition"],
        )


def axis_levels(spec: FuzzSpecification, axis: str) -> tuple:
    """The levels the spec gives an axis: its constraint pairs, its actions,
    its delay bands, or the levels of an environment axis."""
    if axis == CONTEXT:
        return spec.constraint_pairs()
    if axis == "action":
        return spec.actions
    if axis == "delay_band":
        return spec.environment.bands
    return getattr(spec.environment, axis)


def level_name(axis: str, level) -> str:
    """A spec level of an axis as axis_value names a test's level on it."""
    if axis == CONTEXT:
        return level[1].state.value
    if axis == "action":
        return level.value
    return level.name if axis == "delay_band" else level


def axis_value(test: TestCase, axis: str) -> str:
    """A test's value on an axis, as level_name names its level: its state,
    the delay band's name, or the test's field of the axis's name."""
    if axis == CONTEXT:
        return test.app_state.value
    return test.band_name if axis == "delay_band" else getattr(test, axis)


def new_case(
    test_id: str, index: int, spec_id: str, mission_id: str, levels: tuple, delay_ms: float,
    seed: int, repetition: int,
) -> TestCase:
    """The test case of these inputs, the one constructor every generator
    goes through. levels holds one level per AXES axis, in its order: the
    context (a (mode, StateTarget) pair), the action (an RcAction), the
    delay band, then each environment level."""
    (mode, target), action, band, *env = levels
    return TestCase(
        test_id, index, spec_id, mission_id, target.state, mode, target.recurring,
        action.value, band.name, band.min_ms, band.max_ms, delay_ms, *env, seed, repetition,
    )


def _sample_delay(band: DelayBand, rng: Random) -> float:
    return band.min_ms + (band.max_ms - band.min_ms) * rng.random()


def generate(
    spec: FuzzSpecification, generator: GeneratorConfig, mission_id: str
) -> list[TestCase]:
    """The main tests of a campaign that flies mission_id.

    The levels of the AXES axes are crossed in declaration order (the
    constraint pairs vary slowest), and each combination expands into
    ``repetitions_per_combination`` seeded cases whose delays are drawn from
    their bands. Raises EmptyProduct when the spec's MISSION_CONTEXT does
    not list mission_id, or when an axis has no level.
    """
    if mission_id not in spec.mission_contexts:
        raise EmptyProduct(
            f"mission {mission_id!r} is not in the spec's MISSION_CONTEXT "
            f"{list(spec.mission_contexts)}; nothing to generate"
        )
    dims = [axis_levels(spec, axis) for axis in AXES]
    if not all(dims):
        raise EmptyProduct("constraints admit no (mode, state) pair, or a dimension is empty")
    master_seed = generator.master_seed
    cases: list[TestCase] = []
    for levels in product(*dims):
        for rep in range(generator.repetitions_per_combination):
            index = len(cases)
            delay = _sample_delay(levels[_BAND], Random(derive_seed(master_seed, index, "delay")))
            cases.append(new_case(
                f"t{index:05d}", index, spec.spec_id, mission_id, levels, delay,
                derive_seed(master_seed, index), rep,
            ))
    return cases


def sweep_tag(
    base: TestCase,
    axes: list[str],
    runs_per_cell: int,
    master_seed: int = 0,
) -> str:
    """Eight hex digits naming the focus sweep around ``base``.

    They are derived from the sweep's key: the base's spec and mission, its
    state, target mode and ``recurring`` flag when the context is held, the
    swept axes in ``AXES`` order, the base's value on every other unswept
    axis, ``runs_per_cell`` and the master seed. Nothing else of the base
    (its id, seed, delay or repetition) goes in. An unknown or repeated axis
    raises UnknownAxis.
    """
    bad = [a for a in axes if a not in AXES]
    if bad:
        raise UnknownAxis(f"unknown focus axes {bad}; valid axes are {list(AXES)}")
    if len(set(axes)) != len(axes):
        raise UnknownAxis("focus axes contain duplicates")
    held = [
        (base.band_name, base.band_min_ms, base.band_max_ms) if axis == "delay_band"
        else getattr(base, axis)
        for axis in FOCUS_AXES
        if axis not in axes
    ]
    # a held context keeps the place in the key it had before it was an axis
    context = () if CONTEXT in axes else (base.app_state.value, base.target_mode.value,
                                          base.recurring)
    key = (
        base.spec_id,
        base.mission_id,
        *context,
        [a for a in AXES if a in axes],
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

    Axes not named in ``axes`` stay at the base test's levels (its band
    whole); listed axes run over their full spec ranges. Every run
    re-samples its delay inside its cell's band, so even axes=[] replays
    draw fresh timing.

    Test i (``cell * runs_per_cell + repetition``) is ``f-<tag>-<i:04d>``,
    where ``tag`` is :func:`sweep_tag`; its seed and delay seed come from the
    tag and i too. So the tests depend on the sweep's key alone, and two
    bases with one key get the same tests.
    """
    tag = sweep_tag(base, axes, runs_per_cell, master_seed)
    if runs_per_cell < 1:
        raise ConfigError(f"runs_per_cell must be >= 1, got {runs_per_cell}")
    held = {
        CONTEXT: (base.target_mode, StateTarget(base.app_state, base.recurring)),
        "action": RcAction(base.action),
        "delay_band": DelayBand(base.band_name, base.band_min_ms, base.band_max_ms),
        **base.env(),
    }
    ranges = [axis_levels(spec, axis) if axis in axes else [held[axis]] for axis in AXES]
    cases: list[TestCase] = []
    for levels in product(*ranges):
        for rep in range(runs_per_cell):
            index = len(cases)
            delay = _sample_delay(
                levels[_BAND], Random(derive_seed(master_seed, "focus", tag, index, "delay"))
            )
            cases.append(new_case(
                f"f-{tag}-{index:04d}", index, base.spec_id, base.mission_id, levels, delay,
                derive_seed(master_seed, "focus", tag, index), rep,
            ))
    return cases
