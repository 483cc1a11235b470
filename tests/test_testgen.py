"""Combinatorial test generation and seed derivation."""

import pytest
from hypothesis import given, strategies as st

from statefuzz.errors import ConfigError, EmptyProduct, UnknownAxis
from statefuzz.fuzzspec import parse_fuzz_spec
from statefuzz.sutmodel import AppState, AutopilotMode
from statefuzz.testgen import (
    GeneratorConfig,
    derive_seed,
    enumerate_combinations,
    focused_generate,
    generate,
    sweep_tag,
)

from conftest import small_spec_raw
from helpers import make_case


def test_derive_seed_is_frozen():
    """Stored campaigns replay across releases only if these never move."""
    assert derive_seed(0, 0) == 12426054289685354689
    assert derive_seed(0, 1) == 17227200041832915037
    assert derive_seed(1, 2) == 7438520176602755083
    assert derive_seed(2, 1) == 8116469009122010260
    assert derive_seed(0, "focus", "t00000", 0) == 14211634399474735864


def test_derive_seed_separates_argument_boundaries():
    assert derive_seed(12, 3) != derive_seed(1, 23)
    assert derive_seed("ab", "c") != derive_seed("a", "bc")


def test_enumeration_size_and_order(spec):
    combos = enumerate_combinations(spec)
    assert len(combos) == 45  # 5 constrained pairs x 3 actions x 3 bands
    first = combos[0]
    assert first.mode is AutopilotMode.OFFBOARD
    assert first.target.state is AppState.TAKEOFF
    assert first.action == "ALTCTL"
    assert first.band.name == "short"
    # bands vary fastest, then actions, then (mode, state) pairs
    assert combos[1].band.name == "medium"
    assert combos[3].action == "POSCTL"
    last = combos[-1]
    assert last.mode is AutopilotMode.LAND
    assert last.target.state is AppState.DISARMING
    assert last.action == "STABILIZED"
    assert last.band.name == "long"


def test_enumeration_requires_constraint_pairs():
    raw = small_spec_raw()
    raw["CONSTRAINTS"]["REQUIRES_PX4_MODE"] = {}
    spec = parse_fuzz_spec(raw, spec_id="s")
    with pytest.raises(EmptyProduct):
        enumerate_combinations(spec)


def test_generate_expands_repetitions(spec):
    cases = generate(spec, GeneratorConfig(repetitions_per_combination=80, master_seed=0))
    assert len(cases) == 3600
    assert cases[0].test_id == "t00000"
    assert cases[-1].test_id == "t03599"
    assert [c.index for c in cases] == list(range(3600))
    assert len({c.seed for c in cases}) == 3600
    reps = [c.repetition for c in cases[:160]]
    assert reps == list(range(80)) * 2


def test_generate_is_deterministic(spec):
    cfg = GeneratorConfig(repetitions_per_combination=3, master_seed=7)
    assert generate(spec, cfg) == generate(spec, cfg)
    other = generate(spec, GeneratorConfig(repetitions_per_combination=3, master_seed=8))
    assert [c.delay_ms for c in other] != [c.delay_ms for c in generate(spec, cfg)]


def test_generated_delays_stay_inside_their_band(spec):
    for case in generate(spec, GeneratorConfig(repetitions_per_combination=5, master_seed=3)):
        assert case.band_min_ms <= case.delay_ms < case.band_max_ms


def test_generated_seed_and_delay_formulas(spec):
    case = generate(spec, GeneratorConfig(repetitions_per_combination=1, master_seed=0))[0]
    assert case.seed == derive_seed(0, 0)
    assert case.mission_id == "Flight plan A"
    assert case.spec_id == "fspec1"


def test_mission_policies():
    raw = small_spec_raw()
    raw["MISSION_CONTEXT"] = ["Flight plan A", "Flight plan C"]
    spec = parse_fuzz_spec(raw, spec_id="s")
    crossed = generate(spec, GeneratorConfig(repetitions_per_combination=1, master_seed=0))
    assert len(crossed) == 90
    assert {c.mission_id for c in crossed} == {"Flight plan A", "Flight plan C"}
    first_only = generate(
        spec,
        GeneratorConfig(repetitions_per_combination=1, master_seed=0, mission_policy="first-only"),
    )
    assert len(first_only) == 45
    assert {c.mission_id for c in first_only} == {"Flight plan A"}


@pytest.mark.parametrize(
    "kwargs",
    [
        {"repetitions_per_combination": 0},
        {"repetitions_per_combination": -2},
        {"mission_policy": "round-robin"},
    ],
)
def test_generator_config_validation(kwargs):
    with pytest.raises(ConfigError):
        GeneratorConfig(**kwargs)


def test_test_case_round_trips_through_dict(spec):
    case = generate(spec, GeneratorConfig(repetitions_per_combination=2, master_seed=1))[17]
    raw = case.to_dict()
    assert raw["id"] == case.test_id
    assert raw["delay_band"] == {
        "name": case.band_name,
        "min": case.band_min_ms,
        "max": case.band_max_ms,
    }
    assert type(case).from_dict(raw) == case


# ---------------------------------------------------------------------------
# focused re-fuzzing
# ---------------------------------------------------------------------------


def test_focused_generate_sweeps_only_named_axes(spec):
    base = generate(spec, GeneratorConfig(repetitions_per_combination=1, master_seed=0))[0]
    cases = focused_generate(base, ["action", "delay_band"], 20, spec)
    tag = sweep_tag(base, ["action", "delay_band"], 20)
    assert len(cases) == 180  # 3 actions x 3 bands x 20
    assert all(c.test_id.startswith(f"f-{tag}-") for c in cases)
    assert cases[-1].test_id == f"f-{tag}-0179"
    assert {c.app_state for c in cases} == {base.app_state}
    assert {c.target_mode for c in cases} == {base.target_mode}
    assert {c.throttle for c in cases} == {base.throttle}
    assert {c.action for c in cases} == {"ALTCTL", "POSCTL", "STABILIZED"}
    assert {c.band_name for c in cases} == {"short", "medium", "long"}
    for c in cases:
        assert c.band_min_ms <= c.delay_ms < c.band_max_ms
    assert cases[0].seed == derive_seed(0, "focus", tag, 0)


def test_focused_generate_with_no_axes_resamples_delay(spec):
    base = generate(spec, GeneratorConfig(repetitions_per_combination=1, master_seed=0))[3]
    cases = focused_generate(base, [], 10, spec)
    assert len(cases) == 10
    assert {c.action for c in cases} == {base.action}
    assert {c.band_name for c in cases} == {base.band_name}
    assert len({c.delay_ms for c in cases}) > 1  # fresh timing every run
    assert len({c.seed for c in cases}) == 10


def test_focused_generate_is_deterministic(spec):
    base = generate(spec, GeneratorConfig(repetitions_per_combination=1, master_seed=0))[5]
    a = focused_generate(base, ["delay_band"], 4, spec, master_seed=9)
    b = focused_generate(base, ["delay_band"], 4, spec, master_seed=9)
    assert a == b


def test_focused_generate_rejects_bad_axes(spec):
    base = make_case()
    with pytest.raises(UnknownAxis):
        focused_generate(base, ["altitude"], 5, spec)
    with pytest.raises(UnknownAxis):
        focused_generate(base, ["action", "action"], 5, spec)
    with pytest.raises(ConfigError):
        focused_generate(base, ["action"], 0, spec)


delay_bands = st.tuples(
    st.floats(min_value=0, max_value=10000, allow_nan=False),
    st.floats(min_value=0.5, max_value=10000, allow_nan=False),
).map(lambda t: (t[0], t[0] + max(t[1], 0.5)))


@given(band=delay_bands, seed=st.integers(min_value=0, max_value=2**32))
def test_focused_delays_always_inside_the_cell_band(band, seed):
    lo, hi = band
    base = make_case(band=("cell", lo, hi), delay_ms=lo)
    raw = small_spec_raw()
    spec = parse_fuzz_spec(raw, spec_id="spec")
    for case in focused_generate(base, [], 3, spec, master_seed=seed):
        assert lo <= case.delay_ms < hi
