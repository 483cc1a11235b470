"""Combinatorial test generation and seed derivation."""

import dataclasses

import pytest
from hypothesis import given, strategies as st

from statefuzz.errors import ConfigError, EmptyProduct, UnknownAxis
from statefuzz.fuzzspec import ENV_AXES, parse_fuzz_spec
from statefuzz.sutmodel import AppState, AutopilotMode
from statefuzz.testgen import (
    GeneratorConfig,
    derive_seed,
    focused_generate,
    generate,
    sweep_tag,
)

from conftest import small_spec_raw
from helpers import make_case

MISSION = "Flight plan A"


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
    combos = generate(spec, GeneratorConfig(repetitions_per_combination=1), MISSION)
    assert len(combos) == 45  # 5 constrained pairs x 3 actions x 3 bands
    first = combos[0]
    assert first.target_mode is AutopilotMode.OFFBOARD
    assert first.app_state is AppState.TAKEOFF
    assert first.action == "ALTCTL"
    assert first.band_name == "short"
    # bands vary fastest, then actions, then (mode, state) pairs
    assert combos[1].band_name == "medium"
    assert combos[3].action == "POSCTL"
    last = combos[-1]
    assert last.target_mode is AutopilotMode.LAND
    assert last.app_state is AppState.DISARMING
    assert last.action == "STABILIZED"
    assert last.band_name == "long"


def test_enumeration_requires_constraint_pairs():
    raw = small_spec_raw()
    raw["CONSTRAINTS"]["REQUIRES_PX4_MODE"] = {}
    spec = parse_fuzz_spec(raw, spec_id="s")
    with pytest.raises(EmptyProduct):
        generate(spec, GeneratorConfig(), MISSION)


def test_generate_flies_the_one_mission_it_is_given():
    raw = small_spec_raw()
    raw["MISSION_CONTEXT"] = ["Flight plan C", "Flight plan A"]
    spec = parse_fuzz_spec(raw, spec_id="s")
    cases = generate(spec, GeneratorConfig(repetitions_per_combination=1), MISSION)
    assert len(cases) == 45
    assert {c.mission_id for c in cases} == {MISSION}


def test_generate_refuses_a_mission_the_spec_does_not_list(spec):
    with pytest.raises(EmptyProduct) as refused:
        generate(spec, GeneratorConfig(), "Flight plan C")
    assert "'Flight plan C'" in str(refused.value)
    assert "['Flight plan A']" in str(refused.value)


def test_environment_fields_follow_env_axes():
    # new_case passes a test's environment levels by position
    fields = [f.name for f in dataclasses.fields(make_case())]
    start = fields.index(ENV_AXES[0])
    assert tuple(fields[start:start + len(ENV_AXES)]) == ENV_AXES


def test_generate_expands_repetitions(spec):
    cases = generate(spec, GeneratorConfig(repetitions_per_combination=80, master_seed=0), MISSION)
    assert len(cases) == 3600
    assert cases[0].test_id == "t00000"
    assert cases[-1].test_id == "t03599"
    assert [c.index for c in cases] == list(range(3600))
    assert len({c.seed for c in cases}) == 3600
    reps = [c.repetition for c in cases[:160]]
    assert reps == list(range(80)) * 2


def test_generate_is_deterministic(spec):
    cfg = GeneratorConfig(repetitions_per_combination=3, master_seed=7)
    assert generate(spec, cfg, MISSION) == generate(spec, cfg, MISSION)
    other = generate(spec, GeneratorConfig(repetitions_per_combination=3, master_seed=8), MISSION)
    assert [c.delay_ms for c in other] != [c.delay_ms for c in generate(spec, cfg, MISSION)]


def test_generated_delays_stay_inside_their_band(spec):
    config = GeneratorConfig(repetitions_per_combination=5, master_seed=3)
    for case in generate(spec, config, MISSION):
        assert case.band_min_ms <= case.delay_ms < case.band_max_ms


def test_generated_seed_and_delay_formulas(spec):
    case = generate(spec, GeneratorConfig(repetitions_per_combination=1, master_seed=0), MISSION)[0]
    assert case.seed == derive_seed(0, 0)
    assert case.mission_id == MISSION
    assert case.spec_id == "fspec1"


@pytest.mark.parametrize(
    "kwargs",
    [
        {"repetitions_per_combination": 0},
        {"repetitions_per_combination": -2},
    ],
)
def test_generator_config_validation(kwargs):
    with pytest.raises(ConfigError):
        GeneratorConfig(**kwargs)


def test_test_case_round_trips_through_dict(spec):
    config = GeneratorConfig(repetitions_per_combination=2, master_seed=1)
    case = generate(spec, config, MISSION)[17]
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
    base = generate(spec, GeneratorConfig(repetitions_per_combination=1, master_seed=0), MISSION)[0]
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
    base = generate(spec, GeneratorConfig(repetitions_per_combination=1, master_seed=0), MISSION)[3]
    cases = focused_generate(base, [], 10, spec)
    assert len(cases) == 10
    assert {c.action for c in cases} == {base.action}
    assert {c.band_name for c in cases} == {base.band_name}
    assert len({c.delay_ms for c in cases}) > 1  # fresh timing every run
    assert len({c.seed for c in cases}) == 10


def test_focused_generate_is_deterministic(spec):
    base = generate(spec, GeneratorConfig(repetitions_per_combination=1, master_seed=0), MISSION)[5]
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
