"""Outputs that depend on the sweep axes, pinned on a spec with two levels
on every environment axis.

Generation, focus sweeps, soundness trials, the default focus axes and the
clustering encoding all walk the axes. The golden digests fly specs with one
level on most environment axes, so a change that reorders or drops an axis
could leave them unchanged; these values would move.
"""

import hashlib

import pytest

from statefuzz import cli
from statefuzz.analysis import FAILURE_REASONS, encode_failures
from statefuzz.cutset import soundness_trials
from statefuzz.fuzzspec import parse_fuzz_spec
from statefuzz.oracle import Verdict
from statefuzz.storage import cases_digest
from statefuzz.sutmodel import SutConfig
from statefuzz.testgen import FOCUS_AXES, GeneratorConfig, focused_generate, generate, sweep_tag

from conftest import small_spec_raw

MAIN_DIGEST = "57100f460d682eaa1f21c9557441093f4fc6ce21656b5fc84622193456dbbe51"

#: swept axes -> (sweep tag, cases digest) around the main test BASE_INDEX
SWEEPS = {
    FOCUS_AXES: ("5e6fe643", "dd521aed19ba2b1550e8851b37e2034c9e2ab7895d76b8d477bc72a9e00f6e83"),
    ("gps_noise", "throttle"): (
        "f984dfc8", "de35e6f6b9308e70172a1b1366a486b8b284c67abe27e40f261acae6701a4036",
    ),
    (): ("afc0e3bf", "3d38d0f23a9fcdfd776a0d87766796dc1edbf5431164d89681c330c2768c4bcf"),
}

SOUNDNESS = ("4676c2e7", "f804b3b2f79442c7e8590230fc4ae61d42eb780e413f8ef55e544b8389ad542a")
ENCODED_DIGEST = "8e5db03410087105b716135539af76bf3fa616cc7f06eb8dbbaf0690b9822098"

BASE_INDEX = 777
RUNS_PER_CELL = 2
SEED = 3


@pytest.fixture(scope="module")
def every_axis_spec():
    raw = small_spec_raw()
    raw["ENVIRONMENT"].update(
        throttle=["low", "high"], geofence=["none", "RETURN"], wind=["none", "high"],
        GPS=["none", "medium"], COMPASS_INTERFERENCE=["none", "high"],
    )
    return parse_fuzz_spec(raw, spec_id="axes")


@pytest.fixture(scope="module")
def main_tests(every_axis_spec):
    config = GeneratorConfig(repetitions_per_combination=1, master_seed=SEED)
    return generate(every_axis_spec, config, "Flight plan A")


def test_main_tests_digest(main_tests):
    assert len(main_tests) == 5 * 3 * 3 * 2**5
    assert cases_digest(main_tests) == MAIN_DIGEST


@pytest.mark.parametrize("axes", list(SWEEPS), ids=lambda a: ",".join(a) or "none")
def test_sweep_tag_and_cases(every_axis_spec, main_tests, axes):
    base = main_tests[BASE_INDEX]
    # the axes are given in reverse; the tag and the tests use FOCUS_AXES order
    axes_given = list(reversed(axes))
    tests = focused_generate(base, axes_given, RUNS_PER_CELL, every_axis_spec, SEED)
    tag = sweep_tag(base, axes_given, RUNS_PER_CELL, SEED)
    assert (tag, cases_digest(tests)) == SWEEPS[axes]


def test_soundness_trials_with_environment_literals(every_axis_spec):
    literals = (
        ("app_state", "HOVERING"), ("compass_interference", "high"),
        ("delay_band", "medium"), ("gps_noise", "medium"), ("wind", "high"),
    )
    tag, trials = soundness_trials(
        literals, every_axis_spec, "Flight plan A", SutConfig(latency_window_ms=(200, 600)), SEED
    )
    # unbound throttle and geofence take the spec's first level
    assert {(t.throttle, t.geofence) for t in trials} == {("low", "none")}
    assert (tag, cases_digest(trials)) == SOUNDNESS


def test_default_axes(every_axis_spec, spec):
    assert cli._default_axes(every_axis_spec) == list(FOCUS_AXES)
    assert cli._default_axes(spec) == ["action", "delay_band"]
    raw = small_spec_raw()
    raw["ENVIRONMENT"].update(GPS=["low", "high"], throttle=["mid", "high"])
    assert cli._default_axes(parse_fuzz_spec(raw)) == [
        "action", "delay_band", "throttle", "gps_noise",
    ]


def test_encoded_failures(every_axis_spec, main_tests):
    failures = [
        (t, Verdict("FAILURE", FAILURE_REASONS[i % len(FAILURE_REASONS)]))
        for i, t in enumerate(main_tests[::97])
    ]
    enc = encode_failures(failures, every_axis_spec)
    assert enc.feature_names[11:21] == (
        "throttle=low", "throttle=high", "geofence=none", "geofence=RETURN",
        "wind=none", "wind=high", "gps_noise=none", "gps_noise=medium",
        "compass_interference=none", "compass_interference=high",
    )
    digest = hashlib.sha256(repr((enc.feature_names, enc.matrix.tolist())).encode()).hexdigest()
    assert digest == ENCODED_DIGEST
