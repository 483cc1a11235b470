"""Golden digest: the pipeline's output bytes against a known-good run.

Criterion 9 compares two fresh runs with each other, so a change that alters
both the same way passes it. This test pins the bytes instead: one sha256
over the canonical JSON of every execution profile and verdict of a fixed
flight matrix, and one over every artifact of a small ``statefuzz run``
except ``campaign.json`` (the one file that records wall-clock data).

A third digest pins the clustering stage alone: ``analyze_failures`` on a
fixed synthetic failure set, so a change to K-means, the elbow or the
representatives shows up without flying anything.

A change that moves any digest changes what the pipeline produces. If
that is intended, say why in CHANGES.md and replace the digest.
"""

import hashlib
from unittest import mock

from statefuzz import analysis, cli
from statefuzz.analysis import FAILURE_REASONS, analyze_failures
from statefuzz.executor import Executor, trace_digest
from statefuzz.fuzzspec import parse_fuzz_spec, parse_mission
from statefuzz.oracle import Verdict, classify, default_tree
from statefuzz.storage import canonical_dumps
from statefuzz.sutmodel import NO_ACTION, TARGETABLE_STATES, RcAction, SutConfig

from conftest import MISSION_A_RAW, MISSION_C_RAW, small_spec_raw
from helpers import fired_path, fly_traced, make_case

MATRIX_DIGEST = "c983194f887daf19ff5a103adbfe45f31f34012e504167ac0c1be65cfbaa978e"
RUN_DIGEST = "21064e2080fd5555b0d323a82a9da2688ad4c2f81c551a875fae1bc7d0d220e1"
CLUSTERING_DIGEST = "0bae8a368900f64a4303b5f53f9f56bac2e8aaf39e040acba542fd5049d0b5cf"

ACTIONS = tuple(a.value for a in RcAction) + (NO_ACTION,)
DELAYS = (60.0, 350.0, 900.0)

#: environment vectors of the broad sweep: wind ramps, per-tick GPS jitter,
#: every geofence action, compass and both non-default throttle levels
ENVS = (
    {},
    {"wind": "high", "gps_noise": "low"},
    {"geofence": "WARN", "wind": "medium"},
    {"geofence": "RETURN", "gps_noise": "medium"},
    {"geofence": "LAND", "compass_interference": "high"},
    {"gps_noise": "high", "throttle": "low"},
    {"throttle": "high", "wind": "low", "compass_interference": "medium"},
)

#: seeded faults, the actions that reach them, and an environment they need
FAULT_CASES = (
    (("F1",), ("AUTO.LAND",), {}),
    (("F2",), ("POSCTL",), {}),
    (("F3",), ("OFFBOARD", "AUTO.RTL"), {"geofence": "RETURN"}),
    (("F4",), ("POSCTL",), {"geofence": "RETURN", "wind": "low"}),
    (("F5",), ("AUTO.RTL",), {"wind": "medium"}),
    (("F6",), (NO_ACTION, "AUTO.LAND"), {"gps_noise": "high"}),
    (("F7",), ("POSCTL",), {"geofence": "WARN"}),
    (("F8",), ("STABILIZED", "ALTCTL"), {"compass_interference": "high"}),
    (("F2", "F5", "F7"), ("POSCTL", "AUTO.RTL"), {"geofence": "WARN", "gps_noise": "low"}),
)


def flight_matrix():
    """(mission raw, seeded faults, test case) for every flight of the matrix."""
    cases = []
    for name, mission in (("A", MISSION_A_RAW), ("C", MISSION_C_RAW)):
        index = 0
        for s, state in enumerate(TARGETABLE_STATES):
            for a, action in enumerate(ACTIONS):
                cases.append((mission, (), make_case(
                    state, action, DELAYS[(s + a) % 3], seed=index,
                    test_id=f"{name}-{index:03d}", **ENVS[(s + a) % len(ENVS)],
                )))
                index += 1
        for faults, actions, env in FAULT_CASES:
            for s, state in enumerate(TARGETABLE_STATES):
                for action in actions:
                    cases.append((mission, faults, make_case(
                        state, action, DELAYS[s % 3], seed=index,
                        test_id=f"{name}-{index:03d}", **env,
                    )))
                    index += 1
    return cases


def test_flight_matrix_digest():
    trees = (default_tree("v0"), default_tree("v1"))
    h = hashlib.sha256()
    digests, traces = set(), set()
    for mission_raw, faults, case in flight_matrix():
        config = SutConfig(latency_window_ms=(200.0, 600.0), seeded_faults=faults)
        executor = Executor(parse_mission(dict(mission_raw)), config)
        profile, trace = fly_traced(executor, case)
        # the profile holds the digest of the trace its flight built
        assert profile.trace_digest == trace_digest(trace), case.test_id
        digests.add(profile.trace_digest)
        traces.add(trace)
        h.update(canonical_dumps(profile.to_dict()).encode())
        for tree in trees:
            # each verdict in the shape the digest was taken over, with
            # the predicate outcomes on its way to the leaf
            v = classify(case, profile, tree)
            doc = {"verdict": v.verdict, "reason": v.reason,
                   "fired_path": list(fired_path(case, profile, tree))}
            h.update(canonical_dumps(doc).encode())
    # one digest per distinct trace: no two of the matrix's traces collide
    assert len(digests) == len(traces) > 1
    assert h.hexdigest() == MATRIX_DIGEST


def test_a_flight_injects_exactly_when_it_reaches_its_context():
    """The profile's premise: the injection fields are unset (None, and
    injection_deferred False) exactly when the context was never reached,
    and a baseline never reaches one."""
    reached = 0
    for mission_raw, faults, case in flight_matrix():
        config = SutConfig(latency_window_ms=(200.0, 600.0), seeded_faults=faults)
        profile = Executor(parse_mission(dict(mission_raw)), config).execute(case)
        fields = (
            profile.app_state_at_injection,
            profile.mode_at_injection,
            profile.injection_acknowledged,
        )
        if profile.context_reached_time_ms is None:
            assert fields == (None, None, None), case.test_id
            assert not profile.injection_deferred, case.test_id
        else:
            assert None not in fields, case.test_id
        if case.action == NO_ACTION:
            assert not profile.context_reached, case.test_id
        reached += profile.context_reached
    # both sides of the premise occur in the matrix
    assert 0 < reached < len(flight_matrix())


def test_small_run_digest(tmp_path):
    root = tmp_path / "campaign"
    args = [
        "run", "--spec", "fspec1", "--mission", "mission_a", "--fault", "F2",
        "--latency-window", "200", "600", "--repetitions", "1",
        "--runs-per-cell", "2", "--seed", "3", "--out", str(root),
    ]
    assert cli.main(args) == 0
    assert list((root / "truthtables").glob("*.json"))
    assert (root / "faulttrees" / "combined.json").exists()
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        rel = path.relative_to(root).as_posix()
        if rel != "campaign.json":
            h.update(rel.encode() + b"\0" + path.read_bytes() + b"\0")
    assert h.hexdigest() == RUN_DIGEST


def _draws(seed):
    """A fixed stream of 31-bit integers (64-bit LCG), the same on every platform."""
    x = seed
    while True:
        x = (x * 6364136223846793005 + 1442695040888963407) % 2**64
        yield x >> 33


def clustering_failures():
    """(spec, failures) for the clustering digest: 300 failures, 90 of them repeats.

    Five families share a state, action and reason; one draw in four leaves
    its family on each axis. Throttle, geofence and wind vary, so every kind
    of encoded column is present, and the repeats add duplicate rows.
    """
    raw = small_spec_raw()
    raw["ENVIRONMENT"].update(
        throttle=["low", "mid", "high"], geofence=["none", "WARN", "RETURN"],
        wind=["none", "medium", "high"],
    )
    spec = parse_fuzz_spec(raw, spec_id="golden")
    states = [t.state for t in spec.states]
    modes = list(spec.modes)
    actions = [a.value for a in spec.actions]
    env = spec.environment
    draw = _draws(2024)

    def pick(options, anchor):
        """options[anchor], or a drawn option one time in four."""
        return options[anchor % len(options)] if next(draw) % 4 else options[next(draw) % len(options)]

    params = []
    for i in range(210):
        family = i % 5
        params.append(dict(
            app_state=pick(states, family),
            target_mode=pick(modes, family),
            action=pick(actions, family),
            delay_ms=50.0 + (family * 230 + next(draw) % 300) if next(draw) % 3 else 125.0 * (1 + family),
            throttle=env.throttle[next(draw) % 3],
            geofence=pick(list(env.geofence), family),
            wind=env.wind[next(draw) % 3],
            reason=pick(list(FAILURE_REASONS), 2 * family),
        ))
    params += [params[next(draw) % 210] for _ in range(90)]
    failures = []
    for i, p in enumerate(params):
        p = dict(p)
        reason = p.pop("reason")
        failures.append((make_case(test_id=f"f{i:03d}", **p), Verdict("FAILURE", reason)))
    return spec, failures


def test_clustering_digest():
    spec, failures = clustering_failures()
    result = analyze_failures(failures, spec, seed=5, restarts=3)
    digest = hashlib.sha256(canonical_dumps(result.to_dict()).encode()).hexdigest()
    assert digest == CLUSTERING_DIGEST


def test_clustering_digest_through_centroid_columns():
    # the digest's 300 failures sit below COLUMN_ROWS, so its run takes the
    # broadcast; the same run one centroid column at a time, at the width
    # of real encodings, must give the same bits
    spec, failures = clustering_failures()
    with mock.patch.object(analysis, "COLUMN_ROWS", 0):
        result = analyze_failures(failures, spec, seed=5, restarts=3)
    digest = hashlib.sha256(canonical_dumps(result.to_dict()).encode()).hexdigest()
    assert digest == CLUSTERING_DIGEST
