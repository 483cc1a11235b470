"""Layer bench for statefuzz: writes a BENCH_<n>.json one section at a time.

Usage, from the root of a checkout:

    python3 bench/bench.py clustering --out FILE --key after [--src DIR] [--repeats 3]
    python3 bench/bench.py simulator --out FILE --key after [--src DIR] [--repeats 3]
    python3 bench/bench.py simulator --out FILE --key alternating \\
        --parent DIR --change DIR [--pairs 10]
    python3 bench/bench.py storage --out FILE --key after [--src DIR] [--repeats 3]
    python3 bench/bench.py storage --out FILE --key alternating \\
        --parent DIR --change DIR [--pairs 10]
    python3 bench/bench.py oracle --out FILE --key after [--src DIR] [--repeats 3]
    python3 bench/bench.py minimize --out FILE --key after [--src DIR] [--repeats 3]
    python3 bench/bench.py startup --out FILE --parent DIR --change DIR [--pairs 10]
    python3 bench/bench.py pairs --out FILE --parent DIR --change DIR \\
        --workload reanalyze [--pairs 10] [--seed 0]
    python3 bench/bench.py traced --out FILE --parent DIR --change DIR --workload NAME
    python3 bench/bench.py samefacts --parent DIR --change DIR

``clustering`` times ``analysis.analyze_failures`` in this process on
synthetic failure sets of 100, 1,000 and 3,600 failures (the median of
``--repeats`` runs, at least 3) with the package under ``--src`` (default:
this checkout's ``src``), and records a digest of each result so two
source trees can be checked for equal output.

``simulator`` flies, in this process, two flight sets. One is every flight
that the README quick start (``run --spec fspec1 --mission mission_a
--fault F2 --latency-window 200 600 --repetitions 20 --seed 0``) stores:
its 900 main tests and its focused ones, each stored sweep once (180 since
representatives with one sweep key share a sweep; 540 before). These are
calm flights with no fence. The other is the 576 main tests of perfbench's
seed-0 ``env_fence_c`` campaign (mission C, F2+F5+F7, the spec read from
``perfbench/specs/env_fence_c.json``), which cross a live geofence under
wind and draw GPS jitter. For each set it reports flights per second and
simulated seconds per host second over the median of ``--repeats``
passes, at least 3, a digest of the execution profiles, and from one more
pass the runs (``Vehicle._coast`` asks ``_last_tick_before`` once per
run), the ``_point_in_polygon`` calls and the flights' ``rng.random``
draws per flight, and the entries that pass leaves in the executor's
``cruise_runs`` memo; that pass must fly the same profiles. With ``--parent``
and ``--change`` each checkout's CLI stores each set's campaign in a fresh
interpreter, so the two may store different layouts, and each checkout's
``src`` flies the flight set it stored, in cold single passes: each pass is
a fresh subprocess with a new ``Executor``, so any per-executor memo starts
empty. The sides alternate which runs first; each set's section records
each side's passes, median and quartiles, the pairs the change won, the
profile digests, and from one more pass per side, with ``Vehicle._coast``,
``_last_tick_before`` and ``_point_in_polygon`` wrapped and each flight's
``rng.random`` counted
in the subprocess, the calls of each per flight and the entries of the
executor's ``cruise_runs`` memo.

``storage`` stores the README quick start with the package under ``--src``,
loads it, and then, ``--repeats`` times (at least 3), copies that
campaign's ``campaign.json`` and ``tests.json`` into a fresh directory and
there times four steps: ``storage.load_campaign`` with no results yet (so
it only reads the tests: parses the stored cases, or regenerates them from
their recipes and checks their sha256), one ``storage.save_result`` call
per result in the campaign's test order, ``storage.load_campaign`` of the
whole directory, and ``storage.save_tests`` of the loaded tests. It reports
the median time of the results' save and load per 1,000 results, and of
the tests' read and ``save_tests`` per 1,000 tests, the bytes the results
and ``tests.json`` take on disk, and a digest of the loaded profiles and
of each verdict and its reason, so two source trees can be checked for equal results. With
``--parent`` and ``--change`` each checkout's CLI stores the quick start in
a fresh interpreter, so the two may store different layouts, and each
checkout's ``src`` times those four steps on the campaign it stored in
single passes, each in a fresh subprocess, the sides alternating which runs
first: equal digests show that both sides stored the same facts. Host drift
over minutes exceeds what a storage change moves, so one tree per
invocation cannot compare two. The section records each side's passes,
the median and quartiles of each step per 1,000, the pairs the change won,
the stored bytes and the digests.

``oracle`` stores the README quick start with the package under ``--src``
and judges every stored profile under oracle ``v0`` and ``v1``, in this
process. It reports, per version, classifications per second over the
median of ``--repeats`` passes (at least 3), the verdict counts and a digest
of the verdicts, so two source trees can be checked for equal verdicts.

``minimize`` stores the seed-0 ``f2_quickstart`` and ``env_fence_c``
campaigns of perfbench (serially: a campaign is the same at any
parallelism) with the package under ``--src`` and times
``cutset.minimize`` on the truth table of each stored sweep, built by
``cutset.table_from_results`` over the sweep's stored results as
``load_campaign`` gives them, in this process. It
reports, per table, its rows and axes, the median time per call over
``--repeats`` passes (at least 3) of ``MINIMIZE_CALLS`` calls each and the
number of cut sets, and a digest of every table's cut sets, so two source
trees can be checked for equal output.

``startup`` times cold starts of two checkouts: ``--pairs`` alternating
pairs of fresh interpreters that only ``import statefuzz.cli``, then one
start per subcommand, under ``-X importtime``, that runs it on a small
campaign the side's own CLI stored (``run`` stores its own). It records each side's import
times, their median and quartiles, the pairs the change won, and which heavy
modules (numpy, multiprocessing) each start loaded; for each subcommand, its
wall time and the time its imports took.

``pairs`` runs ``perfbench/run.py --trace 0`` of two checkouts in turn,
alternating which side runs first, and records every run's end-to-end
metrics and artifact digests, and for each end-to-end metric each side's
median and quartiles and the number of pairs the change won. ``traced``
runs ``perfbench/run.py --trace 1`` once per side and records the per-layer
metrics.

``samefacts`` checks that two checkouts store the same facts. A checkout
of a revision of this repository is made without a download, for example
``git archive REV | tar -x -C DIR``. For each workload of
``perfbench/run.py``'s ``WORKLOADS`` at each of ``SAMEFACTS_SEEDS`` (0 and
11), each side's CLI stores the workload's campaign in a fresh interpreter
(for ``reanalyze`` it also runs the commands that perfbench times on it,
``analyze --oracle v0`` and ``report``), so a layout change is no obstacle,
and each side's ``load_campaign`` reads its own campaign back. It prints which files are
byte-equal (``campaign.json`` without its clock fields, naming the fields
that differ), how many ``results.jsonl`` lines differ and how many of them
only in the DONE time (``flight_duration_ms`` and a stored trace's last
time), how many rows differ in each profile field both sides have, and the
fields only one side has. Then it compares the facts: each stored test's
verdict and reason, the recorded verdict counts, K, the representatives,
every truth table's rows, the combined cut sets and each soundness
verdict. It exits 1 at the first fact that differs, naming it, and 0 when
all are equal. It writes no ``--out``.

Each other command merges its result into one section of ``--out`` (under
``--key`` for ``clustering``, ``simulator``, ``storage``, ``oracle`` and
``minimize``, under ``parent vs change`` for ``startup``, under the
workload and seed otherwise) and records the machine: nproc and the Python and numpy versions.
It is not part of the test suite.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.util
import io
import json
import math
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: failure-set sizes of the clustering layer
CLUSTER_SIZES = (100, 1000, 3600)

#: the README quick start, the simulator layer's flight set at seed 0
F2_QUICKSTART = ("run", "--spec", "fspec1", "--mission", "mission_a", "--fault", "F2",
                 "--latency-window", "200", "600", "--repetitions", "20", "--seed", "0")

#: a small campaign for the subcommand starts: 45 main tests, one run per cell
SMALL_RUN = ("run", "--spec", "fspec1", "--mission", "mission_a", "--fault", "F2",
             "--latency-window", "200", "600", "--repetitions", "1", "--runs-per-cell", "1",
             "--no-soundness", "--seed", "0")

#: perfbench's seed-0 env_fence_c campaign, serially (a campaign is the same
#: at any parallelism); the spec is only read
ENV_FENCE_C = ("run", "--spec", str(ROOT / "perfbench" / "specs" / "env_fence_c.json"),
               "--mission", "mission_c", "--fault", "F2", "--fault", "F5", "--fault", "F7",
               "--latency-window", "200", "600", "--repetitions", "4",
               "--runs-per-cell", "4", "--seed", "0")

#: the seeds at which samefacts stores each of perfbench's workloads
SAMEFACTS_SEEDS = (0, 11)

#: campaign.json's fields that record when and how long a run took
CLOCK_FIELDS = ("created_at", "wall_time_s")

#: perfbench's seed-0 campaigns whose truth tables the minimization layer times
MINIMIZE_RUNS = {"f2_quickstart": F2_QUICKSTART, "env_fence_c": ENV_FENCE_C}

#: the simulator layer's flight sets: the run that stores each, and whether
#: its stored sweeps are flown after its main tests
FLIGHT_SETS = {"f2_quickstart": (F2_QUICKSTART, True), "env_fence_c": (ENV_FENCE_C, False)}

#: minimize calls per timed pass: one call on these tables takes about 0.1-1 ms
MINIMIZE_CALLS = 50

#: seconds perfbench measures per run
PERFBENCH_SECONDS = 20

#: the end-to-end metrics of perfbench, each lower-is-better
END_TO_END = ("wall_s", "peak_rss_mb", "campaign_mb", "setup_s")

#: modules a cold start should load only when a command needs them
HEAVY = ("numpy", "multiprocessing")


def machine() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def flight_set(campaign, sweeps: bool = True) -> list:
    """A loaded campaign's main tests, then, with sweeps, each stored sweep's tests."""
    swept = [t for e in campaign.sweeps.values() for t in e.tests] if sweeps else []
    return campaign.tests + swept


def store_run(cli, root: Path, run: tuple = F2_QUICKSTART) -> None:
    """Store the campaign of the run arguments (the README quick start by
    default) in root with the given CLI module."""
    with contextlib.redirect_stdout(io.StringIO()):
        if cli.main([*run, "--out", str(root)]) != 0:
            raise SystemExit(f"the run {' '.join(run)} failed")


#: runs the CLI on the JSON list of arguments in argv[1], for fresh_start
CLI_MAIN = ("import json, sys\n"
            "from statefuzz import cli\n"
            "if cli.main(json.loads(sys.argv[1])) != 0:\n"
            "    raise SystemExit('the command failed')\n")


def store_with(checkouts: dict, work: Path, run: tuple) -> dict:
    """Store the campaign of the run arguments once per checkout (side ->
    checkout), each with its own CLI in a fresh interpreter, so that each
    side reads the layout it wrote; side -> campaign directory."""
    stored = {side: work / f"stored-{side}" for side in checkouts}
    for side, checkout in checkouts.items():
        fresh_start(checkout / "src", CLI_MAIN, json.dumps([*run, "--out", str(stored[side])]))
    return stored


def import_from(src: str, module: str):
    """Import a statefuzz module from the package under src, and only from there."""
    src_dir = Path(src).resolve()
    sys.path.insert(0, str(src_dir))
    mod = importlib.import_module(module)
    if not Path(mod.__file__).resolve().is_relative_to(src_dir):
        raise SystemExit(f"statefuzz was imported from {mod.__file__}, not {src_dir}")
    return mod


# ---------------------------------------------------------------------------
# clustering layer, in process
# ---------------------------------------------------------------------------


def synthetic_failures(n: int):
    """(spec, failures): the first n tests of a widened fspec1 campaign.

    Throttle and wind get three levels each, so environment columns take
    part in the encoding. Tests are ordered by repetition, so a small set
    still covers every combination. Each (state, action) family shares a
    reason; every fifth test takes one by its index instead.
    """
    from statefuzz.analysis import FAILURE_REASONS
    from statefuzz.fuzzspec import parse_fuzz_spec
    from statefuzz.oracle import Verdict
    from statefuzz.testgen import GeneratorConfig, generate

    package = Path(importlib.import_module("statefuzz").__file__).parent
    raw = json.loads((package / "data" / "fspec1.json").read_text())
    raw["ENVIRONMENT"].update(throttle=["low", "mid", "high"], wind=["none", "medium", "high"])
    spec = parse_fuzz_spec(raw, spec_id="bench")
    mission_id = spec.mission_contexts[0]
    combos = len(generate(spec, GeneratorConfig(repetitions_per_combination=1), mission_id))
    config = GeneratorConfig(repetitions_per_combination=math.ceil(n / combos), master_seed=0)
    tests = sorted(generate(spec, config, mission_id), key=lambda t: t.repetition)[:n]
    states = [t.state for t in spec.states]
    actions = [a.value for a in spec.actions]
    failures = []
    for i, test in enumerate(tests):
        family = states.index(test.app_state) + actions.index(test.action)
        reason = FAILURE_REASONS[(i if i % 5 == 0 else family) % len(FAILURE_REASONS)]
        failures.append((test, Verdict("FAILURE", reason)))
    return spec, failures


def cmd_clustering(args) -> dict:
    analysis = import_from(args.src, "statefuzz.analysis")
    sizes = {}
    for n in CLUSTER_SIZES:
        spec, failures = synthetic_failures(n)
        walls = []
        for _ in range(args.repeats):
            t0 = time.perf_counter()
            result = analysis.analyze_failures(failures, spec, seed=0)
            walls.append(time.perf_counter() - t0)
        doc = json.dumps(result.to_dict(), sort_keys=True).encode()
        sizes[str(n)] = {
            "median_s": statistics.median(walls),
            "runs_s": walls,
            "ms_per_failure": 1000 * statistics.median(walls) / n,
            "k": result.k,
            "digest": hashlib.sha256(doc).hexdigest(),
        }
        print(f"{n} failures: median {statistics.median(walls):.3f} s of "
              f"{' '.join(f'{w:.3f}' for w in walls)}, K={result.k}", flush=True)
    return {"src": str(Path(args.src).resolve()), "repeats": args.repeats, "failures": sizes}


# ---------------------------------------------------------------------------
# simulator layer, in process
# ---------------------------------------------------------------------------


@contextlib.contextmanager
def counting(sutmodel, executor):
    """Count _point_in_polygon calls, runs (Vehicle._coast asks
    _last_tick_before for each run's last tick once) and the flights'
    rng.random draws while the block runs; yields the Counter. Draws go to
    the flight's own generator, in order, so the flights fly as without it."""
    counts = Counter()
    ray_cast, last_tick, make_rng = (sutmodel._point_in_polygon, sutmodel._last_tick_before,
                                     executor.Random)

    def point_in_polygon(*args):
        counts["point_in_polygon"] += 1
        return ray_cast(*args)

    def last_tick_before(bound):
        counts["runs"] += 1
        return last_tick(bound)

    def counted_rng(seed):
        rng = make_rng(seed)
        draw = rng.random

        def random():
            counts["random"] += 1
            return draw()

        rng.random = random
        return rng

    sutmodel._point_in_polygon, executor.Random = point_in_polygon, counted_rng
    sutmodel._last_tick_before = last_tick_before
    try:
        yield counts
    finally:
        sutmodel._point_in_polygon, executor.Random = ray_cast, make_rng
        sutmodel._last_tick_before = last_tick


def per_flight(counts: Counter, flights: int) -> dict:
    return {f"{name}_per_flight": counts[name] / flights
            for name in ("runs", "point_in_polygon", "random")}


def cmd_simulator(args) -> dict:
    cli = import_from(args.src, "statefuzz.cli")
    from statefuzz import executor as executor_module, sutmodel
    from statefuzz.executor import Executor
    from statefuzz.storage import canonical_dumps, load_campaign

    out = {"src": str(Path(args.src).resolve()), "repeats": args.repeats}
    for name, (run, sweeps) in FLIGHT_SETS.items():
        with tempfile.TemporaryDirectory() as work:
            store_run(cli, Path(work), run)
            campaign = load_campaign(Path(work))
        tests = flight_set(campaign, sweeps)
        walls = []
        for _ in range(args.repeats):
            executor = Executor(campaign.mission, campaign.config)
            t0 = time.perf_counter()
            profiles = [executor.execute(t) for t in tests]
            walls.append(time.perf_counter() - t0)
        with counting(sutmodel, executor_module) as counts:
            executor = Executor(campaign.mission, campaign.config)
            counted = [executor.execute(t) for t in tests]
        if counted != profiles:
            raise SystemExit(f"{name}: the counted pass flew other profiles")
        wall = statistics.median(walls)
        sim_s = sum(p.flight_duration_ms for p in profiles) / 1000.0
        doc = "".join(canonical_dumps(p.to_dict()) for p in profiles).encode()
        out[name] = {
            "flights": len(tests),
            "median_s": wall,
            "runs_s": walls,
            "flights_per_s": len(tests) / wall,
            "sim_s": sim_s,
            "sim_s_per_host_s": sim_s / wall,
            **per_flight(counts, len(tests)),
            "memo_entries": len(executor.cruise_runs),
            "digest": hashlib.sha256(doc).hexdigest(),
        }
        print(f"{name}: {len(tests)} flights, median {wall:.3f} s of "
              f"{' '.join(f'{w:.3f}' for w in walls)}, {len(tests) / wall:.1f} flights/s, "
              f"{counts['runs'] / len(tests):.1f} runs, "
              f"{counts['point_in_polygon'] / len(tests):.1f} _point_in_polygon and "
              f"{counts['random'] / len(tests):.1f} rng.random calls per flight, "
              f"{len(executor.cruise_runs)} cruise_runs entries", flush=True)
    return out


def cmd_simulator_ab(args) -> dict:
    # each side flies the flight sets it stored, in the layout it reads
    sides = {"parent": Path(args.parent).resolve(), "change": Path(args.change).resolve()}
    out = {}
    for name, (run, sweeps) in FLIGHT_SETS.items():
        with tempfile.TemporaryDirectory() as work:
            stored = store_with(sides, Path(work), run)

            def one_pass(side: str, count: bool) -> dict:
                argv = [sys.executable, str(Path(__file__).resolve()), "simulator-pass",
                        "--src", str(sides[side] / "src"), "--campaign", str(stored[side])]
                argv += ["--count"] * count + ["--main-only"] * (not sweeps)
                result = subprocess.run(argv, capture_output=True, text=True, check=False)
                if result.returncode != 0:
                    raise SystemExit(f"{' '.join(argv)} exited {result.returncode}:\n"
                                     f"{result.stderr[-2000:]}")
                return json.loads(result.stdout.strip().splitlines()[-1])

            pairs = []
            for i in range(args.pairs):
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                runs = {side: one_pass(side, False) for side in order}
                pairs.append({"first": order[0], **runs})
                print(f"{name} pair {i}: " + ", ".join(
                    f"{side} {runs[side]['wall_s']:.3f} s" for side in order), flush=True)
            counts = {side: one_pass(side, True) for side in sides}
        walls = {side: [p[side]["wall_s"] for p in pairs] for side in sides}
        flights = {side: pairs[0][side]["flights"] for side in sides}
        section = out[name] = {
            "flights": flights,
            "pairs": pairs,
            "wall_s": {side: quartiles(values) for side, values in walls.items()},
            "flights_per_s": {side: flights[side] / statistics.median(v)
                              for side, v in walls.items()},
            "speedup": statistics.median(walls["parent"]) / statistics.median(walls["change"]),
            "change_wins": sum(c < p for p, c in zip(walls["parent"], walls["change"])),
            "digests": {side: sorted({p[side]["digest"] for p in pairs} | {counts[side]["digest"]})
                        for side in sides},
            "counts": {side: {k: counts[side][k] for k in
                              ("coast_calls", "coast_calls_per_flight", "runs_per_flight",
                               "memo_entries", "point_in_polygon_per_flight",
                               "random_per_flight")}
                       for side in sides},
        }
        print(f"{name}: flights/s parent {section['flights_per_s']['parent']:.1f}, change "
              f"{section['flights_per_s']['change']:.1f} ({section['speedup']:.2f}x), change won "
              f"{section['change_wins']}/{args.pairs}; per flight "
              + ", ".join(f"{s} {section['counts'][s]['coast_calls_per_flight']:.2f} _coast, "
                          f"{section['counts'][s]['runs_per_flight']:.2f} runs, "
                          f"{section['counts'][s]['memo_entries']} cruise_runs entries, "
                          f"{section['counts'][s]['point_in_polygon_per_flight']:.1f} "
                          f"_point_in_polygon, {section['counts'][s]['random_per_flight']:.1f} "
                          "rng.random" for s in sides), flush=True)
    return out


def cmd_simulator_pass(args) -> int:
    """One cold pass over a stored campaign's flights; prints one JSON line."""
    sutmodel = import_from(args.src, "statefuzz.sutmodel")
    from statefuzz import executor as executor_module
    from statefuzz.executor import Executor
    from statefuzz.storage import canonical_dumps, load_campaign

    campaign = load_campaign(Path(args.campaign))
    tests = flight_set(campaign, not args.main_only)
    coast_calls = 0
    with contextlib.ExitStack() as stack:
        if args.count:
            coast = sutmodel.Vehicle._coast

            def counted(*a, **k):
                nonlocal coast_calls
                coast_calls += 1
                return coast(*a, **k)

            stack.callback(setattr, sutmodel.Vehicle, "_coast", coast)
            sutmodel.Vehicle._coast = counted
            counts = stack.enter_context(counting(sutmodel, executor_module))
        executor = Executor(campaign.mission, campaign.config)
        t0 = time.perf_counter()
        profiles = [executor.execute(t) for t in tests]
        wall = time.perf_counter() - t0
    doc = "".join(canonical_dumps(p.to_dict()) for p in profiles).encode()
    print(json.dumps({
        "flights": len(tests),
        "wall_s": wall,
        "digest": hashlib.sha256(doc).hexdigest(),
        "coast_calls": coast_calls if args.count else None,
        "coast_calls_per_flight": coast_calls / len(tests) if args.count else None,
        **(per_flight(counts, len(tests)) if args.count else {}),
        "memo_entries": len(executor.cruise_runs),
    }))
    return 0


# ---------------------------------------------------------------------------
# storage layer, in process
# ---------------------------------------------------------------------------


def storage_repeat(stored: Path, root: Path) -> dict:
    """Copy stored's campaign.json and tests.json into root (new), then time
    there: load_campaign with no results, one save_result per result of
    stored in test order, load_campaign of the whole directory, save_tests
    of the loaded tests. Seconds of each step, counts, bytes and a digest."""
    from statefuzz.storage import canonical_dumps, load_campaign, save_result, save_tests

    campaign = load_campaign(stored)
    results = [(t, campaign.profiles[t.test_id])
               for t in campaign.every_test() if t.test_id in campaign.profiles]
    root.mkdir()
    for name in ("campaign.json", "tests.json"):
        (root / name).write_bytes((stored / name).read_bytes())
    t0 = time.perf_counter()
    load_campaign(root)
    read = time.perf_counter() - t0
    t0 = time.perf_counter()
    for test, profile in results:
        save_result(root, test, profile)
    save = time.perf_counter() - t0
    t0 = time.perf_counter()
    loaded = load_campaign(root)
    load = time.perf_counter() - t0
    t0 = time.perf_counter()
    save_tests(loaded)
    write = time.perf_counter() - t0
    doc = "".join(canonical_dumps([t, loaded.profiles[t].to_dict(), loaded.verdicts[t].verdict,
                                   loaded.verdicts[t].reason])
                  for t in sorted(loaded.profiles)).encode()
    return {
        "results": len(results),
        "tests": len(list(loaded.every_test())),
        "read_tests_s": read,
        "save_s": save,
        "load_s": load,
        "save_tests_s": write,
        "stored_bytes": sum(p.stat().st_size for p in root.iterdir()
                            if p.name not in ("campaign.json", "tests.json")),
        "tests_json_bytes": (root / "tests.json").stat().st_size,
        "digest": hashlib.sha256(doc).hexdigest(),
    }


#: storage_repeat's timed steps, each reported per 1,000 results or tests
STORAGE_STEPS = {"save_s": "results", "load_s": "results", "read_tests_s": "tests",
                 "save_tests_s": "tests"}


def per_1000(step: str, seconds: float, repeat: dict) -> float:
    return 1e6 * seconds / repeat[STORAGE_STEPS[step]]


def cmd_storage(args) -> dict:
    cli = import_from(args.src, "statefuzz.cli")
    with tempfile.TemporaryDirectory() as work:
        stored = Path(work) / "stored"
        store_run(cli, stored)
        repeats = [storage_repeat(stored, Path(work) / f"copy{i}") for i in range(args.repeats)]
    last = repeats[-1]
    runs = {step: [r[step] for r in repeats] for step in STORAGE_STEPS}
    median = {step: per_1000(step, statistics.median(v), last) for step, v in runs.items()}
    out = {
        "repeats": args.repeats,
        "results": last["results"],
        "tests": last["tests"],
        "save_ms_per_1000": median["save_s"],
        "load_ms_per_1000": median["load_s"],
        "read_tests_ms_per_1000": median["read_tests_s"],
        "save_tests_ms_per_1000": median["save_tests_s"],
        "save_runs_s": runs["save_s"],
        "load_runs_s": runs["load_s"],
        "read_tests_runs_s": runs["read_tests_s"],
        "save_tests_runs_s": runs["save_tests_s"],
        "stored_bytes": last["stored_bytes"],
        "tests_json_bytes": last["tests_json_bytes"],
        "digest": last["digest"],
    }
    print(f"{out['results']} results: save_result {out['save_ms_per_1000']:.1f} ms and "
          f"load_campaign {out['load_ms_per_1000']:.1f} ms per 1,000, "
          f"{out['stored_bytes']:,} bytes; {out['tests']} tests: read "
          f"{out['read_tests_ms_per_1000']:.1f} ms and save_tests "
          f"{out['save_tests_ms_per_1000']:.1f} ms per 1,000, tests.json "
          f"{out['tests_json_bytes']:,} bytes", flush=True)
    return out


def cmd_storage_ab(args) -> dict:
    # each side times the quick start it stored, in the layout it reads
    sides = {"parent": Path(args.parent).resolve(), "change": Path(args.change).resolve()}
    with tempfile.TemporaryDirectory() as work:
        stored = store_with(sides, Path(work), F2_QUICKSTART)
        pairs = []
        for i in range(args.pairs):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            runs = {}
            for side in order:
                argv = [sys.executable, str(Path(__file__).resolve()), "storage-pass",
                        "--src", str(sides[side] / "src"), "--campaign", str(stored[side]),
                        "--root", str(Path(work) / f"{side}{i}")]
                result = subprocess.run(argv, capture_output=True, text=True, check=False)
                if result.returncode != 0:
                    raise SystemExit(f"{' '.join(argv)} exited {result.returncode}:\n"
                                     f"{result.stderr[-2000:]}")
                runs[side] = json.loads(result.stdout.strip().splitlines()[-1])
            pairs.append({"first": order[0], **runs})
            print(f"pair {i}: " + ", ".join(
                f"{side} load {per_1000('load_s', runs[side]['load_s'], runs[side]):.1f} ms "
                f"per 1,000" for side in order), flush=True)
    out = {"pairs": pairs, "steps_ms_per_1000": {}}
    for step in STORAGE_STEPS:
        values = {side: [per_1000(step, p[side][step], p[side]) for p in pairs] for side in sides}
        out["steps_ms_per_1000"][step] = {
            **{side: quartiles(v) for side, v in values.items()},
            "change_wins": sum(c < p for p, c in zip(values["parent"], values["change"])),
        }
    for key in ("results", "tests", "stored_bytes", "tests_json_bytes", "digest"):
        out[key] = {side: sorted({p[side][key] for p in pairs}) for side in sides}
    for step, doc in out["steps_ms_per_1000"].items():
        print(f"{step} per 1,000: median parent {doc['parent']['median']:.1f} ms, change "
              f"{doc['change']['median']:.1f} ms, change won {doc['change_wins']}/{args.pairs}",
              flush=True)
    print(f"stored bytes: parent {out['stored_bytes']['parent']}, change "
          f"{out['stored_bytes']['change']}; digests equal: "
          f"{out['digest']['parent'] == out['digest']['change']}", flush=True)
    return out


def cmd_storage_pass(args) -> int:
    """One storage_repeat on a stored campaign; prints one JSON line."""
    import_from(args.src, "statefuzz.storage")
    print(json.dumps(storage_repeat(Path(args.campaign), Path(args.root))))
    return 0


# ---------------------------------------------------------------------------
# oracle layer, in process
# ---------------------------------------------------------------------------


def cmd_oracle(args) -> dict:
    cli = import_from(args.src, "statefuzz.cli")
    from statefuzz.oracle import classify, default_tree
    from statefuzz.storage import canonical_dumps, load_campaign

    with tempfile.TemporaryDirectory() as work:
        store_run(cli, Path(work))
        campaign = load_campaign(Path(work))
    stored = [(t, campaign.profiles[t.test_id])
              for t in campaign.every_test() if t.test_id in campaign.profiles]
    out = {"repeats": args.repeats, "profiles": len(stored), "versions": {}}
    for version in ("v0", "v1"):
        tree = default_tree(version)
        walls = []
        for _ in range(args.repeats):
            t0 = time.perf_counter()
            verdicts = [classify(t, p, tree) for t, p in stored]
            walls.append(time.perf_counter() - t0)
        doc = "".join(canonical_dumps([t.test_id, v.verdict, v.reason])
                      for (t, _p), v in zip(stored, verdicts)).encode()
        wall = statistics.median(walls)
        out["versions"][version] = {
            "median_s": wall,
            "runs_s": walls,
            "classifications_per_s": len(stored) / wall,
            "verdicts": dict(sorted(Counter(v.verdict for v in verdicts).items())),
            "digest": hashlib.sha256(doc).hexdigest(),
        }
        print(f"oracle {version}: {len(stored)} profiles, median {1000 * wall:.1f} ms, "
              f"{len(stored) / wall:,.0f} classifications/s, "
              f"{out['versions'][version]['verdicts']}", flush=True)
    return out


# ---------------------------------------------------------------------------
# minimization layer, in process
# ---------------------------------------------------------------------------


def cmd_minimize(args) -> dict:
    cli = import_from(args.src, "statefuzz.cli")
    from statefuzz.cutset import minimize, table_from_results
    from statefuzz.errors import InvalidOnly
    from statefuzz.storage import load_campaign
    from statefuzz.testgen import AXES

    out = {"repeats": args.repeats, "campaigns": {}}
    everything = hashlib.sha256()
    with tempfile.TemporaryDirectory() as work:
        for name, argv in MINIMIZE_RUNS.items():
            root = Path(work) / name
            with contextlib.redirect_stdout(io.StringIO()):
                if cli.main([*argv, "--out", str(root)]) != 0:
                    raise SystemExit(f"the {name} run failed")
            campaign = load_campaign(root)
            tables = {}
            for tag, sweep in sorted(campaign.sweeps.items()):
                axes = [a for a in AXES if a in sweep.recipe["axes"]]
                items = [(t, campaign.profiles[t.test_id], campaign.verdicts[t.test_id])
                         for t in sweep.tests]
                try:
                    table = table_from_results(axes, items)
                except InvalidOnly:
                    continue
                walls = []
                for _ in range(args.repeats):
                    t0 = time.perf_counter()
                    for _ in range(MINIMIZE_CALLS):
                        cut_sets = minimize(table)
                    walls.append((time.perf_counter() - t0) / MINIMIZE_CALLS)
                doc = json.dumps(cut_sets).encode()
                everything.update(tag.encode() + b"\0" + doc + b"\0")
                tables[tag] = {
                    "rows": len(table.rows),
                    "axes": len(table.axes),
                    "median_ms": 1000 * statistics.median(walls),
                    "runs_s": walls,
                    "cut_sets": len(cut_sets),
                    "digest": hashlib.sha256(doc).hexdigest(),
                }
                print(f"{name} {tag}: {len(table.rows)} rows, {len(table.axes)} axes, "
                      f"median {1000 * statistics.median(walls):.2f} ms, "
                      f"{len(cut_sets)} cut sets", flush=True)
            out["campaigns"][name] = tables
    out["digest"] = everything.hexdigest()
    print(f"cut-set digest {out['digest']}", flush=True)
    return out


# ---------------------------------------------------------------------------
# cold starts, in fresh interpreters
# ---------------------------------------------------------------------------

#: prints which statefuzz was imported and which heavy modules were loaded
_LOADED = ("import json, sys, statefuzz\n"
           "print(json.dumps({'file': statefuzz.__file__, "
           "'loaded': [m for m in %r if m in sys.modules]}))\n" % (HEAVY,))


def fresh_start(src: Path, code: str, *argv: str, importtime: bool = False) -> dict:
    """One fresh interpreter with PYTHONPATH=src running code: its wall time,
    the heavy modules it loaded and, under -X importtime, its import time."""
    command = [sys.executable, *(["-X", "importtime"] if importtime else []), "-c",
               code + _LOADED, *argv]
    env = {**os.environ, "PYTHONPATH": str(src)}
    t0 = time.perf_counter()
    result = subprocess.run(command, env=env, capture_output=True, text=True, check=False)
    wall = time.perf_counter() - t0
    if result.returncode != 0:
        raise SystemExit(f"{' '.join(command)} exited {result.returncode}:\n"
                         f"{result.stderr[-2000:]}")
    doc = json.loads(result.stdout.strip().splitlines()[-1])
    if not Path(doc["file"]).resolve().is_relative_to(src):
        raise SystemExit(f"statefuzz was imported from {doc['file']}, not {src}")
    out = {"wall_s": wall, "loaded": doc["loaded"]}
    if importtime:
        # top-level lines of -X importtime: "import time: self | cumulative | name"
        rows = [line.split("|") for line in result.stderr.splitlines()
                if line.startswith("import time:") and "|" in line]
        out["import_s"] = sum(int(r[1]) for r in rows[1:] if not r[2].startswith("  ")) / 1e6
    return out


def cmd_startup(args) -> dict:
    sides = {"parent": Path(args.parent).resolve(), "change": Path(args.change).resolve()}
    pairs = []
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        runs = {side: fresh_start(sides[side] / "src", "import statefuzz.cli\n")
                for side in order}
        pairs.append({"first": order[0], **runs})
        print(f"pair {i}: " + ", ".join(
            f"{side} {runs[side]['wall_s']:.3f} s {runs[side]['loaded']}" for side in order),
            flush=True)
    walls = {side: [p[side]["wall_s"] for p in pairs] for side in sides}
    out = {
        "pairs": pairs,
        "import_cli_s": {side: quartiles(values) for side, values in walls.items()},
        "change_wins": sum(c < p for p, c in zip(walls["parent"], walls["change"])),
        "loaded": {side: sorted({m for p in pairs for m in p[side]["loaded"]}) for side in sides},
        "commands": {},
    }
    with tempfile.TemporaryDirectory() as work:
        stored = store_with(sides, Path(work), SMALL_RUN)
        commands = {
            "run": [*SMALL_RUN, "--out"],
            "analyze": ["analyze", "--campaign"],
            "focus": ["focus", "--test-id", "t00003", "--runs-per-cell", "1", "--no-soundness",
                      "--campaign"],
            "report": ["report", "--campaign"],
            "replay": ["replay", "--test-id", "t00003", "--campaign"],
        }
        for name, argv in commands.items():
            out["commands"][name] = {}
            for side, checkout in sides.items():
                campaign = Path(work) / f"{name}-{side}"
                if name != "run":
                    shutil.copytree(stored[side], campaign)
                start = fresh_start(checkout / "src", CLI_MAIN, json.dumps([*argv, str(campaign)]),
                                    importtime=True)
                out["commands"][name][side] = start
            print(f"{name}: " + ", ".join(
                f"{side} {r['wall_s']:.3f} s, imports {r['import_s']:.3f} s {r['loaded']}"
                for side, r in out["commands"][name].items()), flush=True)
    median = {side: out["import_cli_s"][side]["median"] for side in sides}
    print(f"import statefuzz.cli: median parent {median['parent']:.3f} s, change "
          f"{median['change']:.3f} s, change won {out['change_wins']}/{args.pairs}", flush=True)
    return out


# ---------------------------------------------------------------------------
# same facts, two checkouts
# ---------------------------------------------------------------------------


def stored_json(path: Path):
    """The JSON document at path, or None when the campaign holds no such file."""
    return json.loads(path.read_text(encoding="utf-8")) if path.exists() else None


def campaign_facts(root: Path, read: dict) -> dict:
    """Fact name -> value for the campaign stored in root, in the order
    samefacts compares them; read is what the storing side's own
    load_campaign gave back (samefacts-read)."""
    facts = {f"verdict of {test_id}": v for test_id, v in read["verdicts"].items()}
    facts["verdict counts"] = stored_json(root / "campaign.json")["verdict_counts"]
    analysis = stored_json(root / "analysis.json") or {}
    facts["K"] = analysis.get("k")
    facts["representatives"] = analysis.get("representatives")
    for path in sorted(root.glob("truthtables/*.json")):
        facts[f"rows of truth table {path.stem}"] = stored_json(path)["rows"]
    combined = stored_json(root / "faulttrees" / "combined.json") or {"cut_sets": []}
    facts["combined cut sets"] = [cs["literals"] for cs in combined["cut_sets"]]
    for check in stored_json(root / "soundness.json") or []:
        literals = " AND ".join(f"{l['column']}={l['value']}" for l in check["cut_set"]["literals"])
        facts[f"soundness of {{ {literals} }}"] = [check["sound"], check["verdicts"]]
    return facts


def compare_files(stored: dict) -> tuple[list[str], list[str]]:
    """(byte-equal, differing) relative paths of the files of two stored
    campaigns; campaign.json is compared without CLOCK_FIELDS, and named
    with the fields that differ."""
    files = {side: {p.relative_to(root).as_posix() for p in root.rglob("*") if p.is_file()}
             for side, root in stored.items()}
    equal, differ = [], []
    for name in sorted(files["parent"] | files["change"]):
        paths = [root / name for root in stored.values()]
        if not all(p.exists() for p in paths):
            differ.append(f"{name} (one side only)")
        elif name == "campaign.json":
            meta = [{k: v for k, v in stored_json(p).items() if k not in CLOCK_FIELDS}
                    for p in paths]
            keys = sorted(k for k in meta[0].keys() | meta[1].keys()
                          if meta[0].get(k) != meta[1].get(k))
            if keys:
                differ.append(f"{name} ({', '.join(keys)})")
            else:
                equal.append(name)
        elif paths[0].read_bytes() == paths[1].read_bytes():
            equal.append(name)
        else:
            differ.append(name)
    return equal, differ


def logged_lines(root: Path) -> dict:
    """Test id -> line of a campaign's results log; the last line of an id wins."""
    lines = {}
    for line in (root / "results.jsonl").read_text(encoding="utf-8").splitlines():
        row = json.loads(line)
        lines[row[0] if isinstance(row, list) else row["test_id"]] = line
    return lines


def without_done_time(profile: dict) -> dict:
    """profile with its DONE time, flight_duration_ms and the time of the
    trace's last point when it stores the trace, taken out."""
    masked = {**profile, "flight_duration_ms": None}
    if masked.get("trace"):
        masked["trace"] = [*masked["trace"][:-1], [None, *masked["trace"][-1][1:]]]
    return masked


def compare_rows(stored: dict, reads: dict) -> list[str]:
    """Report lines on the results logs and the profiles of two campaigns."""
    lines = {side: logged_lines(root) for side, root in stored.items()}
    ids = [i for i in lines["parent"] if i in lines["change"]]
    moved = [i for i in ids if lines["parent"][i] != lines["change"][i]]
    profiles = [reads[side]["profiles"] for side in stored]
    done_only = sum(without_done_time(profiles[0][i]) == without_done_time(profiles[1][i])
                    for i in moved)
    fields = [reads[side]["fields"] for side in stored]
    shared = [f for f in fields[0] if f in fields[1]]
    differ = {f: sum(profiles[0][i][f] != profiles[1][i][f] for i in ids) for f in shared}
    report = [f"results.jsonl: {len(ids):,} rows on both sides, "
              f"{len(lines['parent']) - len(ids)} on the parent's only and "
              f"{len(lines['change']) - len(ids)} on the change's only; {len(moved):,} lines "
              f"differ, {done_only:,} of them only in the DONE time",
              f"profile fields: {len(shared)} on both sides; "
              + (", ".join(f"{f} differs in {n:,} rows" for f, n in differ.items() if n)
                 or "each equal in every row")]
    for side, mine, theirs in (("parent", *fields), ("change", *reversed(fields))):
        only = [f for f in mine if f not in theirs]
        if only:
            report.append(f"  on the {side}'s side only: {', '.join(only)}")
    return report


def perfbench_runner():
    """perfbench/run.py's WORKLOADS and Runner, loaded from this checkout."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        spec = importlib.util.spec_from_file_location("perfbench_run", ROOT / "perfbench" / "run.py")
        module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    return module.WORKLOADS, module.Runner


def read_back(checkout: Path, root: Path) -> dict:
    """samefacts-read of the campaign in root, by the checkout's own code in
    a fresh interpreter."""
    argv = [sys.executable, str(Path(__file__).resolve()), "samefacts-read",
            "--src", str(checkout / "src"), "--campaign", str(root)]
    result = subprocess.run(argv, capture_output=True, text=True, check=False)
    if result.returncode != 0:
        raise SystemExit(f"{' '.join(argv)} exited {result.returncode}:\n"
                         f"{result.stderr[-2000:]}")
    return json.loads(result.stdout.strip().splitlines()[-1])


def cmd_samefacts(args) -> int:
    sides = {"parent": Path(args.parent).resolve(), "change": Path(args.change).resolve()}
    workloads, runner = perfbench_runner()
    for name, workload in workloads.items():
        for seed in SAMEFACTS_SEEDS:
            with tempfile.TemporaryDirectory() as work:
                stored = store_with(sides, Path(work),
                                    ("run", *workload.run_args, "--seed", str(seed)))
                if workload.reanalyze:
                    for side, checkout in sides.items():
                        for command in runner(workload, seed, Path(work)).commands(stored[side]):
                            fresh_start(checkout / "src", CLI_MAIN, json.dumps(command))
                reads = {side: read_back(checkout, stored[side]) for side, checkout in sides.items()}
                equal, differ = compare_files(stored)
                size = {side: sum(p.stat().st_size for p in root.rglob("*") if p.is_file())
                        for side, root in stored.items()}
                print(f"{name} seed {seed}")
                print(f"  files: {len(equal)} byte-equal; differ: {', '.join(differ) or 'none'}; "
                      f"bytes parent {size['parent']:,}, change {size['change']:,}")
                for line in compare_rows(stored, reads):
                    print(f"  {line}")
                facts = {side: campaign_facts(stored[side], reads[side]) for side in sides}
                for fact in dict.fromkeys([*facts["parent"], *facts["change"]]):
                    found = {side: facts[side].get(fact) for side in sides}
                    if found["parent"] != found["change"]:
                        print(f"  facts: DIFFER at {fact}: parent {found['parent']}, "
                              f"change {found['change']}", flush=True)
                        return 1
                kept = facts["parent"]
                print(f"  facts: equal: {len(reads['parent']['verdicts']):,} verdicts, "
                      f"verdict counts, K={kept['K']}, {len(kept['representatives'] or [])} "
                      f"representatives, {sum(f.startswith('rows of') for f in kept)} truth "
                      f"tables, {len(kept['combined cut sets'])} combined cut sets, "
                      f"{sum(f.startswith('soundness of') for f in kept)} soundness checks",
                      flush=True)
    print(f"same facts on {', '.join(workloads)} at seeds "
          f"{', '.join(map(str, SAMEFACTS_SEEDS))}")
    return 0


def cmd_samefacts_read(args) -> int:
    """What a checkout's own load_campaign reads back from a campaign it
    stored: its profile fields, and each stored profile and verdict in test
    order; prints one JSON line."""
    storage = import_from(args.src, "statefuzz.storage")
    from statefuzz.executor import PROFILE_FIELDS

    campaign = storage.load_campaign(Path(args.campaign))
    order = [i for i in dict.fromkeys(t.test_id for t in campaign.every_test())
             if i in campaign.profiles]
    print(json.dumps({
        "fields": list(PROFILE_FIELDS),
        "profiles": {i: campaign.profiles[i].to_dict() for i in order},
        "verdicts": {i: [campaign.verdicts[i].verdict, campaign.verdicts[i].reason]
                     for i in order},
    }))
    return 0


# ---------------------------------------------------------------------------
# end to end, through perfbench
# ---------------------------------------------------------------------------


def perfbench(checkout: Path, workload: str, seed: int, trace: int) -> dict:
    """One perfbench run in its checkout: its JSON line plus the digests."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(PERFBENCH_SECONDS), "--trace", str(trace)]
    result = subprocess.run(argv, cwd=checkout, capture_output=True, text=True, check=False)
    if result.returncode != 0:
        raise SystemExit(f"{' '.join(argv)} in {checkout} exited {result.returncode}:\n"
                         f"{result.stdout[-2000:]}{result.stderr[-2000:]}")
    doc = json.loads(result.stdout.strip().splitlines()[-1])
    return {
        "attempted": doc["attempted"],
        "failed": doc["failed"],
        "metrics": {name: m["value"] for name, m in doc["metrics"].items()},
        "digests": sorted(set(re.findall(r"digest ([0-9a-f]{64})", result.stdout))),
    }


def cmd_pairs(args) -> dict:
    sides = {"parent": Path(args.parent).resolve(), "change": Path(args.change).resolve()}
    pairs = []
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        runs = {side: perfbench(sides[side], args.workload, args.seed, 0) for side in order}
        pairs.append({"first": order[0], **runs})
        print(f"pair {i}: " + ", ".join(
            f"{side} wall {runs[side]['metrics']['wall_s']:.3f} s setup "
            f"{runs[side]['metrics']['setup_s']:.3f} s" for side in order), flush=True)
    metrics = {}
    for name in END_TO_END:
        values = {side: [p[side]["metrics"][name] for p in pairs] for side in sides}
        metrics[name] = {
            **{side: quartiles(v) for side, v in values.items()},
            "change_wins": sum(c < p for p, c in zip(values["parent"], values["change"])),
        }
        print(f"{name}: median parent {metrics[name]['parent']['median']:.3f}, change "
              f"{metrics[name]['change']['median']:.3f}, change won "
              f"{metrics[name]['change_wins']}/{args.pairs}", flush=True)
    return {
        "seed": args.seed,
        "pairs": pairs,
        "metrics": metrics,
        "ops_failed": {
            side: f"{sum(p[side]['failed'] for p in pairs)}/{sum(p[side]['attempted'] for p in pairs)}"
            for side in sides
        },
    }


def cmd_traced(args) -> dict:
    out = {}
    for side, checkout in (("parent", args.parent), ("change", args.change)):
        out[side] = perfbench(Path(checkout).resolve(), args.workload, args.seed, 1)
        layers = out[side]["metrics"]
        print(f"{side}: sutmodel.advance_s {layers['sutmodel.advance_s']:.3f} s, "
              f"analysis.analyze_failures_s {layers['analysis.analyze_failures_s']:.3f} s, "
              f"trace.wall_s {layers['trace.wall_s']:.3f} s", flush=True)
    return {"seed": args.seed, **out}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in (("clustering", "time analyze_failures in process"),
                           ("simulator", "time the quick start's and env_fence_c's flights"),
                           ("storage", "time save_result, save_tests and load_campaign in process"),
                           ("oracle", "time classify over the quick start's profiles"),
                           ("minimize", "time cutset.minimize per stored truth table")):
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--src", default=str(ROOT / "src"))
        p.add_argument("--repeats", type=int, default=3)
        p.add_argument("--key", required=True, help="section name, e.g. before or after")
    for name in ("simulator", "storage"):
        p = sub.choices[name]
        p.add_argument("--parent", help="checkout: alternate cold passes with --change")
        p.add_argument("--change", help="checkout: alternate cold passes with --parent")
        p.add_argument("--pairs", type=int, default=10)
    for name, helptext in (("pairs", "alternating perfbench runs of two checkouts"),
                           ("traced", "one traced perfbench run per checkout"),
                           ("startup", "cold starts of two checkouts")):
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--parent", required=True)
        p.add_argument("--change", required=True)
        if name != "startup":
            p.add_argument("--workload", required=True)
            p.add_argument("--seed", type=int, default=0)
        if name != "traced":
            p.add_argument("--pairs", type=int, default=10)
    for p in sub.choices.values():
        p.add_argument("--out", required=True, help="BENCH json file to update")
    one_pass = sub.add_parser("simulator-pass", help="one cold simulator pass (internal)")
    one_pass.add_argument("--src", required=True)
    one_pass.add_argument("--campaign", required=True)
    one_pass.add_argument("--count", action="store_true")
    one_pass.add_argument("--main-only", action="store_true", help="fly no stored sweep")
    storage_pass = sub.add_parser("storage-pass", help="one storage pass (internal)")
    storage_pass.add_argument("--src", required=True)
    storage_pass.add_argument("--campaign", required=True)
    storage_pass.add_argument("--root", required=True, help="new directory to store into")
    same = sub.add_parser("samefacts", help="do two checkouts store the same facts?")
    same.add_argument("--parent", required=True, help="checkout")
    same.add_argument("--change", required=True, help="checkout")
    same_read = sub.add_parser("samefacts-read", help="a stored campaign read back (internal)")
    same_read.add_argument("--src", required=True)
    same_read.add_argument("--campaign", required=True)
    args = parser.parse_args(argv)
    if args.command == "simulator-pass":
        return cmd_simulator_pass(args)
    if args.command == "storage-pass":
        return cmd_storage_pass(args)
    if args.command == "samefacts":
        return cmd_samefacts(args)
    if args.command == "samefacts-read":
        return cmd_samefacts_read(args)
    in_process = args.command in ("clustering", "simulator", "storage", "oracle", "minimize")
    if in_process and args.repeats < 3:
        parser.error("--repeats must be at least 3")
    ab = args.command in ("simulator", "storage") and (args.parent or args.change)
    if ab and not (args.parent and args.change):
        parser.error("--parent and --change go together")
    if getattr(args, "pairs", 2) < 2:
        parser.error("--pairs must be at least 2")

    run = {"clustering": cmd_clustering, "simulator": cmd_simulator_ab if ab else cmd_simulator,
           "storage": cmd_storage_ab if ab else cmd_storage, "oracle": cmd_oracle,
           "minimize": cmd_minimize,
           "startup": cmd_startup,
           "pairs": cmd_pairs, "traced": cmd_traced}[args.command]
    section = run(args)
    path = Path(args.out)
    doc = json.loads(path.read_text()) if path.exists() else {}
    doc["machine"] = machine()
    if in_process:
        key = args.key
    elif args.command == "startup":
        key = "parent vs change"
    else:
        key = f"{args.workload} seed {args.seed}"
    doc.setdefault(args.command, {})[key] = section
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
