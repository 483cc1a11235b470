"""Layer bench for statefuzz: times two checkouts against each other and
writes a BENCH_<n>.json one section at a time.

Usage, from the root of a checkout:

    python3 bench/bench.py LAYER --parent DIR --change DIR --out FILE [--pairs 10]
    python3 bench/bench.py pairs --parent DIR --change DIR --out FILE \\
        --workload NAME [--pairs 10] [--seed 0]
    python3 bench/bench.py traced --parent DIR --change DIR --out FILE \\
        --workload NAME [--seed 0]
    python3 bench/bench.py samefacts --parent DIR --change DIR

LAYER is ``clustering``, ``simulator``, ``storage``, ``oracle``, ``minimize``
or ``startup``. A checkout of a revision of this repository is made without
a download, for example ``git archive REV | tar -x -C DIR``.

Host drift over minutes exceeds what one change moves, so no command times
one checkout alone. Each runs ``--pairs`` pairs of passes, one per
checkout, the parent first on even pairs and the change first on odd ones.
A pass is a fresh interpreter with the checkout's ``src`` on PYTHONPATH, so
each side runs its own code and every memo starts empty; it prints one JSON
line. For each metric, all lower-is-better, the section records each
side's median and quartiles and the pairs the change won (a tie counts for
neither), and each side's distinct output digests: equal digests show that
both sides computed the same facts. A layer that works on a stored
campaign has each side's own CLI store it first, in a fresh interpreter, so
the two sides may store different layouts. Those campaigns are workloads
of ``perfbench/run.py``'s ``WORKLOADS`` at seed 0, run with its arguments.

The layers, each one pass function below:

``clustering``
    ``analysis.analyze_failures`` on synthetic failure sets of 100, 1,000
    and 3,600 failures (``synthetic_failures``), with a digest of each
    result.
``simulator``
    Flies two flight sets: ``f2_quickstart``'s main tests and each of its
    stored sweeps once, calm flights with no fence, and ``env_fence_c``'s
    main tests, which cross a live geofence under wind and draw GPS jitter.
    It records the wall time and a digest of the execution profiles. One
    more pass per side, with ``Vehicle._coast``, ``_last_tick_before`` (asked
    once per run) and ``_point_in_polygon`` wrapped and each flight's
    ``rng.random`` counted, gives the calls per flight and the entries of
    the executor's ``cruise_runs`` memo; it must fly the same profiles.
``storage``
    Copies the stored quick start's ``campaign.json`` and ``tests.json``
    into a new directory and times four steps there, each per 1,000 results
    or tests: ``load_campaign`` with no results yet (it only reads the
    tests), one ``save_result`` per stored result in test order,
    ``load_campaign`` of the whole directory and ``save_tests``. It records
    the stored bytes and a digest of each loaded profile and verdict.
``oracle``
    Judges every stored profile of the quick start under oracle ``v0`` and
    ``v1``, with the verdict counts and a digest of the verdicts.
``minimize``
    ``cutset.minimize`` on the truth table of each stored sweep of
    ``f2_quickstart`` and ``env_fence_c``, built by
    ``cutset.table_from_results``; the metric is the time one call on every
    table takes, over ``MINIMIZE_CALLS`` calls per table. It records each
    table's rows, axes and cut sets, and a digest of every cut set.
``startup``
    Cold interpreters that only ``import statefuzz.cli``, and the heavy
    modules (numpy, multiprocessing) each loaded; then, once per side, one
    start per subcommand under ``-X importtime`` on a small campaign the
    side's own CLI stored (``run`` stores its own): its wall time, its
    import time and the heavy modules it loaded.

``pairs`` alternates ``perfbench/run.py --trace 0`` runs of the two
checkouts the same way, over the end-to-end metrics, and records every
run's metrics, artifact digests and failed repeats. ``traced`` runs
``perfbench/run.py --trace 1`` once per side and records the per-layer
metrics.

``samefacts`` checks that two checkouts store the same facts. For each
workload of ``WORKLOADS`` at each of ``SAMEFACTS_SEEDS`` (0 and 11), each
side's CLI stores the workload's campaign (for ``reanalyze`` it also runs
the commands perfbench times on it, ``analyze --oracle v0`` and
``report``), and each side's ``load_campaign`` reads it back. It prints
which files are byte-equal (``campaign.json`` without its clock fields,
naming the fields that differ), how many ``results.jsonl`` lines differ
and how many of them only in the DONE time (``flight_duration_ms`` and a
stored trace's last time), how many rows differ in each profile field both
sides have, and the fields only one side has. Then it compares the facts:
each stored test's verdict and reason, the recorded verdict counts, K, the
representatives, every truth table's rows, the combined cut sets and each
soundness verdict. It exits 1 at the first fact that differs, naming it,
and 0 when all are equal. It writes no ``--out``.

Every other command merges its section into ``--out``, under the command
and ``parent vs change`` (for ``pairs`` and ``traced``, the workload and
seed), and records the machine: nproc and the Python and numpy versions.
It is not part of the test suite; ``tests/test_bench.py`` checks its
alternation and its options.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import importlib.util
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

HERE = Path(__file__).resolve()
ROOT = HERE.parent.parent

#: the two checkouts every command compares, in the order of even pairs
SIDES = ("parent", "change")

#: failure-set sizes of the clustering layer
CLUSTER_SIZES = (100, 1000, 3600)

#: perfbench workloads the simulator and minimize layers store at seed 0 ->
#: whether the simulator flies their stored sweeps after their main tests
FLOWN = {"f2_quickstart": True, "env_fence_c": False}

#: a small campaign for the subcommand starts: 45 main tests, one run per cell
SMALL_RUN = ("run", "--spec", "fspec1", "--mission", "mission_a", "--fault", "F2",
             "--latency-window", "200", "600", "--repetitions", "1", "--runs-per-cell", "1",
             "--no-soundness", "--seed", "0")

#: the seeds at which samefacts stores each of perfbench's workloads
SAMEFACTS_SEEDS = (0, 11)

#: campaign.json's fields that record when and how long a run took
CLOCK_FIELDS = ("created_at", "wall_time_s")

#: minimize calls per table and pass: one call on these tables takes about 0.1-1 ms
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


def alternate(pairs: int, run, metrics) -> dict:
    """pairs pairs of run(side), one per side, the parent first on even
    pairs: every run, and for each named metric of a run (lower is better)
    each side's median and quartiles and the pairs the change won, a tie
    counting for neither; with digests in the runs, each side's digests."""
    runs = []
    for i in range(pairs):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        runs.append({"first": order[0], **{side: run(side) for side in order}})
        print(f"pair {i}: " + "; ".join(
            f"{side} " + ", ".join(f"{m} {runs[-1][side][m]:.4g}" for m in metrics)
            for side in order), flush=True)
    out = {"pairs": runs, "metrics": {}}
    for name in metrics:
        values = {side: [r[side][name] for r in runs] for side in SIDES}
        doc = out["metrics"][name] = {
            **{side: quartiles(v) for side, v in values.items()},
            "change_wins": sum(c < p for p, c in zip(values["parent"], values["change"])),
        }
        print(f"{name}: median parent {doc['parent']['median']:.4g}, change "
              f"{doc['change']['median']:.4g}, change won {doc['change_wins']}/{pairs}", flush=True)
    if "digest" in runs[0]["parent"]:
        out["digests"] = {side: sorted({r[side]["digest"] for r in runs}) for side in SIDES}
        print(f"digests equal: {out['digests']['parent'] == out['digests']['change']}", flush=True)
    return out


def sha256(docs) -> str:
    """Digest of the canonical JSON of each of docs, in order."""
    from statefuzz.storage import canonical_dumps

    return hashlib.sha256("".join(map(canonical_dumps, docs)).encode()).hexdigest()


def clocked(step) -> tuple:
    """(step(), the seconds it took)."""
    t0 = time.perf_counter()
    value = step()
    return value, time.perf_counter() - t0


# ---------------------------------------------------------------------------
# fresh interpreters
# ---------------------------------------------------------------------------

#: prints, last, which statefuzz was imported, the heavy modules loaded and
#: a pass's result
_LOADED = ("import json, sys, statefuzz\n"
           "print(json.dumps({'file': statefuzz.__file__, 'result': globals().get('result'), "
           "'loaded': [m for m in %r if m in sys.modules]}))\n" % (HEAVY,))

#: runs the CLI on the JSON list of arguments in argv[1]
CLI_MAIN = ("import json, sys\n"
            "from statefuzz import cli\n"
            "if cli.main(json.loads(sys.argv[1])) != 0:\n"
            "    raise SystemExit('the command failed')\n")

#: the one entry point of every pass: the function of this file named in
#: argv[1], on the keyword arguments in the JSON of argv[2]
PASS = ("import json, sys\n"
        f"sys.path.insert(0, {str(HERE.parent)!r})\n"
        "import bench\n"
        "result = getattr(bench, sys.argv[1])(**json.loads(sys.argv[2]))\n")


def fresh_start(src: Path, code: str, *argv: str, importtime: bool = False) -> dict:
    """One fresh interpreter with PYTHONPATH=src running code: its wall time,
    the heavy modules it loaded, a pass's result and, under -X importtime,
    its import time."""
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
    if doc["result"] is not None:
        out["result"] = doc["result"]
    if importtime:
        # top-level lines of -X importtime: "import time: self | cumulative | name"
        rows = [line.split("|") for line in result.stderr.splitlines()
                if line.startswith("import time:") and "|" in line]
        out["import_s"] = sum(int(r[1]) for r in rows[1:] if not r[2].startswith("  ")) / 1e6
    return out


def run_pass(checkout: Path, function, **kwargs) -> dict:
    """The result of the pass function on kwargs, in a fresh interpreter
    on the checkout's src."""
    return fresh_start(checkout / "src", PASS, function.__name__, json.dumps(kwargs))["result"]


def store_with(checkouts: dict, work: Path, run: tuple) -> dict:
    """Store the campaign of the run arguments once per checkout (side ->
    checkout), each with its own CLI in a fresh interpreter, so that each
    side reads the layout it wrote; side -> campaign directory."""
    stored = {side: work / f"stored-{side}" for side in checkouts}
    for side, checkout in checkouts.items():
        fresh_start(checkout / "src", CLI_MAIN, json.dumps([*run, "--out", str(stored[side])]))
    return stored


@functools.cache
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


def workload_run(name: str, seed: int = 0) -> tuple:
    """The `statefuzz run` arguments of perfbench's workload at seed."""
    workloads, _runner = perfbench_runner()
    return ("run", *workloads[name].run_args, "--seed", str(seed))


# ---------------------------------------------------------------------------
# passes: each runs in a fresh interpreter and returns one JSON document
# ---------------------------------------------------------------------------


def synthetic_failures(n: int):
    """(spec, failures): the first n tests of a widened fspec1 campaign.

    Throttle and wind get three levels each, so environment columns take
    part in the encoding. Tests are ordered by repetition, so a small set
    still covers every combination. Each (state, action) family shares a
    reason; every fifth test takes one by its index instead.
    """
    import statefuzz
    from statefuzz.analysis import FAILURE_REASONS
    from statefuzz.fuzzspec import parse_fuzz_spec
    from statefuzz.oracle import Verdict
    from statefuzz.testgen import GeneratorConfig, generate

    raw = json.loads((Path(statefuzz.__file__).parent / "data" / "fspec1.json").read_text())
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


def pass_clustering() -> dict:
    from statefuzz.analysis import analyze_failures

    out, results = {}, []
    for n in CLUSTER_SIZES:
        spec, failures = synthetic_failures(n)
        result, out[f"{n}_failures_s"] = clocked(lambda: analyze_failures(failures, spec, seed=0))
        out[f"{n}_failures_k"] = result.k
        results.append(result.to_dict())
    return {**out, "digest": sha256(results)}


def flight_set(campaign, sweeps: bool) -> list:
    """A loaded campaign's main tests, then, with sweeps, each stored sweep's tests."""
    swept = [t for e in campaign.sweeps.values() for t in e.tests] if sweeps else []
    return campaign.tests + swept


#: what counting counts, each reported per flight
COUNTED = ("coast", "runs", "point_in_polygon", "random")


@contextlib.contextmanager
def counting():
    """Count Vehicle._coast calls, runs (Vehicle._coast asks
    _last_tick_before for each run's last tick once), _point_in_polygon
    calls and the flights' rng.random draws while the block runs; yields
    the Counter. Draws go to the flight's own generator, in order, so the
    flights fly as without it."""
    from statefuzz import executor, sutmodel

    counts = Counter()

    def counted(name, function):
        def call(*args, **kwargs):
            counts[name] += 1
            return function(*args, **kwargs)
        return call

    def counted_rng(seed):
        rng = make_rng(seed)
        rng.random = counted("random", rng.random)
        return rng

    coast, ray_cast, last_tick, make_rng = (sutmodel.Vehicle._coast, sutmodel._point_in_polygon,
                                            sutmodel._last_tick_before, executor.Random)
    sutmodel.Vehicle._coast = counted("coast", coast)
    sutmodel._point_in_polygon = counted("point_in_polygon", ray_cast)
    sutmodel._last_tick_before = counted("runs", last_tick)
    executor.Random = counted_rng
    try:
        yield counts
    finally:
        sutmodel.Vehicle._coast, sutmodel._point_in_polygon = coast, ray_cast
        sutmodel._last_tick_before, executor.Random = last_tick, make_rng


def pass_simulator(campaign: str, sweeps: bool, count: bool = False) -> dict:
    from statefuzz.executor import Executor
    from statefuzz.storage import load_campaign

    loaded = load_campaign(Path(campaign))
    tests = flight_set(loaded, sweeps)
    with counting() if count else contextlib.nullcontext() as counts:
        executor = Executor(loaded.mission, loaded.config)
        profiles, wall = clocked(lambda: [executor.execute(t) for t in tests])
    out = {"flights": len(tests), "wall_s": wall, "memo_entries": len(executor.cruise_runs),
           "digest": sha256(p.to_dict() for p in profiles)}
    if count:
        out.update({f"{name}_per_flight": counts[name] / len(tests) for name in COUNTED})
    return out


def pass_storage(campaign: str) -> dict:
    from statefuzz.storage import load_campaign, save_result, save_tests

    stored = Path(campaign)
    source = load_campaign(stored)
    results = [(t, source.profiles[t.test_id])
               for t in source.every_test() if t.test_id in source.profiles]
    with tempfile.TemporaryDirectory() as work:
        root = Path(work)
        for name in ("campaign.json", "tests.json"):
            (root / name).write_bytes((stored / name).read_bytes())
        _, read = clocked(lambda: load_campaign(root))
        _, save = clocked(lambda: [save_result(root, t, p) for t, p in results])
        loaded, load = clocked(lambda: load_campaign(root))
        _, write = clocked(lambda: save_tests(loaded))
        stored_bytes = sum(p.stat().st_size for p in root.iterdir()
                           if p.name not in ("campaign.json", "tests.json"))
        tests_json_bytes = (root / "tests.json").stat().st_size
    tests = len(list(loaded.every_test()))
    return {
        "save_ms_per_1000": 1e6 * save / len(results),
        "load_ms_per_1000": 1e6 * load / len(results),
        "read_tests_ms_per_1000": 1e6 * read / tests,
        "save_tests_ms_per_1000": 1e6 * write / tests,
        "results": len(results),
        "tests": tests,
        "stored_bytes": stored_bytes,
        "tests_json_bytes": tests_json_bytes,
        "digest": sha256([t, loaded.profiles[t].to_dict(), loaded.verdicts[t].verdict,
                          loaded.verdicts[t].reason] for t in sorted(loaded.profiles)),
    }


def pass_oracle(campaign: str) -> dict:
    from statefuzz.oracle import classify, default_tree
    from statefuzz.storage import load_campaign

    loaded = load_campaign(Path(campaign))
    stored = [(t, loaded.profiles[t.test_id])
              for t in loaded.every_test() if t.test_id in loaded.profiles]
    out, judged = {"profiles": len(stored)}, []
    for version in ("v0", "v1"):
        tree = default_tree(version)
        verdicts, out[f"{version}_s"] = clocked(lambda: [classify(t, p, tree) for t, p in stored])
        out[f"{version}_verdicts"] = dict(sorted(Counter(v.verdict for v in verdicts).items()))
        judged += [[t.test_id, v.verdict, v.reason] for (t, _p), v in zip(stored, verdicts)]
    return {**out, "digest": sha256(judged)}


def pass_minimize(campaign: str) -> dict:
    from statefuzz.cutset import minimize, table_from_results
    from statefuzz.errors import InvalidOnly
    from statefuzz.storage import load_campaign
    from statefuzz.testgen import AXES

    loaded = load_campaign(Path(campaign))
    tables, cut_sets, total = {}, {}, 0.0
    for tag, sweep in sorted(loaded.sweeps.items()):
        axes = [a for a in AXES if a in sweep.recipe["axes"]]
        items = [(t, loaded.profiles[t.test_id], loaded.verdicts[t.test_id]) for t in sweep.tests]
        try:
            table = table_from_results(axes, items)
        except InvalidOnly:
            continue
        calls, wall = clocked(lambda: [minimize(table) for _ in range(MINIMIZE_CALLS)])
        cut_sets[tag] = calls[-1]
        tables[tag] = {"rows": len(table.rows), "axes": len(table.axes),
                       "cut_sets": len(cut_sets[tag]), "ms": 1000 * wall / MINIMIZE_CALLS}
        total += tables[tag]["ms"]
    return {"minimize_ms": total, "tables": tables, "digest": sha256([cut_sets])}


def pass_read(campaign: str) -> dict:
    """What the checkout's own load_campaign reads back from a campaign it
    stored: its profile fields, and each stored profile and verdict in test
    order."""
    from statefuzz.executor import PROFILE_FIELDS
    from statefuzz.storage import load_campaign

    loaded = load_campaign(Path(campaign))
    order = [i for i in dict.fromkeys(t.test_id for t in loaded.every_test())
             if i in loaded.profiles]
    return {
        "fields": list(PROFILE_FIELDS),
        "profiles": {i: loaded.profiles[i].to_dict() for i in order},
        "verdicts": {i: [loaded.verdicts[i].verdict, loaded.verdicts[i].reason] for i in order},
    }


# ---------------------------------------------------------------------------
# the layers, alternating two checkouts
# ---------------------------------------------------------------------------


def ab_clustering(args, sides: dict, work: Path) -> dict:
    return alternate(args.pairs, lambda side: run_pass(sides[side], pass_clustering),
                     [f"{n}_failures_s" for n in CLUSTER_SIZES])


def on_stored(args, sides: dict, work: Path, name: str, function, metrics) -> dict:
    """Alternating passes of function on the seed-0 campaign of perfbench's
    workload name, which each side's CLI stores first."""
    stored = store_with(sides, work / name, workload_run(name))
    print(name, flush=True)
    return alternate(args.pairs, lambda side: run_pass(sides[side], function,
                                                       campaign=str(stored[side])), metrics)


def ab_simulator(args, sides: dict, work: Path) -> dict:
    out = {}
    for name, sweeps in FLOWN.items():
        stored = store_with(sides, work / name, workload_run(name))
        print(name, flush=True)

        def one_pass(side: str, count: bool = False) -> dict:
            return run_pass(sides[side], pass_simulator, campaign=str(stored[side]),
                            sweeps=sweeps, count=count)

        section = out[name] = alternate(args.pairs, one_pass, ["wall_s"])
        counts = section["counts"] = {side: one_pass(side, count=True) for side in SIDES}
        for side, doc in counts.items():
            if doc["digest"] not in section["digests"][side]:
                raise SystemExit(f"{name}: the {side}'s counted pass flew other profiles")
            print(f"{side}: {doc['flights']} flights; per flight {doc['coast_per_flight']:.2f} "
                  f"_coast, {doc['runs_per_flight']:.2f} runs, "
                  f"{doc['point_in_polygon_per_flight']:.1f} _point_in_polygon, "
                  f"{doc['random_per_flight']:.1f} rng.random; {doc['memo_entries']} cruise_runs "
                  f"entries; digest {doc['digest']}", flush=True)
    return out


def ab_storage(args, sides: dict, work: Path) -> dict:
    return on_stored(args, sides, work, "f2_quickstart", pass_storage,
                     ["save_ms_per_1000", "load_ms_per_1000", "read_tests_ms_per_1000",
                      "save_tests_ms_per_1000"])


def ab_oracle(args, sides: dict, work: Path) -> dict:
    return on_stored(args, sides, work, "f2_quickstart", pass_oracle, ["v0_s", "v1_s"])


def ab_minimize(args, sides: dict, work: Path) -> dict:
    return {name: on_stored(args, sides, work, name, pass_minimize, ["minimize_ms"])
            for name in FLOWN}


def ab_startup(args, sides: dict, work: Path) -> dict:
    out = alternate(args.pairs, lambda side: fresh_start(sides[side] / "src",
                                                         "import statefuzz.cli\n"), ["wall_s"])
    out["loaded"] = {side: sorted({m for p in out["pairs"] for m in p[side]["loaded"]})
                     for side in SIDES}
    print(f"loaded: {out['loaded']}", flush=True)
    stored = store_with(sides, work, SMALL_RUN)
    commands = {
        "run": [*SMALL_RUN, "--out"],
        "analyze": ["analyze", "--campaign"],
        "focus": ["focus", "--test-id", "t00003", "--runs-per-cell", "1", "--no-soundness",
                  "--campaign"],
        "report": ["report", "--campaign"],
        "replay": ["replay", "--test-id", "t00003", "--campaign"],
    }
    out["commands"] = {}
    for name, argv in commands.items():
        starts = out["commands"][name] = {}
        for side in SIDES:
            campaign = work / f"{name}-{side}"
            if name != "run":
                shutil.copytree(stored[side], campaign)
            starts[side] = fresh_start(sides[side] / "src", CLI_MAIN,
                                       json.dumps([*argv, str(campaign)]), importtime=True)
        print(f"{name}: " + ", ".join(
            f"{side} {r['wall_s']:.3f} s, imports {r['import_s']:.3f} s {r['loaded']}"
            for side, r in starts.items()), flush=True)
    return out


# ---------------------------------------------------------------------------
# end to end, through perfbench
# ---------------------------------------------------------------------------


def perfbench(checkout: Path, workload: str, seed: int, trace: int) -> dict:
    """One perfbench run in its checkout: its metrics, repeats and digests."""
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
        **{name: m["value"] for name, m in doc["metrics"].items()},
        "digest": " ".join(sorted(set(re.findall(r"digest ([0-9a-f]{64})", result.stdout)))),
    }


def ab_pairs(args, sides: dict, work: Path) -> dict:
    out = alternate(args.pairs, lambda side: perfbench(sides[side], args.workload, args.seed, 0),
                    END_TO_END)
    out["ops_failed"] = {side: f"{sum(p[side]['failed'] for p in out['pairs'])}/"
                               f"{sum(p[side]['attempted'] for p in out['pairs'])}"
                         for side in SIDES}
    return {"seed": args.seed, **out}


def ab_traced(args, sides: dict, work: Path) -> dict:
    out = {"seed": args.seed}
    for side in SIDES:
        layers = out[side] = perfbench(sides[side], args.workload, args.seed, 1)
        print(f"{side}: sutmodel.advance_s {layers['sutmodel.advance_s']:.3f} s, "
              f"analysis.analyze_failures_s {layers['analysis.analyze_failures_s']:.3f} s, "
              f"trace.wall_s {layers['trace.wall_s']:.3f} s", flush=True)
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
    load_campaign gave back (pass_read)."""
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


def ab_samefacts(args, sides: dict, work: Path) -> int:
    workloads, runner = perfbench_runner()
    for name, workload in workloads.items():
        for seed in SAMEFACTS_SEEDS:
            case = work / f"{name}-{seed}"
            stored = store_with(sides, case, workload_run(name, seed))
            if workload.reanalyze:
                for side, checkout in sides.items():
                    for command in runner(workload, seed, case).commands(stored[side]):
                        fresh_start(checkout / "src", CLI_MAIN, json.dumps(command))
            reads = {side: run_pass(checkout, pass_read, campaign=str(stored[side]))
                     for side, checkout in sides.items()}
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


#: command -> (its function, its help)
COMMANDS = {
    "clustering": (ab_clustering, "time analyze_failures on synthetic failure sets"),
    "simulator": (ab_simulator, "time the flights of f2_quickstart and env_fence_c"),
    "storage": (ab_storage, "time save_result, load_campaign and save_tests"),
    "oracle": (ab_oracle, "time classify over the quick start's profiles"),
    "minimize": (ab_minimize, "time cutset.minimize on each stored truth table"),
    "startup": (ab_startup, "time cold starts and one start per subcommand"),
    "pairs": (ab_pairs, "alternating perfbench runs"),
    "traced": (ab_traced, "one traced perfbench run per checkout"),
    "samefacts": (ab_samefacts, "do two checkouts store the same facts?"),
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_run, helptext) in COMMANDS.items():
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--parent", required=True, help="checkout to compare against")
        p.add_argument("--change", required=True, help="checkout to measure")
        if name != "samefacts":
            p.add_argument("--out", required=True, help="BENCH json file to update")
        if name not in ("traced", "samefacts"):
            p.add_argument("--pairs", type=int, default=10, help="alternating pairs, at least 2")
        if name in ("pairs", "traced"):
            p.add_argument("--workload", required=True, help="a workload of perfbench/run.py")
            p.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    if getattr(args, "pairs", 2) < 2:
        parser.error("--pairs must be at least 2")
    sides = {side: Path(getattr(args, side)).resolve() for side in SIDES}
    with tempfile.TemporaryDirectory() as work:
        section = COMMANDS[args.command][0](args, sides, Path(work))
    if args.command == "samefacts":
        return section
    path = Path(args.out)
    doc = json.loads(path.read_text()) if path.exists() else {}
    doc["machine"] = machine()
    key = f"{args.workload} seed {args.seed}" if "workload" in args else "parent vs change"
    doc.setdefault(args.command, {})[key] = section
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
