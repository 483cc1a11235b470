"""Layer bench for statefuzz: writes a BENCH_<n>.json one section at a time.

Usage, from the root of a checkout:

    python3 bench/bench.py clustering --out FILE --key after [--src DIR] [--repeats 3]
    python3 bench/bench.py simulator --out FILE --key after [--src DIR] [--repeats 3]
    python3 bench/bench.py simulator --out FILE --key alternating \\
        --parent DIR --change DIR [--pairs 10]
    python3 bench/bench.py pairs --out FILE --parent DIR --change DIR \\
        --workload reanalyze [--pairs 10] [--seed 0]
    python3 bench/bench.py traced --out FILE --parent DIR --change DIR --workload NAME

``clustering`` times ``analysis.analyze_failures`` in this process on
synthetic failure sets of 100, 1,000 and 3,600 failures (the median of
``--repeats`` runs, at least 3) with the package under ``--src`` (default:
this checkout's ``src``), and records a digest of each result so two
source trees can be checked for equal output.

``simulator`` flies, in this process, every flight that the README quick
start (``run --spec fspec1 --mission mission_a --fault F2 --latency-window
200 600 --repetitions 20 --seed 0``) stores: its 900 main tests and 540
focused ones. It reports flights per second and simulated seconds per host
second over the median of ``--repeats`` passes, at least 3, and a digest of
the execution profiles. With ``--parent`` and ``--change`` it flies that
flight set with each checkout's ``src`` instead, in cold single passes: each
pass is a fresh subprocess with a new ``Executor``, so any per-executor memo
starts empty. The sides alternate which runs first; the section records each
side's passes, median and quartiles, the pairs the change won, the profile
digests, and from one more pass per side, with ``Vehicle._coast`` wrapped in
the subprocess, the ``_coast`` calls per flight and the entries of the
executor's ``cruise_runs`` memo (null where a side has none).

``pairs`` runs ``perfbench/run.py --trace 0`` of two checkouts in turn,
alternating which side runs first, and records every run's end-to-end
metrics and artifact digests, each side's median and quartiles of
``wall_s``, and the number of pairs the change won. ``traced`` runs
``perfbench/run.py --trace 1`` once per side and records the per-layer
metrics.

Each command merges its result into one section of ``--out`` (under
``--key`` for ``clustering`` and ``simulator``, under the workload and seed
otherwise) and records the machine: nproc and the Python and numpy
versions. It is not part of the test suite.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import math
import os
import platform
import re
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: failure-set sizes of the clustering layer
CLUSTER_SIZES = (100, 1000, 3600)

#: the README quick start, the simulator layer's flight set at seed 0
F2_QUICKSTART = ("run", "--spec", "fspec1", "--mission", "mission_a", "--fault", "F2",
                 "--latency-window", "200", "600", "--repetitions", "20", "--seed", "0")

#: seconds perfbench measures per run
PERFBENCH_SECONDS = 20


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
    combos = len(generate(spec, GeneratorConfig(repetitions_per_combination=1)))
    config = GeneratorConfig(repetitions_per_combination=math.ceil(n / combos), master_seed=0)
    tests = sorted(generate(spec, config), key=lambda t: t.repetition)[:n]
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


def cmd_simulator(args) -> dict:
    cli = import_from(args.src, "statefuzz.cli")
    from statefuzz.executor import Executor
    from statefuzz.storage import canonical_dumps, load_campaign

    with tempfile.TemporaryDirectory() as work:
        with contextlib.redirect_stdout(io.StringIO()):
            if cli.main([*F2_QUICKSTART, "--out", work]) != 0:
                raise SystemExit("the quick-start run failed")
        campaign = load_campaign(Path(work))
    tests = campaign.tests + [t for ts in campaign.focused_tests.values() for t in ts]
    walls = []
    for _ in range(args.repeats):
        executor = Executor(campaign.mission, campaign.config)
        t0 = time.perf_counter()
        profiles = [executor.execute(t) for t in tests]
        walls.append(time.perf_counter() - t0)
    wall = statistics.median(walls)
    sim_s = sum(p.flight_duration_ms for p in profiles) / 1000.0
    doc = "".join(canonical_dumps(p.to_dict()) for p in profiles).encode()
    print(f"{len(tests)} flights: median {wall:.3f} s of {' '.join(f'{w:.3f}' for w in walls)}, "
          f"{len(tests) / wall:.1f} flights/s", flush=True)
    return {
        "src": str(Path(args.src).resolve()),
        "repeats": args.repeats,
        "flights": len(tests),
        "median_s": wall,
        "runs_s": walls,
        "flights_per_s": len(tests) / wall,
        "sim_s": sim_s,
        "sim_s_per_host_s": sim_s / wall,
        "digest": hashlib.sha256(doc).hexdigest(),
    }


def cmd_simulator_ab(args) -> dict:
    cli = import_from(str(Path(args.change) / "src"), "statefuzz.cli")
    with tempfile.TemporaryDirectory() as work:
        with contextlib.redirect_stdout(io.StringIO()):
            if cli.main([*F2_QUICKSTART, "--out", work]) != 0:
                raise SystemExit("the quick-start run failed")
        sides = {"parent": Path(args.parent).resolve(), "change": Path(args.change).resolve()}

        def one_pass(side: str, count: bool) -> dict:
            argv = [sys.executable, str(Path(__file__).resolve()), "simulator-pass",
                    "--src", str(sides[side] / "src"), "--campaign", work]
            result = subprocess.run(argv + ["--count"] * count, capture_output=True,
                                    text=True, check=False)
            if result.returncode != 0:
                raise SystemExit(f"{' '.join(argv)} exited {result.returncode}:\n"
                                 f"{result.stderr[-2000:]}")
            return json.loads(result.stdout.strip().splitlines()[-1])

        pairs = []
        for i in range(args.pairs):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            runs = {side: one_pass(side, False) for side in order}
            pairs.append({"first": order[0], **runs})
            print(f"pair {i}: " + ", ".join(
                f"{side} {runs[side]['wall_s']:.3f} s" for side in order), flush=True)
        counts = {side: one_pass(side, True) for side in sides}
    walls = {side: [p[side]["wall_s"] for p in pairs] for side in sides}
    flights = pairs[0]["parent"]["flights"]
    out = {
        "flights": flights,
        "pairs": pairs,
        "wall_s": {side: quartiles(values) for side, values in walls.items()},
        "flights_per_s": {side: flights / statistics.median(v) for side, v in walls.items()},
        "speedup": statistics.median(walls["parent"]) / statistics.median(walls["change"]),
        "change_wins": sum(c < p for p, c in zip(walls["parent"], walls["change"])),
        "digests": {side: sorted({p[side]["digest"] for p in pairs}) for side in sides},
        "counts": {side: {k: counts[side][k] for k in
                          ("coast_calls", "coast_calls_per_flight", "memo_entries")}
                   for side in sides},
    }
    print(f"flights/s parent {out['flights_per_s']['parent']:.1f}, change "
          f"{out['flights_per_s']['change']:.1f} ({out['speedup']:.2f}x), change won "
          f"{out['change_wins']}/{args.pairs}; _coast calls per flight "
          + ", ".join(f"{s} {out['counts'][s]['coast_calls_per_flight']:.2f}" for s in sides),
          flush=True)
    return out


def cmd_simulator_pass(args) -> int:
    """One cold pass over a stored campaign's flights; prints one JSON line."""
    sutmodel = import_from(args.src, "statefuzz.sutmodel")
    from statefuzz.executor import Executor
    from statefuzz.storage import canonical_dumps, load_campaign

    campaign = load_campaign(Path(args.campaign))
    tests = campaign.tests + [t for ts in campaign.focused_tests.values() for t in ts]
    coast_calls = 0
    if args.count:
        coast = sutmodel.Vehicle._coast

        def counted(*a, **k):
            nonlocal coast_calls
            coast_calls += 1
            return coast(*a, **k)

        sutmodel.Vehicle._coast = counted
    executor = Executor(campaign.mission, campaign.config)
    t0 = time.perf_counter()
    profiles = [executor.execute(t) for t in tests]
    wall = time.perf_counter() - t0
    doc = "".join(canonical_dumps(p.to_dict()) for p in profiles).encode()
    memo = getattr(executor, "cruise_runs", None)
    print(json.dumps({
        "flights": len(tests),
        "wall_s": wall,
        "digest": hashlib.sha256(doc).hexdigest(),
        "coast_calls": coast_calls if args.count else None,
        "coast_calls_per_flight": coast_calls / len(tests) if args.count else None,
        "memo_entries": None if memo is None else len(memo),
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
            f"{side} {runs[side]['metrics']['wall_s']:.3f} s" for side in order), flush=True)
    walls = {side: [p[side]["metrics"]["wall_s"] for p in pairs] for side in sides}
    return {
        "seed": args.seed,
        "pairs": pairs,
        "wall_s": {side: quartiles(values) for side, values in walls.items()},
        "change_wins": sum(c < p for p, c in zip(walls["parent"], walls["change"])),
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
                           ("simulator", "time the quick start's flights")):
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--src", default=str(ROOT / "src"))
        p.add_argument("--repeats", type=int, default=3)
        p.add_argument("--key", required=True, help="section name, e.g. before or after")
    simulator = sub.choices["simulator"]
    simulator.add_argument("--parent", help="checkout: alternate cold passes with --change")
    simulator.add_argument("--change", help="checkout: alternate cold passes with --parent")
    simulator.add_argument("--pairs", type=int, default=10)
    for name, helptext in (("pairs", "alternating perfbench runs of two checkouts"),
                           ("traced", "one traced perfbench run per checkout")):
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--parent", required=True)
        p.add_argument("--change", required=True)
        p.add_argument("--workload", required=True)
        p.add_argument("--seed", type=int, default=0)
        if name == "pairs":
            p.add_argument("--pairs", type=int, default=10)
    for p in sub.choices.values():
        p.add_argument("--out", required=True, help="BENCH json file to update")
    one_pass = sub.add_parser("simulator-pass", help="one cold simulator pass (internal)")
    one_pass.add_argument("--src", required=True)
    one_pass.add_argument("--campaign", required=True)
    one_pass.add_argument("--count", action="store_true")
    args = parser.parse_args(argv)
    if args.command == "simulator-pass":
        return cmd_simulator_pass(args)
    in_process = args.command in ("clustering", "simulator")
    if in_process and args.repeats < 3:
        parser.error("--repeats must be at least 3")
    ab = args.command == "simulator" and (args.parent or args.change)
    if ab and not (args.parent and args.change):
        parser.error("--parent and --change go together")
    if getattr(args, "pairs", 2) < 2:
        parser.error("--pairs must be at least 2")

    run = {"clustering": cmd_clustering, "simulator": cmd_simulator_ab if ab else cmd_simulator,
           "pairs": cmd_pairs, "traced": cmd_traced}[args.command]
    section = run(args)
    path = Path(args.out)
    doc = json.loads(path.read_text()) if path.exists() else {}
    doc["machine"] = machine()
    key = args.key if in_process else f"{args.workload} seed {args.seed}"
    doc.setdefault(args.command, {})[key] = section
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
