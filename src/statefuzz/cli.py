"""Command-line front end.

Subcommands mirror the pipeline stages:

    run      the whole pipeline: generate, execute, judge, cluster,
             re-fuzz representatives, emit truth tables and fault trees
    analyze  (re)cluster a stored campaign's failures
    focus    re-fuzz representative contexts into truth tables and trees
    report   render report.txt from the stored artifacts
    replay   re-execute one stored test and compare against its profile

Specs and missions are JSON paths; the names bundled with the package
(fspec1, mission_a, mission_c, sut_default) also resolve directly. The
master seed comes from --seed, falling back to the STATEFUZZ_SEED
environment variable, then 0.

Exit codes: 0 success (failing tests are still a success: the campaign
ran), 1 replay mismatch or unexpected error, 2 invalid input.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time
from collections import Counter
from importlib import resources
from pathlib import Path
from typing import Optional, Sequence

from . import analysis as analysis_mod
from .cutset import (
    TruthTable,
    build_fault_tree,
    build_truth_table,
    cut_sets_for_table,
    merge_cut_sets,
    soundness_check,
)
from .errors import (
    EmptyFailureSet,
    InvalidOnly,
    NotACampaign,
    StateFuzzError,
    UnknownTestId,
)
from .executor import Executor, run_campaign
from .fuzzspec import (
    FuzzSpecification,
    load_fuzz_spec,
    load_mission,
    validate_coverage,
    validate_sut_config,
)
from .oracle import FAILURE, classify, default_tree, parse_tree, serialize_tree
from .storage import (
    load_campaign,
    read_json,
    render_report,
    save_analysis,
    save_campaign_meta,
    save_coverage,
    save_fault_tree,
    save_report,
    save_result,
    save_soundness,
    save_tests,
    save_truth_table,
)
from .sutmodel import SutConfig
from .testgen import (
    DEFAULT_FOCUS_REPETITIONS,
    DEFAULT_REPETITIONS,
    GeneratorConfig,
    TestCase,
    generate,
)


def _bundled(name: str) -> Path:
    return Path(str(resources.files("statefuzz").joinpath("data", f"{name}.json")))


def _resolve(path_or_name: str) -> Path:
    p = Path(path_or_name)
    if p.exists():
        return p
    candidate = _bundled(path_or_name)
    if candidate.exists():
        return candidate
    raise FileNotFoundError(f"no such file or bundled document: {path_or_name}")


def _seed_from(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("STATEFUZZ_SEED")
    return int(env) if env else 0


def _load_config(args) -> SutConfig:
    if args.config:
        raw = read_json(_resolve(args.config))
    else:
        raw = {}
    config = SutConfig.from_dict(raw)
    if args.fault:
        seeded = sorted(set(config.seeded_faults) | set(args.fault))
        config = SutConfig.from_dict({**config.to_dict(), "seeded_faults": seeded})
    if args.latency_window:
        lo, hi = args.latency_window
        config = SutConfig.from_dict({**config.to_dict(), "latency_window_ms": [lo, hi]})
    return config


def _default_axes(spec: FuzzSpecification) -> list[str]:
    """Action and delay band always sweep; environment axes only when the
    spec gives them more than one level."""
    axes = ["action", "delay_band"]
    env = spec.environment
    for name in ("throttle", "geofence", "wind", "gps_noise", "compass_interference"):
        if len(getattr(env, name)) > 1:
            axes.append(name)
    return axes


def _dominant_reason(triples) -> str:
    reasons = Counter(v.reason for _t, _p, v in triples if v.verdict == FAILURE)
    if not reasons:
        return "no failing cells"
    return sorted(reasons.items(), key=lambda kv: (-kv[1], kv[0]))[0][0]


def _focus_representative(
    root: Path,
    base: TestCase,
    axes: Sequence[str],
    runs_per_cell: int,
    spec: FuzzSpecification,
    mission,
    config: SutConfig,
    tree,
    seed: int,
    parallelism: int,
    check_soundness: bool,
    cut_groups: dict,
    soundness_docs: list,
) -> list:
    """Run one representative's focused sweep; returns its (test, profile,
    verdict) triples.

    The table's cut sets go into cut_groups under the representative's id
    and their soundness checks onto soundness_docs. A sweep without a valid
    run removes the representative's table and tree from an earlier focus.
    """
    triples: list = []

    def runner(tests: list[TestCase]):
        profiles = run_campaign(tests, mission, config, parallelism=parallelism)
        for test, profile in zip(tests, profiles):
            verdict = classify(test, profile, tree)
            save_result(root, test, profile, verdict)
            triples.append((test, profile, verdict))
        return triples

    try:
        table = build_truth_table(base, axes, runs_per_cell, runner, spec, master_seed=seed)
    except InvalidOnly as exc:
        print(f"  {base.test_id}: {exc}", file=sys.stderr)
        for kind in ("truthtables", "faulttrees"):
            for stale in root.glob(f"{kind}/{base.test_id}.*"):
                stale.unlink()
        return triples

    save_truth_table(root, base.test_id, table.to_dict())
    cut_sets = cut_sets_for_table(table, source=f"truthtable:{base.test_id}")
    cut_groups[base.test_id] = cut_sets
    hazard = f"{_dominant_reason(triples)} in {table.scope}"
    fault_tree = build_fault_tree(hazard, cut_sets)
    save_fault_tree(root, base.test_id, fault_tree.to_dict(), fault_tree.to_dot())
    for cs in cut_sets:
        lits = " AND ".join(f"{a}={v}" for a, v in cs.literals)
        print(f"  cut set: {{ {lits} }}")
    if check_soundness:
        for cs in cut_sets:
            result = soundness_check(cs, spec, mission, config, tree, master_seed=seed)
            soundness_docs.append(result.to_dict())
            status = "sound" if result.sound else "NOT SOUND"
            print(f"    soundness: {status} {list(result.verdicts)}")
    return triples


def _representative_ids(representatives: list[dict]) -> list[str]:
    """Cluster exemplars (closest to each centroid), deduplicated in order."""
    return list(dict.fromkeys(rep["closest"] for rep in representatives))


def _save_focus_results(
    root: Path,
    order: Sequence[str],
    rep_ids: Sequence[str],
    cut_groups: dict,
    soundness_docs: list,
) -> None:
    """Rebuild the combined tree and soundness.json from every stored table.

    rep_ids were focused by this call: cut_groups holds the cut sets of
    those that produced a table, soundness_docs their checks. Every other
    stored table is read back and keeps its stored soundness entries.
    Tables follow the focused order of tests.json, then their names.
    """
    stored = sorted(p.stem for p in root.glob("truthtables/*.json"))
    keys = [k for k in order if k in stored] + [k for k in stored if k not in order]
    groups = []
    for key in keys:
        if key in cut_groups:
            groups.append(cut_groups[key])
        else:
            table = TruthTable.from_dict(read_json(root / "truthtables" / f"{key}.json"))
            groups.append(cut_sets_for_table(table, source=f"truthtable:{key}"))
    combined = build_fault_tree("state-dependent failures (combined)", merge_cut_sets(groups))
    save_fault_tree(root, "combined", combined.to_dict(), combined.to_dot())

    refocused = {f"truthtable:{r}" for r in rep_ids}
    path = root / "soundness.json"
    kept = [
        doc for doc in (read_json(path) if path.exists() else [])
        if not refocused.intersection(doc["cut_set"]["sources"])
    ]
    rank = {f"truthtable:{k}": i for i, k in enumerate(keys)}
    docs = sorted(
        kept + soundness_docs,
        key=lambda doc: min((rank.get(s, len(rank)) for s in doc["cut_set"]["sources"]),
                            default=len(rank)),
    )
    if docs:
        save_soundness(root, docs)
    elif path.exists():
        path.unlink()


def _claim_out(root: Path) -> None:
    """Make root ready for a new campaign.

    A missing or empty directory is used as it is. In a campaign directory
    the earlier run's per-test results, its other top-level JSON files, its
    truth tables and fault trees, and the .<name>.<pid>.tmp files a killed
    writer left behind are removed, so none of them survives the new run;
    campaign.json stays until the new run replaces it. Any other path is
    refused.
    """
    if root.exists() and not root.is_dir():
        raise NotACampaign(f"--out {root} is not a directory")
    if root.is_dir() and any(root.iterdir()):
        if not (root / "campaign.json").is_file():
            raise NotACampaign(f"--out {root} is not empty and holds no campaign.json")
        for name in ("truthtables", "faulttrees"):
            if (root / name).is_dir():
                shutil.rmtree(root / name)
        for path in root.glob("*.json"):
            if path.name != "campaign.json":
                path.unlink()
        for path in root.glob(".*.tmp"):
            path.unlink()
    root.mkdir(parents=True, exist_ok=True)


def _write_report(root: Path, counts: Optional[dict[str, int]] = None) -> str:
    """Render report.txt from the stored artifacts.

    counts are the verdict counts over every stored result, main and
    focused; without them the results are loaded to count them.
    """
    meta = read_json(root / "campaign.json")
    if counts is None:
        counts = Counter(v.verdict for v in load_campaign(root).verdicts.values())
    analysis_doc = None
    if (root / "analysis.json").exists():
        analysis_doc = read_json(root / "analysis.json")
    tables = []
    table_dir = root / "truthtables"
    if table_dir.is_dir():
        tables = [(p.stem, read_json(p)) for p in sorted(table_dir.glob("*.json"))]
    trees = []
    tree_dir = root / "faulttrees"
    if tree_dir.is_dir():
        paths = sorted(tree_dir.glob("*.json"), key=lambda p: (p.stem == "combined", p.stem))
        trees = [read_json(p) for p in paths]
    soundness = []
    if (root / "soundness.json").exists():
        soundness = read_json(root / "soundness.json")
    text = render_report(meta, counts, analysis_doc, tables, trees, soundness)
    save_report(root, text)
    return text


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_run(args) -> int:
    spec = load_fuzz_spec(_resolve(args.spec))
    mission = load_mission(_resolve(args.mission))
    config = _load_config(args)
    validate_sut_config(config, spec)
    coverage = validate_coverage(spec, mission)
    for gap in coverage.warnings():
        print(f"coverage warning: {gap}", file=sys.stderr)

    seed = _seed_from(args)
    gen_config = GeneratorConfig(
        repetitions_per_combination=args.repetitions,
        master_seed=seed,
        mission_policy=args.mission_policy,
    )
    tree = default_tree(args.oracle)
    root = Path(args.out)
    _claim_out(root)

    t0 = time.monotonic()
    tests = generate(spec, gen_config)
    per_mission = len(tests) // max(args.repetitions, 1)
    print(f"generated {len(tests)} tests ({per_mission} combinations x {args.repetitions} repetitions)")

    profiles = run_campaign(tests, mission, config, parallelism=args.parallelism)
    counts: dict[str, int] = {}
    pairs = []
    for test, profile in zip(tests, profiles):
        verdict = classify(test, profile, tree)
        counts[verdict.verdict] = counts.get(verdict.verdict, 0) + 1
        save_result(root, test, profile, verdict)
        pairs.append((test, verdict))
    # the verdict of every stored result, main and focused, for the report
    stored = {t.test_id: v.verdict for t, v in pairs}
    summary = ", ".join(f"{k}={v}" for k, v in sorted(counts.items()))
    print(f"executed {len(tests)} tests: {summary}")

    reps_meta: list[dict] = []
    focused: dict[str, list[TestCase]] = {}
    cut_groups: dict = {}
    soundness_docs: list = []
    analysis_result = None
    try:
        analysis_result = analysis_mod.analyze_failures(pairs, spec, seed=seed)
    except EmptyFailureSet:
        print("no failures: skipping clustering, truth tables and fault trees")

    if analysis_result is not None:
        save_analysis(root, analysis_result)
        reps_meta = [r.to_dict() for r in analysis_result.representatives]
        n_fail = len(analysis_result.encoded.test_ids)
        print(f"clustered {n_fail} failures into K={analysis_result.k}")
        axes = _default_axes(spec)
        tests_by_id = {t.test_id: t for t in tests}
        rep_ids = _representative_ids(reps_meta)
        for rep_id in rep_ids:
            base = tests_by_id[rep_id]
            print(f"focused re-fuzz around {rep_id} "
                  f"(state {base.app_state.value}, axes {', '.join(axes)})")
            triples = _focus_representative(
                root, base, axes, args.runs_per_cell, spec, mission, config,
                tree, seed, args.parallelism, args.soundness,
                cut_groups, soundness_docs,
            )
            focused[rep_id] = [t for t, _p, _v in triples]
            stored.update((t.test_id, v.verdict) for t, _p, v in triples)
        _save_focus_results(root, list(focused), rep_ids, cut_groups, soundness_docs)

    wall = time.monotonic() - t0
    save_tests(root, tests, focused)
    save_coverage(root, coverage.to_dict())
    save_campaign_meta(
        root, spec, mission, config, gen_config, args.oracle,
        serialize_tree(tree), args.parallelism, counts, wall, reps_meta,
    )
    _write_report(root, Counter(stored.values()))
    print(f"campaign stored in {root} ({wall:.1f}s)")
    return 0


def cmd_analyze(args) -> int:
    root = Path(args.campaign)
    campaign = load_campaign(root)
    seed = args.seed if args.seed is not None else campaign.master_seed
    if args.oracle:
        # judge the stored profiles again under another oracle version,
        # without executing anything or touching the stored verdicts
        tree = default_tree(args.oracle)
        counts: dict[str, int] = {}
        pairs = []
        for test in campaign.tests:
            profile = campaign.profiles.get(test.test_id)
            if profile is None:
                continue
            verdict = classify(test, profile, tree)
            counts[verdict.verdict] = counts.get(verdict.verdict, 0) + 1
            pairs.append((test, verdict))
        summary = ", ".join(f"{k}={v}" for k, v in sorted(counts.items()))
        print(f"re-judged {len(pairs)} stored profiles under oracle {args.oracle}: {summary}")
    else:
        pairs = [(t, v) for t, _p, v in campaign.results()]
    try:
        result = analysis_mod.analyze_failures(
            pairs, campaign.spec, seed=seed, k_max=args.kmax, restarts=args.restarts
        )
    except EmptyFailureSet:
        print("no failures in this campaign; nothing to cluster")
        return 0
    save_analysis(root, result)
    print(f"clustered {len(result.encoded.test_ids)} failures into K={result.k}")
    for rep in result.representatives:
        print(f"  cluster {rep.cluster}: closest={rep.closest} farthest={rep.farthest}")
    return 0


def cmd_focus(args) -> int:
    root = Path(args.campaign)
    campaign = load_campaign(root)
    if args.test_id:
        # a repeated id is focused once
        rep_ids = list(dict.fromkeys(args.test_id))
    else:
        analysis_path = root / "analysis.json"
        if not analysis_path.exists():
            print("run `statefuzz analyze` first: analysis.json is missing", file=sys.stderr)
            return 2
        rep_ids = _representative_ids(read_json(analysis_path)["representatives"])

    axes = args.axes.split(",") if args.axes else _default_axes(campaign.spec)
    tree = parse_tree(campaign.oracle_tree_raw)
    seed = args.seed if args.seed is not None else campaign.master_seed
    focused = dict(campaign.focused_tests)
    cut_groups: dict = {}
    soundness_docs: list = []
    for rep_id in rep_ids:
        base = campaign.find_test(rep_id)
        if base is None:
            raise UnknownTestId(f"campaign has no test {rep_id!r}")
        print(f"focused re-fuzz around {rep_id} "
              f"(state {base.app_state.value}, axes {', '.join(axes)})")
        triples = _focus_representative(
            root, base, axes, args.runs_per_cell, campaign.spec, campaign.mission,
            campaign.config, tree, seed, args.parallelism, args.soundness,
            cut_groups, soundness_docs,
        )
        focused[rep_id] = [t for t, _p, _v in triples]
    _save_focus_results(root, list(focused), rep_ids, cut_groups, soundness_docs)
    save_tests(root, campaign.tests, focused)
    print(f"fault trees written for: {', '.join(rep_ids)} (+combined)")
    return 0


def cmd_report(args) -> int:
    text = _write_report(Path(args.campaign))
    print(text, end="")
    return 0


def cmd_replay(args) -> int:
    root = Path(args.campaign)
    campaign = load_campaign(root)
    test = campaign.find_test(args.test_id)
    if test is None:
        raise UnknownTestId(f"campaign has no test {args.test_id!r}")
    ex = Executor(campaign.mission, campaign.config)
    fresh = ex.execute(test)
    tree = parse_tree(campaign.oracle_tree_raw)
    verdict = classify(test, fresh, tree)
    stored = campaign.profiles.get(test.test_id)
    if stored is None:
        print(f"no stored profile for {test.test_id}; fresh execution -> "
              f"{verdict.verdict} ({verdict.reason})")
        return 0
    if fresh == stored:
        print(f"replay OK: {test.test_id} -> {verdict.verdict} ({verdict.reason})")
        return 0
    print(f"replay MISMATCH for {test.test_id}")
    fresh_d, stored_d = fresh.to_dict(), stored.to_dict()
    for key in sorted(fresh_d):
        if fresh_d[key] != stored_d[key]:
            print(f"  {key}: stored={stored_d[key]!r} fresh={fresh_d[key]!r}")
    return 1


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="statefuzz",
        description="state-aware fuzzing of a simulated dual-layer flight stack",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run the whole pipeline and store a campaign")
    run.add_argument("--spec", required=True, help="fuzz spec JSON (path or bundled name)")
    run.add_argument("--mission", required=True, help="mission JSON (path or bundled name)")
    run.add_argument("--config", help="system config JSON (path or bundled name)")
    run.add_argument("--fault", action="append", default=[],
                     help="seed a fault id (repeatable), e.g. --fault F2")
    run.add_argument("--latency-window", nargs=2, type=float, metavar=("LO", "HI"),
                     help="override the mode-switch latency window in ms")
    run.add_argument("--out", required=True, help="campaign output directory")
    run.add_argument("--oracle", choices=("v0", "v1"), default="v1")
    run.add_argument("--repetitions", type=int, default=DEFAULT_REPETITIONS)
    run.add_argument("--runs-per-cell", type=int, default=DEFAULT_FOCUS_REPETITIONS,
                     help="repetitions per cell in focused re-fuzzing")
    run.add_argument("--mission-policy", choices=("cross-product", "first-only"),
                     default="cross-product")
    run.add_argument("--soundness", action=argparse.BooleanOptionalAction, default=True)
    run.add_argument("--parallelism", type=int, default=1)
    run.add_argument("--seed", type=int, default=None)
    run.set_defaults(fn=cmd_run)

    analyze = sub.add_parser("analyze", help="cluster a stored campaign's failures")
    analyze.add_argument("--campaign", required=True)
    analyze.add_argument("--kmax", type=int, default=None)
    analyze.add_argument("--restarts", type=int, default=analysis_mod.DEFAULT_RESTARTS)
    analyze.add_argument("--oracle", choices=("v0", "v1"), default=None,
                         help="judge the stored profiles again under this oracle version")
    analyze.add_argument("--seed", type=int, default=None)
    analyze.set_defaults(fn=cmd_analyze)

    focus = sub.add_parser("focus", help="re-fuzz representatives into truth tables")
    focus.add_argument("--campaign", required=True)
    focus.add_argument("--test-id", action="append", default=[],
                       help="focus on this test instead of the stored representatives")
    focus.add_argument("--axes", help="comma-separated axes to sweep (default: auto)")
    focus.add_argument("--runs-per-cell", type=int, default=DEFAULT_FOCUS_REPETITIONS)
    focus.add_argument("--parallelism", type=int, default=1)
    focus.add_argument("--soundness", action=argparse.BooleanOptionalAction, default=True)
    focus.add_argument("--seed", type=int, default=None)
    focus.set_defaults(fn=cmd_focus)

    report = sub.add_parser("report", help="render report.txt for a campaign")
    report.add_argument("--campaign", required=True)
    report.set_defaults(fn=cmd_report)

    replay = sub.add_parser("replay", help="re-execute one stored test")
    replay.add_argument("--campaign", required=True)
    replay.add_argument("--test-id", required=True)
    replay.set_defaults(fn=cmd_replay)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (StateFuzzError, FileNotFoundError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
