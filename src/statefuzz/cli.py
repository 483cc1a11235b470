"""Command-line front end.

Subcommands mirror the pipeline stages:

    run      the whole pipeline: generate, execute, judge, cluster,
             re-fuzz representatives, emit truth tables and fault trees
    analyze  (re)cluster a stored campaign's failures
    focus    re-fuzz representative contexts into truth tables and trees
    report   render report.txt from the stored results
    replay   re-execute one stored test and compare against its profile;
             --events also prints the flight's event log and trace

`run` builds the storage.Campaign that load_campaign gives the others,
and each stage is one function on it, whatever the command: _Runner
flies, judges and stores, _cluster clusters, _focus re-fuzzes, _derive
builds the tables, trees and checks from the cases storage.expand gave each
entry once, and _write_report renders report.txt.

Specs and missions are JSON paths; the names bundled with the package
(fspec1, mission_a, mission_c, sut_default) also resolve directly.

Exit codes: 0 success (failing tests are still a success: the campaign
ran), 1 replay mismatch or unexpected error, 2 invalid input.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import time
from collections import ChainMap, Counter
from dataclasses import replace
from importlib import resources
from pathlib import Path
from typing import Optional, Sequence

from .cutset import (
    SOUNDNESS_TRIALS,
    Derived,
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
    VerdictDrift,
    naming,
)
from .executor import Executor, open_pool, run_campaign
from .fuzzspec import (
    ENV_AXES,
    FuzzSpecification,
    load_fuzz_spec,
    load_mission,
    validate_coverage,
    validate_sut_config,
)
from .oracle import FAILURE, classify, default_tree
from .storage import (
    RESULTS,
    Campaign,
    check_recipe,
    expand,
    load_analysis,
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
    sweep_recipe,
    trim_results,
)
from .sutmodel import SutConfig, summarize_events
from .testgen import (
    DEFAULT_FOCUS_REPETITIONS,
    DEFAULT_REPETITIONS,
    AXES,
    GeneratorConfig,
    TestCase,
    axis_levels,
    sweep_tag,
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


def _load_config(args) -> SutConfig:
    if args.config:
        path = _resolve(args.config)
        raw = read_json(path)
        with naming(path):
            config = SutConfig.from_dict(raw)
    else:
        config = SutConfig()
    if args.fault:
        seeded = tuple(sorted(set(config.seeded_faults) | set(args.fault)))
        config = replace(config, seeded_faults=seeded)
    if args.latency_window:
        config = replace(config, latency_window_ms=tuple(args.latency_window))
    return config


def _default_axes(spec: FuzzSpecification) -> list[str]:
    """Action and delay band always sweep; environment axes only when the
    spec gives them more than one level."""
    axes = ["action", "delay_band"]
    for axis in ENV_AXES:
        if len(axis_levels(spec, axis)) > 1:
            axes.append(axis)
    return axes


def _dominant_reason(verdicts) -> str:
    reasons = Counter(v.reason for v in verdicts if v.verdict == FAILURE)
    if not reasons:
        return "no failing cells"
    return sorted(reasons.items(), key=lambda kv: (-kv[1], kv[0]))[0][0]


def _summary(counts) -> str:
    """Verdict counts as VERDICT=n pairs, in verdict order."""
    return ", ".join(f"{k}={v}" for k, v in sorted(counts.items()))


def _representative_ids(analysis: dict) -> list[str]:
    """The tests a clustering (analysis.json's document) nominates for
    focus: each cluster's exemplar (closest to its centroid), deduplicated
    in order."""
    return list(dict.fromkeys(rep["closest"] for rep in analysis["representatives"]))


def _find_tests(campaign: Campaign, test_ids: Sequence[str]) -> list[TestCase]:
    """campaign's tests of the given ids, in order; an unknown id raises
    UnknownTestId, before anything flies."""
    tests = []
    for test_id in test_ids:
        test = campaign.find_test(test_id)
        if test is None:
            raise UnknownTestId(f"campaign has no test {test_id!r}")
        tests.append(test)
    return tests


class _Missing(Exception):
    """args[0] tests have no result, and the runner flies nothing."""


class _Runner:
    """Flies, judges and stores tests into one command's campaign.

    Every flight of a `run` or `focus` goes through one runner: the main
    stage, each focus sweep and each soundness check. A call returns the
    (test, profile, verdict) triples of its tests in order: a test with a
    result in campaign.profiles is taken from there, and the others are
    flown with run_campaign, judged under the campaign's oracle tree,
    appended to the results log and their verdicts recorded in
    campaign.verdicts. No profile is kept past the call that flew it.

    The first call with parallelism above 1 and at least two tests to fly
    opens one worker pool, which every later call shares; leaving the
    `with` block closes it, on error too, so no worker outlives the command.
    Entering the block cuts a torn last line off the results log, so the
    lines this command appends stay whole.

    A runner of parallelism None flies nothing: a call with a test without
    a result raises _Missing. `report` and `analyze` use one, unentered.
    """

    def __init__(self, campaign: Campaign, parallelism: Optional[int] = None) -> None:
        self.campaign = campaign
        self.parallelism = parallelism
        self._pool = None

    def __call__(self, tests: list[TestCase]) -> list:
        campaign = self.campaign
        profiles = ChainMap({}, campaign.profiles)
        missing = [t for t in tests if t.test_id not in profiles]
        if missing and self.parallelism is None:
            raise _Missing(len(missing))
        if missing:
            mission, config = campaign.mission, campaign.config
            if self._pool is None and self.parallelism > 1 and len(missing) >= 2:
                self._pool = open_pool(mission, config, self.parallelism)
            flown = run_campaign(missing, mission, config, self.parallelism, pool=self._pool)
            for test, profile in zip(missing, flown):
                save_result(campaign.root, test, profile)
                campaign.verdicts[test.test_id] = classify(test, profile, campaign.tree)
                profiles[test.test_id] = profile
        return [(t, profiles[t.test_id], campaign.verdicts[t.test_id]) for t in tests]

    def __enter__(self) -> "_Runner":
        trim_results(self.campaign.root)
        return self

    def __exit__(self, *exc) -> None:
        if self._pool is not None:
            self._pool.terminate()
            self._pool.join()
            self._pool = None


def _cluster(
    campaign: Campaign, pairs: list, seed: int, k_max=None, restarts=None
) -> Optional[dict]:
    """The clustering stage of `run` and `analyze`: clusters the failures
    among pairs, (test, verdict), into analysis.json and returns its
    document; with no failure, removes analysis.json, since a clustering of
    other verdicts must not outlive them, and returns None. restarts None
    stands for analysis.DEFAULT_RESTARTS."""
    from . import analysis as analysis_mod

    if restarts is None:
        restarts = analysis_mod.DEFAULT_RESTARTS
    try:
        result = analysis_mod.analyze_failures(
            pairs, campaign.spec, seed=seed, k_max=k_max, restarts=restarts
        )
    except EmptyFailureSet:
        (campaign.root / "analysis.json").unlink(missing_ok=True)
        return None
    doc = result.to_dict()
    save_analysis(campaign.root, doc)
    print(f"clustered {len(result.encoded.test_ids)} failures into K={result.k}")
    for rep in result.representatives:
        print(f"  cluster {rep.cluster}: closest={rep.closest} farthest={rep.farthest}")
    return doc


def _derive(runner: _Runner, check_seed: Optional[int]) -> Optional[Derived]:
    """The tables, trees and checks of the runner's campaign, derived from
    the cases its entries hold and their results through the runner (None
    when nothing is focused); writes no file and prints nothing to stdout.

    Each sweep campaign.focused names is tabled, in its order, from its
    entry's tests; a sweep with no valid run gets no table. The combined
    tree merges the tables' cut sets in sorted tag order. Each combined cut
    set with the literals of a check in campaign.soundness is checked again
    with that check's trials, so it keeps its tag; for any other, a check
    at check_seed is expanded and flown, unless check_seed is None. A sweep
    or check that the runner lacks results for is left out, and named in
    Derived.incomplete. campaign.sweeps and campaign.soundness end holding
    the focused sweeps and the combined tree's checks.
    """
    campaign = runner.campaign
    if not campaign.focused:
        return None
    campaign.sweeps = {tag: campaign.sweeps[tag] for tag in campaign.focused.values()}
    tables, incomplete = {}, []
    for tag, entry in campaign.sweeps.items():
        base = TestCase.from_dict(entry.recipe["base"])
        try:
            table = build_truth_table(base, entry.recipe["axes"], entry.tests, runner)
        except InvalidOnly as exc:
            print(f"  {base.test_id}: {exc}", file=sys.stderr)
            continue
        except _Missing as exc:
            incomplete.append((f"sweep {tag}", exc.args[0]))
            continue
        cut_sets = cut_sets_for_table(table, source=f"truthtable:{tag}")
        reason = _dominant_reason(campaign.verdicts[t.test_id] for t in entry.tests)
        tables[tag] = table, build_fault_tree(f"{reason} in {table.scope}", cut_sets)
    tables = dict(sorted(tables.items()))
    combined = build_fault_tree(
        "state-dependent failures (combined)",
        merge_cut_sets([tree.cut_sets for _table, tree in tables.values()]),
    )

    stored = {tuple(map(tuple, e.recipe["literals"])): (tag, e)
              for tag, e in campaign.soundness.items()}
    campaign.soundness = {}
    checks = []
    for cs in combined.cut_sets:
        tag, entry = stored.get(cs.literals, (None, None))
        if entry is None and check_seed is None:
            continue
        if entry is None:
            tag, entry = expand(campaign, "soundness",
                                check_recipe(cs.literals, check_seed, SOUNDNESS_TRIALS))
        campaign.soundness[tag] = entry
        try:
            checks.append(soundness_check(cs, tag, entry.tests, runner))
        except _Missing as exc:
            incomplete.append((f"soundness check {tag}", exc.args[0]))
    return Derived(tables, combined, tuple(checks), tuple(incomplete))


def _focus(runner: _Runner, keys: Sequence[tuple], seed: int,
           soundness: Optional[bool]) -> Derived:
    """The focus stage of `run` and `focus`: records the sweep tag of each
    key, (base, axes, runs per cell, seed), in campaign.focused (a new tag
    takes the first such key as its recipe), derives through the runner,
    so only the tests without a result fly, and writes what it derived.
    Cut sets without a stored check are checked at seed when soundness is
    on or, when it is None, when a key adds a sweep."""
    campaign = runner.campaign
    root = campaign.root
    added = False
    for base, axes, runs_per_cell, sweep_seed in keys:
        tag = sweep_tag(base, axes, runs_per_cell, sweep_seed)
        campaign.focused[base.test_id] = tag
        if tag not in campaign.sweeps:
            added = True
            _, campaign.sweeps[tag] = expand(campaign, "sweeps",
                                             sweep_recipe(base, axes, runs_per_cell, sweep_seed))
        print(f"focused re-fuzz around {base.test_id} "
              f"(state {base.app_state.value}, axes {', '.join(axes)}, sweep {tag})")

    check = added if soundness is None else soundness
    derived = _derive(runner, seed if check else None)
    for tag, (table, tree) in derived.tables.items():
        save_truth_table(root, tag, table.to_dict())
        save_fault_tree(root, tag, tree.to_dict(), tree.to_dot())
        for cs in tree.cut_sets:
            print(f"  cut set: {{ {cs} }}")
    save_fault_tree(root, "combined", derived.combined.to_dict(), derived.combined.to_dot())
    for result in derived.checks:
        status = "sound" if result.sound else "NOT SOUND"
        print(f"soundness: {status} {list(result.verdicts)} for {{ {result.cut_set} }}")
    if derived.checks:
        save_soundness(root, [result.to_dict() for result in derived.checks])
    else:
        (root / "soundness.json").unlink(missing_ok=True)
    return derived


def _claim_out(root: Path) -> None:
    """Make root ready for a new campaign.

    A missing or empty directory is used as it is. In a campaign directory
    of any layout (nothing here loads it) the earlier run's results log,
    every other top-level JSON file (an earlier layout's per-test results
    among them), its truth tables and fault trees, and the
    .<name>.<pid>.tmp files a killed writer left behind are removed, so none
    of them survives the new run; campaign.json stays until the new run
    replaces it with a running manifest. Any other path is refused.
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
        (root / RESULTS).unlink(missing_ok=True)
    root.mkdir(parents=True, exist_ok=True)


def _write_report(campaign: Campaign, analysis: Optional[dict],
                  derived: Optional[Derived]) -> str:
    """Render report.txt from campaign, analysis.json's document (or None)
    and what _derive gave for it."""
    text = render_report(campaign, analysis, derived)
    save_report(campaign.root, text)
    return text


def _refuse_drift(campaign: Campaign) -> None:
    """Refuse a campaign whose main tests, judged on load, count other
    verdicts than campaign.json recorded when they flew; one that lacks a
    main test's result is not compared."""
    judged = Counter(v.verdict for _t, _p, v in campaign.results())
    if judged.total() == len(campaign.tests) and judged != Counter(campaign.verdict_counts):
        raise VerdictDrift(
            f"campaign.json records the main verdicts {_summary(campaign.verdict_counts)}, "
            f"but its stored profiles judge as {_summary(judged)} under its oracle tree: the "
            "oracle code has changed since the campaign was stored, or the campaign was "
            "edited"
        )


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

    generator = GeneratorConfig(repetitions_per_combination=args.repetitions,
                                master_seed=args.seed)
    t0 = time.monotonic()
    root = Path(args.out)
    campaign = Campaign(root, spec, mission, config, generator, args.oracle,
                        default_tree(args.oracle))
    # generated before --out is claimed, so a spec that admits no test for
    # this mission, or too many, leaves a stored campaign as it was
    _, campaign.main = expand(campaign, "main", {})
    tests = campaign.tests
    _claim_out(root)
    save_campaign_meta(campaign, args.parallelism, 0.0, "running")
    print(f"generated {len(tests)} tests "
          f"({len(tests) // args.repetitions} combinations x {args.repetitions} repetitions)")

    with _Runner(campaign, args.parallelism) as runner:
        pairs = [(t, v) for t, _p, v in runner(tests)]
        campaign.verdict_counts = Counter(v.verdict for _t, v in pairs)
        print(f"executed {len(tests)} tests: {_summary(campaign.verdict_counts)}")
        analysis = _cluster(campaign, pairs, args.seed)
        derived = None
        if analysis:
            axes = _default_axes(spec)
            keys = [(base, axes, args.runs_per_cell, args.seed)
                    for base in _find_tests(campaign, _representative_ids(analysis))]
            derived = _focus(runner, keys, args.seed, args.soundness)
        else:
            print("no failures: skipping clustering, truth tables and fault trees")

    wall = time.monotonic() - t0
    save_tests(campaign)
    save_coverage(root, coverage.to_dict())
    _write_report(campaign, analysis, derived)
    save_campaign_meta(campaign, args.parallelism, wall, "complete")
    print(f"campaign stored in {root} ({wall:.1f}s)")
    return 0


def cmd_analyze(args) -> int:
    campaign = load_campaign(Path(args.campaign))
    _refuse_drift(campaign)
    pairs = [(t, v) for t, _p, v in campaign.results()]
    if args.oracle:
        # judge the stored profiles again under another oracle version,
        # without executing anything; campaign.json keeps the tree that
        # load_campaign judges them under
        tree = default_tree(args.oracle)
        pairs = [(t, classify(t, campaign.profiles[t.test_id], tree)) for t, _v in pairs]
        counts = Counter(v.verdict for _t, v in pairs)
        print(f"re-judged {len(pairs)} stored profiles under oracle {args.oracle}: "
              f"{_summary(counts)}")
    seed = args.seed if args.seed is not None else campaign.master_seed
    analysis = _cluster(campaign, pairs, seed, args.kmax, args.restarts)
    if not analysis:
        print("no failures in this campaign; nothing to cluster, no analysis.json")
    # the report shows this clustering, beside the verdicts under the
    # campaign's own tree
    _write_report(campaign, analysis, _derive(_Runner(campaign), None))
    return 0


def cmd_focus(args) -> int:
    """Re-fuzz the given tests (by default the stored representatives).

    Every id is resolved before anything flies, so an unknown id leaves the
    campaign as it was. A test tests.json already focuses keeps its sweep's
    axes, runs per cell and seed, and any other takes the defaults; an
    option given on the command line wins over both. Without --soundness or
    --no-soundness, new cut sets are checked only when a sweep is added. So
    a plain focus keeps every stored sweep, its tag and its checks.

    The focus stage tables every sweep tests.json and the given tests name,
    flying only the tests without a stored result, rebuilds the combined
    tree from those tables and keeps one check per combined cut set in
    soundness.json: a stored check of an unchanged cut set is kept across
    focus, with its seed, even under another --seed. tests.json and
    report.txt are then rewritten. A campaign whose stored profiles judge
    otherwise than campaign.json records is refused.
    """
    campaign = load_campaign(Path(args.campaign))
    _refuse_drift(campaign)
    analysis = load_analysis(campaign.root)
    # a repeated id is focused once
    rep_ids = list(dict.fromkeys(args.test_id)) or (
        _representative_ids(analysis) if analysis else None)
    if rep_ids is None:
        print("analysis.json is missing: run `statefuzz analyze` first. A campaign "
              "without failures has no representatives; --test-id names tests directly.",
              file=sys.stderr)
        return 2
    bases = _find_tests(campaign, rep_ids)
    seed = args.seed if args.seed is not None else campaign.master_seed
    default = {"axes": _default_axes(campaign.spec), "runs_per_cell": DEFAULT_FOCUS_REPETITIONS,
               "seed": campaign.master_seed}
    given = {"axes": args.axes.split(",") if args.axes else None,
             "runs_per_cell": args.runs_per_cell, "seed": args.seed}
    given = {key: value for key, value in given.items() if value is not None}
    keys = []
    for base in bases:
        tag = campaign.focused.get(base.test_id)
        key = {**default, **(campaign.sweeps[tag].recipe if tag else {}), **given}
        keys.append((base, key["axes"], key["runs_per_cell"], key["seed"]))
    with _Runner(campaign, args.parallelism) as runner:
        derived = _focus(runner, keys, seed, args.soundness)
    save_tests(campaign)
    _write_report(campaign, analysis, derived)
    written = [i for i in rep_ids if campaign.focused[i] in derived.tables]
    print(f"fault trees written for: {', '.join(written) or 'none'} (+combined)")
    return 0


def cmd_report(args) -> int:
    campaign = load_campaign(Path(args.campaign))
    _refuse_drift(campaign)
    analysis = load_analysis(campaign.root)
    print(_write_report(campaign, analysis, _derive(_Runner(campaign), None)), end="")
    return 0


def cmd_replay(args) -> int:
    campaign = load_campaign(Path(args.campaign))
    (test,) = _find_tests(campaign, [args.test_id])
    fresh, events = Executor(campaign.mission, campaign.config).fly(test)
    verdict = classify(test, fresh, campaign.tree)
    stored = campaign.profiles.get(test.test_id)
    status = 0
    if stored is None:
        print(f"no stored profile for {test.test_id}; fresh execution -> "
              f"{verdict.verdict} ({verdict.reason})")
    elif fresh == stored:
        print(f"replay OK: {test.test_id} -> {verdict.verdict} ({verdict.reason})")
    else:
        status = 1
        print(f"replay MISMATCH for {test.test_id}")
        fresh_d, stored_d = fresh.to_dict(), stored.to_dict()
        differ = [key for key in sorted(fresh_d) if fresh_d[key] != stored_d[key]]
        for key in differ:
            print(f"  {key}: stored={stored_d[key]!r} fresh={fresh_d[key]!r}")
        if differ == ["trace_digest"]:
            print("  only the trace differs: a state or mode changed at another instant, "
                  "and every other field held; replay --events prints the fresh trace")
    if args.events:
        _print_flight(test.test_id, fresh, events)
    return status


def _print_flight(test_id: str, profile, events) -> None:
    """A flight's event log, then its trace, one entry per line."""
    print(f"events of {test_id} (fresh flight): time_ms kind detail")
    for t, kind, detail in events:
        print(f"  {t!r:>18}  {kind:<10} {detail}")
    print(f"trace of {test_id} (fresh flight, trace_digest {profile.trace_digest}): "
          "time_ms app_state mode")
    for t, app, mode in summarize_events(events)["trace"]:
        print(f"  {t!r:>18}  {app:<18} {mode}")


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------


def positive_int(text: str) -> int:
    """The type of --runs-per-cell, --parallelism, --kmax and --restarts: an
    integer of at least 1."""
    if int(text) < 1:
        raise argparse.ArgumentTypeError(f"{text} is not a positive integer")
    return int(text)


def non_negative_int(text: str) -> int:
    """The type of --seed: an integer of at least 0."""
    if int(text) < 0:
        raise argparse.ArgumentTypeError(f"{text} is not a non-negative integer")
    return int(text)


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
    run.set_defaults(fn=cmd_run)

    analyze = sub.add_parser("analyze", help="cluster a stored campaign's failures")
    analyze.add_argument("--campaign", required=True)
    analyze.add_argument("--kmax", type=positive_int, default=None)
    # None stands for analysis.DEFAULT_RESTARTS, which cmd_analyze reads:
    # building the parser must not load numpy
    analyze.add_argument("--restarts", type=positive_int, default=None,
                         help="k-means++ restarts per K (default: 10)")
    analyze.add_argument("--oracle", choices=("v0", "v1"), default=None,
                         help="judge the stored profiles again under this oracle version")
    analyze.add_argument("--seed", type=non_negative_int, default=None)
    analyze.set_defaults(fn=cmd_analyze)

    focus = sub.add_parser("focus", help="re-fuzz representatives into truth tables")
    focus.add_argument("--campaign", required=True)
    focus.add_argument("--test-id", action="append", default=[],
                       help="focus on this test instead of the stored representatives")
    focus.add_argument("--axes", help=f"comma-separated axes to sweep, of {', '.join(AXES)} "
                       "(default: a focused test's stored axes, else action, delay_band and "
                       "each environment axis the spec gives more than one level)")
    focus.set_defaults(fn=cmd_focus)

    for command in (run, focus):
        # None: a focused test keeps its stored sweep's, any other the default
        command.add_argument("--runs-per-cell", type=positive_int,
                             default=DEFAULT_FOCUS_REPETITIONS if command is run else None,
                             help="repetitions per cell in focused re-fuzzing (default: "
                             f"{DEFAULT_FOCUS_REPETITIONS}; focus keeps a focused test's)")
        command.add_argument("--parallelism", type=positive_int, default=1)
        command.add_argument("--soundness", action=argparse.BooleanOptionalAction,
                             default=True if command is run else None,
                             help="check each new combined cut set (focus: by default, "
                             "only when it adds a sweep)")
        # focus and analyze default to the campaign's master seed (focus to
        # a focused test's stored sweep's)
        command.add_argument("--seed", type=non_negative_int, default=0 if command is run else None)

    report = sub.add_parser("report", help="render report.txt for a campaign")
    report.add_argument("--campaign", required=True)
    report.set_defaults(fn=cmd_report)

    replay = sub.add_parser("replay", help="re-execute one stored test")
    replay.add_argument("--campaign", required=True)
    replay.add_argument("--test-id", required=True)
    replay.add_argument("--events", action="store_true",
                        help="also print the fresh flight's event log and trace")
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
