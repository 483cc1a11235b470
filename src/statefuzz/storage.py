"""Campaign persistence: canonical JSON files and one results log under one
directory.

Layout of a campaign directory:

    campaign.json            run metadata (the only file with wall-clock data);
                             "layout" is LAYOUT; "status" is "running" from
                             the run's first write until its last one sets
                             "complete"
    coverage.json            mission coverage check
    tests.json               the recipe of every generated test: "main" for
                             the main tests, "sweeps" each focus sweep's by
                             its tag, "focused" each representative's tag,
                             "soundness" each soundness check's trials by
                             its tag; each recipe with the sha256 of the
                             cases it gave
    results.jsonl            one line per flown test, in flight order: the
                             compact JSON array of its profile's fields in
                             declaration order (executor.PROFILE_FIELDS),
                             its test id first (t*, f-<tag>-NNNN and
                             s-<tag>-<i>) and its trace_digest last, 16 hex
                             digits in place of the trace; LAYOUT stands for
                             that order, so no line or file names a field
    analysis.json            clustering output
    truthtables/<tag>.json   one table per focus sweep, plus .csv
    faulttrees/<tag>.json    one tree per focus sweep, plus .dot, plus combined
                             (its cut sets merged in sorted tag order)
    soundness.json           cut-set re-execution results: one check per
                             combined cut set, kept across focus, each with
                             the tag that names its trials
    report.txt               human-readable digest

A command reads four files, its inputs: campaign.json, tests.json, the
results log and analysis.json. The truth tables, fault trees,
soundness.json and report.txt are written and never read: a command that
writes one derives it again from tests.json and the results log.

All JSON files are written canonically (sorted keys, two-space indent,
trailing newline) and the log's lines in test order, so re-running a
campaign with the same seed reproduces every file byte for byte, at any
parallelism; campaign.json is the lone exception because it records when
and how long the run was. Every file is replaced whole, so a killed
process leaves the old version or the new one, never a truncated file.
The results log is the exception to that rule: save_result appends to it,
so a killed writer can leave a last line without its newline.
Readers skip such a torn line, a command cuts it off before it appends
(trim_results), and save_tests rewrites the log whole when it holds a line
that tests.json does not name, or names twice. The last whole line of an
id wins, so a test flown again (one whose line was torn or deleted, say)
keeps its new flight. A test's case is not in the
log: load_campaign regenerates it from its recipe in tests.json. Nor is
its verdict: load_campaign judges each stored profile under the tree that
oracle.default_tree builds for campaign.json's "oracle_version", so a
verdict is what today's oracle code says; the main ones as judged in
flight are counted in campaign.json's "verdict_counts".

tests.json stores no case, only what regenerates the cases:
    main                     {"sha256"}: generate(spec, generator, mission
                             id) over the spec, generator settings and
                             mission of campaign.json
    sweeps/<tag>             {"base", "axes", "runs_per_cell", "seed",
                             "sha256"}: focused_generate over the base's full
                             case (see testgen.sweep_tag for the tag)
    soundness/<tag>          {"literals", "seed", "trials", "sha256"}:
                             cutset.soundness_trials over the cut set's
                             [column, value] pairs
expand turns a recipe into its cases, once per entry and command: when
load_campaign reads it, or when `run` or `focus` adds it. Every Entry holds
its cases from then on, and the tables and checks are made of them. A
recipe that asks for more than MAX_CASES cases is refused before anything
is generated. load_campaign compares the sha256 of the cases (see
cases_digest), and a sweep's or check's tag with the one its recipe gives.
On a mismatch it raises RecipeMismatch naming the entry, before any
command writes a file: the stored results would be paired with other tests.

load_campaign refuses a campaign whose status is "running", since its
other files may belong to an earlier run. It also refuses (LayoutMismatch)
a manifest without LAYOUT as its layout, and a complete campaign without
tests.json; the error names the `run` over the inputs and seed in
campaign.json that stores the campaign again, byte for byte.

Everything needed to regenerate and judge a test deterministically (spec,
mission, config, oracle version, and the generator settings, the master
seed among them) is embedded in campaign.json once, so a replay works even
after its result was deleted.

A focus sweep is named by the tag of its key (see testgen.sweep_tag), and
its tests are f-<tag>-NNNN. Representatives with one key share one sweep,
stored once in tests.json, flown once and tabled once, under its tag. A
test is flown only when it has no result: a later focus tables a stored
sweep from its stored results, and flies only those that are missing.

A soundness check is named by the tag of its cut set's literals and the
master seed (see cutset.soundness_trials), and its trials s-<tag>-<i> are
stored like any other test, so replay finds them.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os
import time
from collections import Counter
from dataclasses import asdict, dataclass, field
from itertools import chain
from operator import attrgetter
from pathlib import Path
from typing import Optional

from .cutset import Derived, TruthTable, soundness_trials
from .errors import (
    AnalysisMismatch,
    CampaignRunning,
    ConfigError,
    LayoutMismatch,
    RecipeMismatch,
    UnknownAxis,
    naming,
)
from .executor import PROFILE_FIELDS, ExecutionProfile
from .fuzzspec import FuzzSpecification, MissionPlan, parse_fuzz_spec, parse_mission
from .oracle import Node, Verdict, classify, default_tree
from .sutmodel import SutConfig
from .testgen import (
    AXES,
    GeneratorConfig,
    TestCase,
    axis_levels,
    focused_generate,
    generate,
    sweep_tag,
)

#: the layout of the campaign directories this code writes and reads,
#: recorded in campaign.json; a change to the shape of a stored file raises
#: it. Layout 5 stores a result line as its profile's PROFILE_FIELDS values,
#: the trace as its trace_digest, and the oracle as its oracle_version alone.
LAYOUT = 5
#: the most cases one entry of tests.json may hold: expand refuses a recipe
#: that asks for more before it generates anything
MAX_CASES = 100_000
#: the results log of a campaign directory
RESULTS = "results.jsonl"
#: where a log line's test id starts: test_id is a row's first value
_ID_AT = 1
#: a profile's row: its field values in PROFILE_FIELDS order
_row = attrgetter(*PROFILE_FIELDS)
_DECODER = json.JSONDecoder()
#: what cases_digest hashes: every field of a test case, enums by value
_COLUMNS = tuple(
    attrgetter(f"{name}.value" if name in ("app_state", "target_mode") else name)
    for name in TestCase.__dataclass_fields__
)


def canonical_dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def write_text(path: Path, text: str) -> None:
    """Replace path with text in one step.

    The text goes to a temp file next to path, which os.replace then moves
    over it. There is no fsync: this guards against a killed process, not
    against a power loss.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(text, encoding="utf-8")
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_json(path: Path, obj) -> None:
    write_text(path, canonical_dumps(obj))


def read_json(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


@dataclass(frozen=True)
class Entry:
    """One entry of tests.json: its cases, in order, and the recipe they
    regenerate from (the JSON inputs, without the sha256)."""

    tests: list[TestCase]
    recipe: dict


def sweep_recipe(base: TestCase, axes, runs_per_cell: int, seed: int) -> dict:
    """The recipe of a focus sweep, whose tests are focused_generate(base,
    axes, runs_per_cell, spec, seed)."""
    return {"base": base.to_dict(), "axes": list(axes), "runs_per_cell": runs_per_cell,
            "seed": seed}


def check_recipe(literals, seed: int, trials: int) -> dict:
    """The recipe of a soundness check, whose trials are
    cutset.soundness_trials(literals, spec, mission id, config, seed,
    trials)."""
    return {"literals": [list(lit) for lit in literals], "seed": seed, "trials": trials}


@dataclass
class Campaign:
    """A campaign directory in memory: built by `run` as it stores it, and
    pulled back by load_campaign."""

    root: Path
    spec: FuzzSpecification
    mission: MissionPlan
    config: SutConfig
    generator: GeneratorConfig
    oracle_version: str
    #: default_tree(oracle_version): every stored profile is judged under it
    tree: Node
    #: the main tests, in order, and their recipe
    main: Entry = field(default_factory=lambda: Entry([], {}))
    #: representative id -> the tag of its focus sweep
    focused: dict[str, str] = field(default_factory=dict)
    #: sweep tag -> the sweep's tests, in order, and their recipe
    sweeps: dict[str, Entry] = field(default_factory=dict)
    #: soundness check tag -> the check's trials, in order, and their recipe
    soundness: dict[str, Entry] = field(default_factory=dict)
    #: the main verdict counts campaign.json recorded when they flew
    verdict_counts: dict[str, int] = field(default_factory=dict)
    profiles: dict[str, ExecutionProfile] = field(default_factory=dict)
    #: each stored profile's verdict under tree, judged in
    #: flight or on load
    verdicts: dict[str, Verdict] = field(default_factory=dict)

    @property
    def master_seed(self) -> int:
        return self.generator.master_seed

    @property
    def tests(self) -> list[TestCase]:
        """The main tests."""
        return self.main.tests

    def results(self):
        """(test, profile, verdict) triples of the main tests that have a result."""
        return [
            (t, self.profiles[t.test_id], self.verdicts[t.test_id])
            for t in self.tests
            if t.test_id in self.profiles
        ]

    def every_test(self):
        """Main tests, then each sweep's, then each soundness check's trials."""
        entries = chain([self.main], self.sweeps.values(), self.soundness.values())
        return chain.from_iterable(e.tests for e in entries)

    def find_test(self, test_id: str) -> Optional[TestCase]:
        return next((t for t in self.every_test() if t.test_id == test_id), None)


def save_campaign_meta(
    campaign: Campaign, parallelism: int, wall_time_s: float, status: str
) -> None:
    """Write campaign.json: what regenerates and judges campaign's tests,
    its main verdict counts, and how and how long it ran; status is
    "running" or "complete"."""
    write_json(
        campaign.root / "campaign.json",
        {
            "layout": LAYOUT,
            "spec": campaign.spec.to_dict(),
            "spec_id": campaign.spec.spec_id,
            "mission": campaign.mission.to_dict(),
            "config": campaign.config.to_dict(),
            "generator": asdict(campaign.generator),
            "oracle_version": campaign.oracle_version,
            "parallelism": parallelism,
            "verdict_counts": campaign.verdict_counts,
            "status": status,
            "created_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
            "wall_time_s": round(wall_time_s, 3),
        },
    )


def save_coverage(root: Path, coverage_dict: dict) -> None:
    write_json(root / "coverage.json", coverage_dict)


def cases_digest(tests) -> str:
    """sha256 over every field of tests, one field at a time: the repr of
    the field's values in test order, enums by value. Cheaper than hashing
    their JSON, and as exact: a float's repr round-trips."""
    digest = hashlib.sha256()
    for column in _COLUMNS:
        digest.update(repr(list(map(column, tests))).encode())
    return digest.hexdigest()


def _stored(entry: Entry) -> dict:
    """An entry as tests.json stores it: its recipe and the sha256 of its
    cases."""
    return {**entry.recipe, "sha256": cases_digest(entry.tests)}


def save_tests(campaign: Campaign) -> None:
    """Write campaign's tests.json, then keep only what it names: one line
    per named test in the results log, and the truth tables and fault trees
    of the sweeps it names (the combined tree stays).

    campaign.focused maps each representative to its sweep's tag; only the
    sweeps it names are written, and only their tables and trees kept.
    campaign.soundness maps each check in soundness.json to its trials.
    """
    root = campaign.root
    kept = {tag: campaign.sweeps[tag] for tag in campaign.focused.values()}
    write_json(
        root / "tests.json",
        {
            "main": _stored(campaign.main),
            "focused": campaign.focused,
            "sweeps": {tag: _stored(e) for tag, e in kept.items()},
            "soundness": {tag: _stored(e) for tag, e in campaign.soundness.items()},
        },
    )
    entries = chain([campaign.main], kept.values(), campaign.soundness.values())
    _keep_results(root, dict.fromkeys(t.test_id for e in entries for t in e.tests))
    tables = set(kept) | {"combined"}
    for path in chain(root.glob("truthtables/*"), root.glob("faulttrees/*")):
        if path.stem not in tables:
            path.unlink()


def _log(root: Path):
    """Yield (test id, line) for each line of the results log, read one line
    at a time; the id is None for a torn line (one without its newline)."""
    path = root / RESULTS
    if path.exists():
        with path.open(encoding="utf-8") as log:
            for line in log:
                torn = not line.endswith("\n")
                yield None if torn else _DECODER.raw_decode(line, _ID_AT)[0], line


def _keep_results(root: Path, listed: dict) -> None:
    """Leave one result line per listed test id in the log: the last whole
    line of the id, where its first line stood.

    A log whose every line is whole, listed and the only one of its id is
    left as it is, read one line at a time; only a rewrite holds the kept
    lines in memory.
    """
    seen = set()
    for test_id, _line in _log(root):
        if test_id not in listed or test_id in seen:
            break
        seen.add(test_id)
    else:
        return
    kept = {test_id: line for test_id, line in _log(root) if test_id in listed}
    write_text(root / RESULTS, "".join(kept.values()))


def save_result(root: Path, test: TestCase, profile: ExecutionProfile) -> None:
    """Append test's flight to the results log as one line: the row of
    profile, whose test_id is test's; its verdict is judged on load."""
    with open(root / RESULTS, "a", encoding="utf-8") as log:
        log.write(json.dumps(_row(profile), separators=(",", ":")) + "\n")


def trim_results(root: Path) -> None:
    """Cut a torn last line off the results log, so that the next line
    appended starts a line of its own."""
    path = root / RESULTS
    if not path.exists():
        return
    with path.open("rb+") as log:
        size = log.seek(0, os.SEEK_END)
        if size == 0:
            return
        log.seek(size - 1)
        if log.read(1) != b"\n":
            log.seek(0)
            log.truncate(log.read().rfind(b"\n") + 1)


def iter_results(root: Path):
    """Yield (test id, row) for each whole line of the results log, in
    order, read one line at a time; row is the line's array, the profile's
    fields in PROFILE_FIELDS order as JSON gives them back (see
    ExecutionProfile.from_row). An id may come more than once: its last
    row is the one that stands."""
    for test_id, line in _log(root):
        if test_id is not None:
            yield test_id, json.loads(line)


def save_analysis(root: Path, doc: dict) -> None:
    """Write analysis.json: doc is an analysis.AnalysisResult's to_dict()."""
    write_json(root / "analysis.json", doc)


#: the check of each field of analysis.json that focus or report reads
_ANALYSIS_FIELDS = {
    "n_failures": lambda n: isinstance(n, int),
    "k": lambda k: isinstance(k, int),
    "wcss_curve": lambda curve: all(isinstance(k, int) and isinstance(w, (int, float))
                                    for k, w in curve),
    "representatives": lambda reps: all(isinstance(rep["cluster"], int)
                                        and isinstance(rep["closest"], str)
                                        and isinstance(rep["farthest"], str) for rep in reps),
}


def load_analysis(root: Path) -> Optional[dict]:
    """The analysis.json of the campaign in root, or None without one;
    refuses (AnalysisMismatch) one whose field that focus or report reads
    is not as analyze writes it, so a command that reads it first changes
    no file."""
    path = root / "analysis.json"
    if not path.exists():
        return None
    doc = read_json(path)
    for key, fits in _ANALYSIS_FIELDS.items():
        try:
            ok = fits(doc[key])
        except (KeyError, TypeError, ValueError):
            ok = False
        if not ok:
            raise AnalysisMismatch(
                f"{path}: {key} is missing or not as analyze writes it; run `statefuzz "
                f"analyze --campaign {root}` to cluster the failures again"
            )
    return doc


def table_csv(table_dict: dict) -> str:
    axes = list(table_dict["axes"])
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(
        axes + ["mode_at_injection", "runs", "valid", "failures", "failure_rate", "split", "residual"]
    )
    for row in table_dict["rows"]:
        writer.writerow(
            [row["values"][a] for a in axes]
            + [
                row["observed_mode"],
                row["runs"],
                row["valid"],
                row["failures"],
                f"{row['failure_rate']:.4f}",
                int(row["split"]),
                int(row["residual"]),
            ]
        )
    return buf.getvalue()


def save_truth_table(root: Path, key: str, table_dict: dict) -> None:
    write_json(root / "truthtables" / f"{key}.json", table_dict)
    write_text(root / "truthtables" / f"{key}.csv", table_csv(table_dict))


def save_fault_tree(root: Path, key: str, tree_dict: dict, dot: str) -> None:
    write_json(root / "faulttrees" / f"{key}.json", tree_dict)
    write_text(root / "faulttrees" / f"{key}.dot", dot)


def save_soundness(root: Path, results: list[dict]) -> None:
    write_json(root / "soundness.json", results)


def save_report(root: Path, text: str) -> None:
    write_text(root / "report.txt", text)


#: the Python type of each field of campaign.json that load_campaign reads
#: before parsing the spec, mission and config
_MANIFEST_FIELDS = {"status": str, "verdict_counts": dict, "generator": dict, "spec_id": str}


def load_campaign(root: Path) -> Campaign:
    """The campaign stored in root, each stored profile judged under its
    oracle; the last whole result line of an id is the one that stands.

    Refuses a campaign.json that is not an object or lacks a field it
    reads, one of another layout, one whose generator block holds an
    unknown key, or a complete one without tests.json (LayoutMismatch),
    one still running (CampaignRunning), one whose spec, mission or config
    is missing or malformed (the parser's error, naming campaign.json), one
    of an unknown oracle_version (MalformedTree), and one whose tests.json
    is not shaped as save_tests writes it, holds a recipe that asks for
    more than MAX_CASES cases or does not give back its cases, or a
    representative whose sweep it does not store (RecipeMismatch). Each
    recipe is expanded once, by expand, and its entry holds its cases.
    """
    path = root / "campaign.json"
    meta = read_json(path)
    if not isinstance(meta, dict):
        raise LayoutMismatch(f"{path}: it is not an object, so the campaign's inputs are "
                             "lost; run the campaign again")
    gen_raw = meta.get("generator")
    gen_raw = gen_raw if isinstance(gen_raw, dict) else {}
    spec_file = f"{meta.get('spec_id')}.json"
    regenerate = (
        f'regenerate it: save the "spec", "mission" and "config" of its campaign.json as '
        f"{spec_file}, mission.json and config.json, then run `statefuzz run --spec {spec_file} "
        f"--mission mission.json --config config.json --seed {gen_raw.get('master_seed')} "
        f"--repetitions {gen_raw.get('repetitions_per_combination')} --oracle "
        f"{meta.get('oracle_version')} --out {root}` with the --runs-per-cell and --soundness "
        "it ran with"
    )
    if meta.get("layout") != LAYOUT:
        raise LayoutMismatch(
            f"campaign {root} has layout {meta.get('layout', 'none')}, but this code reads "
            f"layout {LAYOUT}; {regenerate}"
        )
    for key, kind in _MANIFEST_FIELDS.items():
        if not isinstance(meta.get(key), kind):
            kind = "string" if kind is str else "object"
            raise LayoutMismatch(f"{path}: {key} is missing or not a JSON {kind}; {regenerate}")
    if meta["status"] != "complete":
        raise CampaignRunning(
            f"campaign {root} is {meta['status']}: the run writing it has not finished, "
            "so its files may belong to an earlier run; run it again"
        )
    tests_path = root / "tests.json"
    if not tests_path.exists():
        raise LayoutMismatch(
            f"campaign {root} holds no tests.json, so its stored results cannot be "
            f"matched to their tests; {regenerate}"
        )
    try:
        with naming(path):
            generator = GeneratorConfig(**gen_raw)
    except TypeError as exc:
        raise LayoutMismatch(f"campaign {root} has a generator block this code does not read "
                             f"({exc}); {regenerate}") from None
    with naming(path):
        spec = parse_fuzz_spec(meta.get("spec"), spec_id=meta["spec_id"])
        mission = parse_mission(meta.get("mission"))
        config = SutConfig.from_dict(meta.get("config"))
        tree = default_tree(meta.get("oracle_version"))
    campaign = Campaign(root, spec, mission, config, generator, meta["oracle_version"], tree,
                        verdict_counts=meta["verdict_counts"])
    doc = read_json(tests_path)
    if not isinstance(doc, dict):
        raise _mismatch("tests.json", "it is not an object")
    for key in ("main", "focused", "sweeps", "soundness"):
        if not isinstance(doc.get(key), dict):
            raise _mismatch(f"tests.json {key}", "it is missing or not an object")
    campaign.main = _regenerated(campaign, "main", None, doc["main"])
    campaign.sweeps, campaign.soundness = (
        {tag: _regenerated(campaign, kind, tag, raw) for tag, raw in doc[kind].items()}
        for kind in ("sweeps", "soundness")
    )
    campaign.focused = doc["focused"]
    for rep, tag in campaign.focused.items():
        if not isinstance(tag, str) or tag not in campaign.sweeps:
            raise _mismatch(f"tests.json focused {rep}", f"it names sweep {tag}, which "
                            "tests.json does not store")
    tests = {t.test_id: t for t in campaign.every_test()}
    for test_id, row in iter_results(root):
        if test_id in tests:
            profile = ExecutionProfile.from_row(row)
            campaign.profiles[test_id] = profile
            campaign.verdicts[test_id] = classify(tests[test_id], profile, campaign.tree)
    return campaign


def _mismatch(where: str, problem: str) -> RecipeMismatch:
    """The RecipeMismatch for the entry of tests.json named where."""
    return RecipeMismatch(
        f"{where}: {problem}; the code that generates tests has changed since the "
        "campaign was stored, or the campaign was edited, so its stored results "
        "cannot be matched to their tests"
    )


def _regenerated(campaign: Campaign, kind: str, tag: Optional[str], raw: dict) -> Entry:
    """The entry tests.json stores as raw, a recipe of the given kind,
    expanded under campaign's spec, mission and config; raises
    RecipeMismatch when the recipe is malformed or too large, or gives
    another tag than the one it is stored under, or cases of another
    sha256."""
    def refuse(problem: str) -> RecipeMismatch:
        return _mismatch(f"tests.json {kind}" + (f" {tag}" if tag else ""), problem)

    try:
        named, entry = expand(campaign, kind, {k: v for k, v in raw.items() if k != "sha256"})
        if named != tag:
            raise refuse("its recipe gives another tag")
        if cases_digest(entry.tests) != raw["sha256"]:
            raise refuse("the cases regenerated from its recipe have another sha256")
    except (ConfigError, UnknownAxis) as exc:
        raise refuse(str(exc)) from None
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise refuse(f"its recipe is malformed ({type(exc).__name__}: {exc})") from None
    return entry


def expand(campaign: Campaign, kind: str, recipe: dict) -> tuple[Optional[str], Entry]:
    """The tag and the entry of a recipe of the given kind ("main", "sweeps"
    or "soundness") under campaign's spec, mission and config: the one step
    that turns a recipe into cases, taken once per entry and command, when
    load_campaign reads it or when run or focus adds it.

    The main tests have no tag; a check whose literals cannot be realized
    has no trials. A recipe whose cells times its count (repetitions, runs
    per cell or trials) exceed MAX_CASES raises ConfigError before anything
    is generated.
    """
    spec = campaign.spec
    if kind == "main":
        tag, axes, count = None, AXES, campaign.generator.repetitions_per_combination
    elif kind == "sweeps":
        key = (TestCase.from_dict(recipe["base"]), recipe["axes"], recipe["runs_per_cell"])
        tag, axes, count = sweep_tag(*key, recipe["seed"]), recipe["axes"], recipe["runs_per_cell"]
    else:
        tag, axes, count = None, (), recipe["trials"]
    cells = math.prod(len(axis_levels(spec, axis)) for axis in axes)
    if cells * count > MAX_CASES:
        raise ConfigError(f"{cells} cell(s) x {count} give {cells * count} cases, more than "
                          f"the {MAX_CASES} one entry may hold")
    if kind == "main":
        tests = generate(spec, campaign.generator, campaign.mission.id)
    elif kind == "sweeps":
        tests = focused_generate(*key, spec, recipe["seed"])
    else:
        literals = tuple(tuple(lit) for lit in recipe["literals"])
        tag, tests = soundness_trials(literals, spec, campaign.mission.id, campaign.config,
                                      recipe["seed"], count)
    return tag, Entry(tests or [], recipe)


# ---------------------------------------------------------------------------
# report rendering
# ---------------------------------------------------------------------------


def _format_table(table: TruthTable) -> str:
    axes = list(table.axes)
    headers = axes + ["mode@injection", "runs", "valid", "fail%", "status"]
    rows_out = []
    for row in table.rows:
        rate = row.failure_rate
        status = "MIXED" if row.residual else "FAIL" if rate > 0 else "ok"
        rows_out.append(
            [row.value_of(a) for a in axes]
            + [row.observed_mode, str(row.runs), str(row.valid), f"{rate:.1f}", status]
        )
    widths = [max(map(len, column)) for column in zip(headers, *rows_out)]
    rule = ["-" * w for w in widths]
    lines = ["  ".join(c.ljust(w) for c, w in zip(r, widths)) for r in [headers, rule, *rows_out]]
    if table.unreachable:
        lines.append(f"unreachable cells: {len(table.unreachable)}")
    return "\n".join(lines)


def render_report(campaign: Campaign, analysis: Optional[dict], derived: Optional[Derived]) -> str:
    """Plain-text digest of a finished campaign. Pure function; derived is
    what its sweeps and checks give (None when nothing is focused). The
    verdict counts are those of every test of its main tests, sweeps and
    checks that has a verdict. A table is headed by the representatives of
    its sweep in sorted order, so the report does not depend on the order
    campaign.focused was built in."""
    verdict_counts = Counter(campaign.verdicts[t.test_id].verdict for t in campaign.every_test()
                             if t.test_id in campaign.verdicts)
    out: list[str] = []
    out.append("campaign report")
    out.append("=" * 60)
    out.append(f"mission:        {campaign.mission.id}")
    out.append(f"oracle:         {campaign.oracle_version}")
    out.append(f"master seed:    {campaign.master_seed}")
    out.append(f"seeded faults:  {', '.join(sorted(campaign.config.seeded_faults)) or '(none)'}")
    out.append("")
    out.append("verdicts")
    out.append("-" * 60)
    for verdict in sorted(verdict_counts):
        out.append(f"  {verdict:10s} {verdict_counts[verdict]}")
    out.append("")

    if analysis:
        out.append("failure clusters")
        out.append("-" * 60)
        out.append(f"  {analysis['n_failures']} failing tests, K={analysis['k']}")
        out.append("  within-cluster sum of squares by K:")
        for k, w in analysis["wcss_curve"]:
            marker = "  <- selected" if k == analysis["k"] else ""
            out.append(f"    K={k}: {w:.6f}{marker}")
        out.append("  representatives (closest / farthest from centroid):")
        for rep in analysis["representatives"]:
            out.append(f"    cluster {rep['cluster']}: {rep['closest']} / {rep['farthest']}")
        out.append("")
    if derived is None:
        return "\n".join(out) + "\n"

    for tag, (table, _tree) in derived.tables.items():
        reps = sorted(rep for rep, t in campaign.focused.items() if t == tag)
        out += [f"truth table {', '.join(reps)} (sweep {tag}, scope {table.scope})", "-" * 60,
                _format_table(table)]
        residual = [r for r in table.rows if r.residual]
        if residual:
            out.append(f"  warning: {len(residual)} cell(s) stayed mixed after splitting")
        out.append("")

    for tree in [*(tree for _table, tree in derived.tables.values()), derived.combined]:
        out += [f"fault tree: {tree.hazard}", "-" * 60]
        out += [f"  {{ {cs} }}" for cs in tree.cut_sets] or ["  (no cut sets)"]
        out.append("")

    if derived.checks:
        out += ["soundness re-execution", "-" * 60]
        for check in derived.checks:
            status = "sound" if check.sound else "NOT SOUND"
            out.append(f"  {{ {check.cut_set} }}: {status} {list(check.verdicts)}")
        out.append("")
    if derived.incomplete:
        out += ["incomplete: left out for lack of results, which a plain `statefuzz focus` "
                "flies", "-" * 60]
        out += [f"  {what}: {n} result(s) missing" for what, n in derived.incomplete]
        out.append("")
    return "\n".join(out) + "\n"
