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
    soundness.json           cut-set re-execution results: one check per
                             combined cut set, kept across focus, each with
                             the tag that names its trials
    report.txt               human-readable digest

The truth tables, fault trees and soundness.json are outputs only: each
focus derives them again from tests.json and the results log, and they
are read only to render report.txt.

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
load_campaign regenerates every recipe and compares the sha256 of the cases
(see cases_digest), and a sweep's or check's tag with the one its recipe
gives. On a mismatch it raises RecipeMismatch naming the entry, before any
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
import os
import time
from dataclasses import asdict, dataclass, field
from itertools import chain
from operator import attrgetter
from pathlib import Path
from typing import Optional

from .cutset import soundness_trials
from .errors import AnalysisMismatch, CampaignRunning, LayoutMismatch, RecipeMismatch, naming
from .executor import PROFILE_FIELDS, ExecutionProfile
from .fuzzspec import FuzzSpecification, MissionPlan, parse_fuzz_spec, parse_mission
from .oracle import TreePart, Verdict, classify, default_tree
from .sutmodel import SutConfig
from .testgen import GeneratorConfig, TestCase, focused_generate, generate, sweep_tag

#: the layout of the campaign directories this code writes and reads,
#: recorded in campaign.json; a change to the shape of a stored file raises
#: it. Layout 5 stores a result line as its profile's PROFILE_FIELDS values,
#: the trace as its trace_digest, and the oracle as its oracle_version alone.
LAYOUT = 5
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
    tree: TreePart
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


def load_campaign(root: Path) -> Campaign:
    """The campaign stored in root, each stored profile judged under its
    oracle; the last whole result line of an id is the one that stands.

    Refuses a campaign of another layout, one whose generator block holds
    an unknown key, or a complete one without tests.json (LayoutMismatch),
    one still running (CampaignRunning), one of an unknown oracle_version
    (MalformedTree), and one whose tests.json is not shaped as save_tests
    writes it, holds a recipe that does not give back its cases, or a
    representative whose sweep it does not store (RecipeMismatch).
    """
    meta = read_json(root / "campaign.json")
    gen_raw = meta.get("generator", {})
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
        generator = GeneratorConfig(**gen_raw)
    except TypeError as exc:
        raise LayoutMismatch(f"campaign {root} has a generator block this code does not read "
                             f"({exc}); {regenerate}") from None
    with naming(root / "campaign.json"):
        spec = parse_fuzz_spec(meta["spec"], spec_id=meta["spec_id"])
        mission = parse_mission(meta["mission"])
        config = SutConfig.from_dict(meta["config"])
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
    """The entry tests.json stores as raw, a recipe of the given kind ("main",
    "sweeps" or "soundness"), regenerated under campaign's spec, mission and
    config; raises RecipeMismatch when the recipe is malformed, or gives
    another tag than the one it is stored under, or cases of another sha256."""
    def refuse(problem: str) -> RecipeMismatch:
        return _mismatch(f"tests.json {kind}" + (f" {tag}" if tag else ""), problem)

    try:
        recipe = {k: v for k, v in raw.items() if k != "sha256"}
        if kind == "main":
            tests = generate(campaign.spec, campaign.generator, campaign.mission.id)
        elif kind == "sweeps":
            key = (TestCase.from_dict(recipe["base"]), recipe["axes"], recipe["runs_per_cell"])
            if sweep_tag(*key, recipe["seed"]) != tag:
                raise refuse("its recipe gives another tag")
            tests = focused_generate(*key, campaign.spec, recipe["seed"])
        else:
            literals = tuple(tuple(lit) for lit in recipe["literals"])
            named, tests = soundness_trials(
                literals, campaign.spec, campaign.mission.id, campaign.config,
                recipe["seed"], recipe["trials"],
            )
            if named != tag:
                raise refuse("its recipe gives another tag")
            tests = tests or []
        if cases_digest(tests) != raw["sha256"]:
            raise refuse("the cases regenerated from its recipe have another sha256")
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise refuse(f"its recipe is malformed ({type(exc).__name__}: {exc})") from None
    return Entry(tests, recipe)


# ---------------------------------------------------------------------------
# report rendering
# ---------------------------------------------------------------------------


def _format_table(table: dict) -> str:
    axes = list(table["axes"])
    headers = axes + ["mode@injection", "runs", "valid", "fail%", "status"]
    rows_out = []
    for row in table["rows"]:
        rate = row["failure_rate"]
        status = "FAIL" if rate > 0 else "ok"
        if row["residual"]:
            status = "MIXED"
        rows_out.append(
            [str(row["values"][a]) for a in axes]
            + [
                row["observed_mode"],
                str(row["runs"]),
                str(row["valid"]),
                f"{rate:.1f}",
                status,
            ]
        )
    widths = [
        max(len(headers[i]), *(len(r[i]) for r in rows_out)) if rows_out else len(headers[i])
        for i in range(len(headers))
    ]
    lines = [
        "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)),
        "  ".join("-" * w for w in widths),
    ]
    for r in rows_out:
        lines.append("  ".join(r[i].ljust(widths[i]) for i in range(len(headers))))
    if table["unreachable"]:
        lines.append(f"unreachable cells: {len(table['unreachable'])}")
    return "\n".join(lines)


def render_report(
    campaign: Campaign,
    verdict_counts: dict[str, int],
    analysis: Optional[dict],
    tables: list[tuple[str, list[str], dict]],
    fault_trees: list[dict],
    soundness: list[dict],
) -> str:
    """Plain-text digest of a finished campaign. Pure function; tables holds
    (file stem, the representatives whose tag it is, table)."""
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

    for stem, reps, table in tables:
        out.append(f"truth table {', '.join(reps)} (sweep {stem}, scope {table['scope']})")
        out.append("-" * 60)
        out.append(_format_table(table))
        residual = [r for r in table["rows"] if r["residual"]]
        if residual:
            out.append(f"  warning: {len(residual)} cell(s) stayed mixed after splitting")
        out.append("")

    for tree in fault_trees:
        out.append(f"fault tree: {tree['hazard']}")
        out.append("-" * 60)
        if not tree["cut_sets"]:
            out.append("  (no cut sets)")
        for cs in tree["cut_sets"]:
            lits = " AND ".join(f"{l['column']}={l['value']}" for l in cs["literals"])
            out.append(f"  {{ {lits} }}")
        out.append("")

    if soundness:
        out.append("soundness re-execution")
        out.append("-" * 60)
        for s in soundness:
            lits = " AND ".join(f"{l['column']}={l['value']}" for l in s["cut_set"]["literals"])
            status = "sound" if s["sound"] else "NOT SOUND"
            out.append(f"  {{ {lits} }}: {status} {list(s['verdicts'])}")
        out.append("")
    return "\n".join(out) + "\n"
