"""bench/bench.py: its alternation of two checkouts, and its options.

The bench itself stores campaigns and starts interpreters; these checks do
neither. The module is loaded by path, as bench.py loads perfbench/run.py.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench" / "bench.py"


@pytest.fixture(scope="module")
def bench():
    spec = importlib.util.spec_from_file_location("bench_under_test", BENCH)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


def test_alternation_puts_the_parent_first_on_even_pairs_and_counts_change_wins(bench):
    # pair 0: the change is faster; pair 1: a tie; pair 2: the parent is
    # faster; pair 3: the change is faster again
    walls = {"parent": [2.0, 1.0, 1.0, 3.0], "change": [1.0, 1.0, 2.0, 2.0]}
    calls = []

    def run(side):
        calls.append(side)
        return {"wall_s": walls[side][len(calls[:-1]) // 2], "digest": side == "parent"}

    out = bench.alternate(4, run, ["wall_s"])
    assert calls == ["parent", "change", "change", "parent"] * 2
    assert [p["first"] for p in out["pairs"]] == ["parent", "change", "parent", "change"]
    assert [p["parent"]["wall_s"] for p in out["pairs"]] == walls["parent"]
    wall = out["metrics"]["wall_s"]
    assert wall["change_wins"] == 2
    assert wall["parent"] == {"median": 1.5, "q1": 1.0, "q3": 2.25}
    assert wall["change"] == {"median": 1.5, "q1": 1.0, "q3": 2.0}
    assert out["digests"] == {"parent": [True], "change": [False]}


def test_ties_count_for_neither_side(bench):
    out = bench.alternate(2, lambda side: {"wall_s": 1.0}, ["wall_s"])
    assert out["metrics"]["wall_s"]["change_wins"] == 0
    assert "digests" not in out


@pytest.mark.parametrize("command", [None, "clustering", "simulator", "fanout", "storage",
                                     "oracle", "minimize", "startup", "pairs", "traced",
                                     "samefacts"])
def test_every_subcommand_has_help(bench, command, capsys):
    with pytest.raises(SystemExit) as exit_:
        bench.main([command, "--help"] if command else ["--help"])
    assert exit_.value.code == 0
    assert capsys.readouterr().out.startswith("usage:")


def test_the_help_covers_every_subcommand(bench):
    assert set(bench.COMMANDS) == {"clustering", "simulator", "fanout", "storage", "oracle",
                                   "minimize", "startup", "pairs", "traced", "samefacts"}


def test_fewer_than_two_pairs_is_refused(bench, tmp_path, capsys):
    with pytest.raises(SystemExit) as exit_:
        bench.main(["oracle", "--parent", str(tmp_path), "--change", str(tmp_path),
                    "--out", str(tmp_path / "bench.json"), "--pairs", "1"])
    assert exit_.value.code == 2
    assert "--pairs must be at least 2" in capsys.readouterr().err
    assert not (tmp_path / "bench.json").exists()
