"""Smoke test of the benchmark itself, at one repetition per workload.

Run from the repository root:

    python3 -m pytest perfbench/test_smoke.py -q

Each workload goes through its command paths (run; run, analyze and report
for reanalyze), its output checks and digest comparison, once untraced and
once under the tracing wrappers.
"""

import dataclasses
import json
import sys

import pytest

import run
import tracing

sys.path.insert(0, str(run.SRC))


def shrunk(workload: run.Workload) -> run.Workload:
    args = list(workload.run_args)
    args[args.index("--repetitions") + 1] = "1"
    return dataclasses.replace(workload, run_args=tuple(args))


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_workload_untraced_and_traced(name, tmp_path):
    runner = run.Runner(shrunk(run.WORKLOADS[name]), seed=0, work=tmp_path)
    runner.prepare()
    untraced = runner.repeat(1)
    traced = runner.repeat(2, tmp_path / "spans.json")
    assert traced.digest == untraced.digest

    spans = []
    for path in sorted(tmp_path.glob("spans-*.json")):
        spans.extend(run._rebase(json.loads(path.read_text()), len(spans)))
    metrics = tracing.layer_metrics(spans, traced.wall_s)
    reported = {m["name"] for m in json.loads((run.ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    assert set(metrics) < reported
    layers = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
    assert layers + metrics["cli.residual_s"] == pytest.approx(traced.wall_s)
    assert metrics["oracle.classify_s"] > 0
    if name == "reanalyze":
        assert metrics["analysis.failures"] > 0
        assert metrics["storage.load_campaign_s"] > 0
        assert metrics["executor.flights"] == 0
    else:
        assert metrics["sutmodel.sim_s"] > 0
        assert metrics["cutset.focus_flights"] > 0
        assert metrics["cutset.cut_sets"] > 0
        assert metrics["storage.bytes_written"] > 0


def test_a_failed_check_is_reported(tmp_path):
    def reject(out):
        raise run.CheckFailed("rejected")

    workload = dataclasses.replace(shrunk(run.WORKLOADS["f2_quickstart"]), check=reject)
    with pytest.raises(run.CheckFailed):
        run.Runner(workload, seed=0, work=tmp_path).repeat(1)


def test_a_missing_traced_name_stops_the_run(monkeypatch):
    monkeypatch.setitem(tracing.TARGETS, ("cutset", "no_such_function"), None)
    with pytest.raises(SystemExit) as exc:
        tracing.Tracer("x").install()
    assert exc.value.code == 3


def test_without_sources_the_benchmark_refuses_to_run(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "reanalyze", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""


def _campaign(out, cut_sets, sound):
    """A campaign directory with one truth table, a combined tree and
    soundness results."""
    def literals(cs):
        return [{"column": c, "value": v} for c, v in sorted(cs)]

    def row(action, band, mode, failures):
        return {"values": {"action": action, "delay_band": band}, "observed_mode": mode,
                "runs": 4, "valid": 4, "failures": failures}

    rows = [row("AUTO.RTL", "short", "OFFBOARD", 4), row("AUTO.RTL", "medium", "OFFBOARD", 4),
            row("AUTO.RTL", "long", "OFFBOARD", 4), row("POSCTL", "short", "STABILIZED", 4),
            row("POSCTL", "medium", "OFFBOARD", 4), row("POSCTL", "long", "OFFBOARD", 0)]
    for name, doc in (
        ("truthtables/t1.json", {"scope": "TAKEOFF", "axes": ["action", "delay_band"], "rows": rows}),
        ("faulttrees/combined.json", {"cut_sets": [
            {"literals": literals(cs), "sources": ["truthtable:t1"]} for cs in cut_sets]}),
        ("soundness.json", [{"cut_set": {"literals": literals(cs)}, "sound": ok}
                            for cs, ok in zip(cut_sets, sound)]),
    ):
        (out / name).parent.mkdir(parents=True, exist_ok=True)
        (out / name).write_text(json.dumps(doc))


def test_env_fence_c_check_accepts_only_minimal_explanations(tmp_path):
    expected = [{run.TAKEOFF, ("action", "AUTO.RTL")}, {run.TAKEOFF, run.STABILIZED}]
    chance = {run.TAKEOFF, ("delay_band", "medium")}
    for sound in (True, False):
        _campaign(tmp_path / f"chance-{sound}", expected + [chance], [True, True, sound])
        assert "1 from chance" in run.check_env_fence_c(tmp_path / f"chance-{sound}")
    superset = {run.TAKEOFF, ("action", "AUTO.RTL"), ("delay_band", "short")}
    _campaign(tmp_path / "superset", expected + [superset], [True, True, True])
    with pytest.raises(run.CheckFailed, match="not minimal"):
        run.check_env_fence_c(tmp_path / "superset")
    unsupported = {run.TAKEOFF, ("delay_band", "long")}
    _campaign(tmp_path / "unsupported", expected + [unsupported], [True, True, True])
    with pytest.raises(run.CheckFailed, match="does not explain"):
        run.check_env_fence_c(tmp_path / "unsupported")
