"""Traced CLI run: spans around the public functions of each statefuzz layer.

Usage (from the repository root, with ``src`` on PYTHONPATH):

    python3 perfbench/tracing.py SPANS.json RUN_ID -- <statefuzz arguments>

The wrappers are installed from outside the package, on the defining module
and on every ``statefuzz.*`` module that imported the function by name, so
the CLI's own ``from .x import y`` bindings are traced too. A name that no
longer exists stops the run with exit code 3: a renamed function must not
report its layer as zero.

Spans stay in memory while the CLI runs and are written once at the end as
``[name, start, end, parent, run_id, count]`` rows, where ``parent`` is the
index of the enclosing span (-1 at top level) and ``count`` is the value the
span's counter recorded (or null). Pool workers are separate processes:
their spans are not collected, only the parent-side ones.

:func:`layer_metrics` turns a span file into the per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import sys
import time
from collections import defaultdict

#: (module, qualified name) of every wrapped function, with the counter its
#: span records: a function of (args, kwargs, result), or None
TARGETS = {
    ("sutmodel", "Vehicle.advance_until"): None,
    ("sutmodel", "Vehicle.apply_rc"): None,
    ("executor", "Executor.execute"): lambda a, k, r: r.flight_duration_ms,
    ("executor", "run_campaign"): lambda a, k, r: [len(r), _arg(a, k, 3, "parallelism", 1)],
    ("testgen", "generate"): lambda a, k, r: len(r),
    ("testgen", "focused_generate"): lambda a, k, r: len(r),
    ("oracle", "classify"): lambda a, k, r: r.verdict == "FAILURE",
    ("analysis", "analyze_failures"): lambda a, k, r: [len(r.encoded.test_ids), r.k],
    ("cutset", "build_truth_table"): lambda a, k, r: _sweep_key(a, k),
    ("cutset", "table_from_results"): None,
    ("cutset", "minimize"): None,
    ("cutset", "cut_sets_for_table"): lambda a, k, r: len(r),
    ("cutset", "merge_cut_sets"): lambda a, k, r: len(r),
    ("cutset", "soundness_check"): None,
    ("cutset", "build_fault_tree"): None,
    ("storage", "canonical_dumps"): lambda a, k, r: len(r),
    ("storage", "table_csv"): lambda a, k, r: len(r),
    ("storage", "read_json"): None,
    ("storage", "save_result"): None,
    ("storage", "save_tests"): None,
    ("storage", "save_analysis"): None,
    ("storage", "save_truth_table"): None,
    ("storage", "save_fault_tree"): lambda a, k, r: len(_arg(a, k, 3, "dot")),
    ("storage", "save_soundness"): None,
    ("storage", "save_coverage"): None,
    ("storage", "save_campaign_meta"): None,
    ("storage", "load_campaign"): None,
    ("storage", "render_report"): None,
    ("storage", "save_report"): lambda a, k, r: len(_arg(a, k, 1, "text")),
}

#: test-case field behind each focus axis
_AXIS_FIELD = {
    "action": "action",
    "delay_band": "band_name",
    "throttle": "throttle",
    "geofence": "geofence",
    "wind": "wind",
    "gps_noise": "gps_noise",
    "compass_interference": "compass_interference",
}


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _sweep_key(args, kwargs) -> str:
    """Scope, target mode, swept axes and the unswept values of one sweep."""
    base = _arg(args, kwargs, 0, "representative")
    axes = sorted(_arg(args, kwargs, 1, "axes"))
    unswept = [
        getattr(base, field) for axis, field in _AXIS_FIELD.items() if axis not in axes
    ]
    return repr((str(base.app_state), str(base.target_mode), axes, unswept))


class Tracer:
    """Span store for one process; wrappers append to it."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn, counter):
        spans, stack, run_id = self.spans, self._stack, self.run_id
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, run_id, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if counter is not None:
                span[5] = counter(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Resolve every target first, then wrap: a missing name changes nothing."""
        modules = {
            m: importlib.import_module(f"statefuzz.{m}")
            for m in ("cli", "sutmodel", "executor", "testgen", "oracle",
                      "analysis", "cutset", "storage", "fuzzspec")
        }
        resolved = []
        for (mod_name, qualname), counter in TARGETS.items():
            owner = modules[mod_name]
            *path, attr = qualname.split(".")
            try:
                for part in path:
                    owner = getattr(owner, part)
                resolved.append((owner, attr, getattr(owner, attr), f"{mod_name}.{qualname}", counter))
            except AttributeError:
                print(f"tracing: statefuzz.{mod_name}.{qualname} no longer exists", file=sys.stderr)
                raise SystemExit(3) from None
        for owner, attr, original, name, counter in resolved:
            wrapped = self.wrap(name, original, counter)
            setattr(owner, attr, wrapped)
            if isinstance(owner, type):
                continue
            for module in modules.values():
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapped)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh, separators=(",", ":"))


def span_cost_s(calls: int = 20_000, trials: int = 5) -> float:
    """Seconds one span adds to a call: a wrapped no-op against the bare one,
    the cheapest of ``trials`` rounds."""

    def noop():
        return None

    clock = time.perf_counter
    costs = []
    for _ in range(trials):
        wrapped = Tracer("calibration").wrap("noop", noop, None)
        t0 = clock()
        for _ in range(calls):
            noop()
        bare = clock() - t0
        t0 = clock()
        for _ in range(calls):
            wrapped()
        costs.append((clock() - t0 - bare) / calls)
    return max(min(costs), 0.0)


def _quantile(values: list[float], q: int) -> float:
    """The q-th percentile (1..99), or the lone value, or 0 without samples."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(spans: list[list], wall_s: float) -> dict[str, float]:
    """Per-layer self times, counts and ratios from one traced run's spans.

    ``wall_s`` is the traced run's wall time; whatever no span covers is
    reported as ``cli.residual_s``, so the ``<module>.self_s`` values plus the
    residual add up to it.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _run, _count in spans:
        if parent >= 0:
            child_time[parent] += end - start
    total: dict[str, float] = defaultdict(float)
    self_time: dict[str, float] = defaultdict(float)
    counts: dict[str, list] = defaultdict(list)
    module_self: dict[str, float] = defaultdict(float)
    top_level = 0.0
    flights: list[float] = []
    soundness_flights = 0

    def under(index: int, name: str) -> bool:
        while index >= 0:
            if spans[index][0] == name:
                return True
            index = spans[index][3]
        return False

    for i, (name, start, end, parent, _run, count) in enumerate(spans):
        dur = end - start
        total[name] += dur
        self_time[name] += dur - child_time[i]
        module_self[name.split(".")[0]] += dur - child_time[i]
        if count is not None:
            counts[name].append(count)
        if parent < 0:
            top_level += dur
        if name == "executor.Executor.execute":
            flights.append(dur * 1000.0)
            if under(parent, "cutset.soundness_check"):
                soundness_flights += 1

    sim_s = sum(counts["executor.Executor.execute"]) / 1000.0
    advance_s = self_time["sutmodel.Vehicle.advance_until"]
    campaigns = counts["executor.run_campaign"]
    # run_campaign starts a pool only for parallelism > 1 and two or more tests
    pool_calls = sum(1 for n, parallelism in campaigns if parallelism > 1 and n >= 2)
    campaign_flights = sum(n for n, _p in campaigns)
    run_campaign_s = total["executor.run_campaign"]
    analyses = counts["analysis.analyze_failures"]
    failures = sum(n for n, _k in analyses)
    sweeps = counts["cutset.build_truth_table"]
    classified = counts["oracle.classify"]
    bytes_written = sum(
        sum(counts[name])
        for name in ("storage.canonical_dumps", "storage.table_csv",
                     "storage.save_fault_tree", "storage.save_report")
    )
    metrics = {
        "sutmodel.advance_s": advance_s,
        "sutmodel.sim_s": sim_s,
        "sutmodel.host_us_per_sim_s": advance_s * 1e6 / sim_s if sim_s else 0.0,
        "sutmodel.apply_rc_s": self_time["sutmodel.Vehicle.apply_rc"],
        "executor.execute_self_s": self_time["executor.Executor.execute"],
        "executor.flights": len(flights),
        "executor.flight_p50_ms": _quantile(flights, 50),
        "executor.flight_p99_ms": _quantile(flights, 99),
        "executor.run_campaign_s": run_campaign_s,
        "executor.pool_calls": pool_calls,
        "executor.flights_per_s": campaign_flights / run_campaign_s if run_campaign_s else 0.0,
        "cutset.build_truth_table_self_s": self_time["cutset.build_truth_table"],
        "cutset.minimize_s": total["cutset.minimize"],
        "cutset.soundness_check_s": total["cutset.soundness_check"],
        "cutset.focus_flights": sum(counts["testgen.focused_generate"]),
        "cutset.soundness_flights": soundness_flights,
        "cutset.cut_sets": sum(counts["cutset.merge_cut_sets"]),
        "cutset.focus_unique_ratio": len(set(sweeps)) / len(sweeps) if sweeps else 0.0,
        "analysis.analyze_failures_s": total["analysis.analyze_failures"],
        "analysis.failures": failures,
        "analysis.ms_per_failure": (
            total["analysis.analyze_failures"] * 1000.0 / failures if failures else 0.0
        ),
        "analysis.k": analyses[-1][1] if analyses else 0,
        "storage.save_result_s": total["storage.save_result"],
        "storage.bytes_written": bytes_written,
        "storage.load_campaign_s": total["storage.load_campaign"],
        "storage.report_s": total["storage.render_report"] + total["storage.save_report"],
        "oracle.classify_s": total["oracle.classify"],
        "oracle.failure_share": sum(classified) / len(classified) if classified else 0.0,
        "testgen.generate_s": total["testgen.generate"] + total["testgen.focused_generate"],
        "cli.residual_s": wall_s - top_level,
    }
    for module in ("sutmodel", "executor", "testgen", "oracle", "analysis", "cutset", "storage"):
        metrics[f"{module}.self_s"] = module_self[module]
    return metrics


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[2] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    spans_path, run_id, cli_args = argv[0], argv[1], argv[3:]
    tracer = Tracer(run_id)
    tracer.install()
    from statefuzz import cli

    try:
        return cli.main(cli_args)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
