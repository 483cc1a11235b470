"""The benchmark tracer's targets exist in the package.

perfbench/tracing.py wraps statefuzz functions by name and stops with exit
code 3 when one of them is gone. These tests load it by path, without
installing its wrappers, so a rename fails the ordinary test run too.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

from statefuzz.executor import run_campaign

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    for mod_name, qualname in load_tracing().TARGETS:
        owner = importlib.import_module(f"statefuzz.{mod_name}")
        for part in qualname.split("."):
            owner = getattr(owner, part)
        assert callable(owner), f"statefuzz.{mod_name}.{qualname}"


def test_run_campaign_takes_parallelism_at_index_three():
    # the tracer reads run_campaign's parallelism as positional argument 3
    assert list(inspect.signature(run_campaign).parameters)[3] == "parallelism"
