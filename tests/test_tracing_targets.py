"""The benchmark tracer's targets exist in the package, and take the
arguments its counters read where the counters look for them.

perfbench/tracing.py wraps statefuzz functions by name and stops with exit
code 3 when one of them is gone; a counter that finds no argument records
None, which only a traced benchmark run would show. These tests load it by
path, without installing its wrappers, so a rename or a moved argument
fails the ordinary test run too.
"""

import dataclasses
import importlib
import importlib.util
import inspect
from pathlib import Path
from unittest.mock import MagicMock

import pytest

from statefuzz import testgen

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

#: every argument a tracer counter reads: (module, function, position, name)
READ_ARGUMENTS = [
    ("executor", "run_campaign", 3, "parallelism"),
    ("storage", "save_fault_tree", 3, "dot"),
    ("storage", "save_report", 1, "text"),
    ("cutset", "build_truth_table", 0, "representative"),
    ("cutset", "build_truth_table", 1, "axes"),
]


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def resolve(mod_name, qualname):
    owner = importlib.import_module(f"statefuzz.{mod_name}")
    for part in qualname.split("."):
        owner = getattr(owner, part)
    return owner


def test_every_traced_name_resolves():
    for mod_name, qualname in load_tracing().TARGETS:
        assert callable(resolve(mod_name, qualname)), f"statefuzz.{mod_name}.{qualname}"


@pytest.mark.parametrize(
    "mod_name, qualname, position, name", READ_ARGUMENTS,
    ids=[f"{qualname}-{name}" for _m, qualname, _p, name in READ_ARGUMENTS],
)
def test_the_tracer_finds_each_argument_it_reads(mod_name, qualname, position, name):
    # a counter takes a positional argument at this position, a keyword one
    # by this name; anywhere else it would count None
    assert list(inspect.signature(resolve(mod_name, qualname)).parameters)[position] == name


def test_the_tracer_reads_no_argument_left_unchecked():
    tracing = load_tracing()
    read = set()
    for (mod_name, qualname), counter in tracing.TARGETS.items():
        if counter is not None:
            def record(args, kwargs, position, name, default=None):
                read.add((mod_name, qualname, position, name))
                return MagicMock()

            tracing._arg = record
            counter((), {}, MagicMock())
    assert read == set(READ_ARGUMENTS)


def test_the_tracers_axis_fields_match_the_package():
    # the tracer keys a truth table's sweep by its own copy of the test-case
    # field behind each focus axis; a renamed axis or field would raise only
    # in a traced run
    fields = load_tracing()._AXIS_FIELD
    assert tuple(fields) == testgen.FOCUS_AXES
    assert set(fields.values()) <= {f.name for f in dataclasses.fields(testgen.TestCase)}
