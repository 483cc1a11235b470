"""Only the commands that cluster load numpy; only a pool loads multiprocessing;
importing the package loads none of its modules.

The test session has imported numpy already, so every check runs in a fresh
interpreter with PYTHONPATH=src, which reports the heavy modules it loaded.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from statefuzz import cli

SRC = Path(__file__).resolve().parents[1] / "src"

HEAVY = ("numpy", "multiprocessing")

#: imports the CLI, runs cli.main on the JSON argv given (if any), then
#: prints the exit code and the heavy modules loaded as its last line
PROBE = """
import json, sys
from statefuzz import cli
rc = cli.main(json.loads(sys.argv[1])) if len(sys.argv) > 1 else 0
print(json.dumps({"rc": rc, "loaded": [m for m in %r if m in sys.modules]}))
""" % (HEAVY,)

RUN_ARGS = [
    "run",
    "--spec", "fspec1",
    "--mission", "mission_a",
    "--fault", "F2",
    "--latency-window", "200", "600",
    "--repetitions", "1",
    "--runs-per-cell", "2",
    "--seed", "0",
]


def fresh(code: str, *argv: str) -> dict:
    """Run code in a new interpreter; its last stdout line, read as JSON."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    result = subprocess.run([sys.executable, "-c", code, *argv], env=env,
                            capture_output=True, text=True, check=False)
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout.strip().splitlines()[-1])


def probe(argv=None) -> dict:
    return fresh(PROBE, *([json.dumps(argv)] if argv is not None else []))


@pytest.fixture(scope="module")
def stored(tmp_path_factory):
    root = tmp_path_factory.mktemp("lazy") / "campaign"
    assert cli.main(RUN_ARGS + ["--out", str(root)]) == 0
    return root


def test_importing_the_package_loads_no_module_of_it():
    doc = fresh(
        "import json, sys, statefuzz\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('statefuzz.'))))\n"
    )
    assert doc == []


def test_importing_the_cli_loads_no_heavy_module():
    assert probe() == {"rc": 0, "loaded": []}


@pytest.mark.parametrize(
    "argv",
    [
        ["report"],
        ["replay", "--test-id", "t00003"],
        ["focus", "--runs-per-cell", "2"],
    ],
    ids=["report", "replay", "focus"],
)
def test_commands_that_do_not_cluster_leave_numpy_unloaded(stored, tmp_path, argv):
    campaign = tmp_path / "campaign"
    shutil.copytree(stored, campaign)
    doc = probe([argv[0], "--campaign", str(campaign), *argv[1:]])
    assert doc == {"rc": 0, "loaded": []}


def test_run_and_analyze_still_cluster(tmp_path):
    root = tmp_path / "campaign"
    doc = probe(RUN_ARGS + ["--out", str(root), "--no-soundness"])
    assert doc["rc"] == 0 and "numpy" in doc["loaded"]
    assert (root / "analysis.json").exists()
    # a serial run opens no pool
    assert "multiprocessing" not in doc["loaded"]
    (root / "analysis.json").unlink()
    doc = probe(["analyze", "--campaign", str(root)])
    assert doc["rc"] == 0 and "numpy" in doc["loaded"]
    assert (root / "analysis.json").exists()
