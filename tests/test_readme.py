"""The README's library example runs as written, from the repository root."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def readme_block(heading: str) -> str:
    """The first python block of the README section under heading."""
    text = (ROOT / "README.md").read_text()
    section = text.split(f"\n{heading}\n", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_the_library_example_runs():
    block = readme_block("## Using it as a library")
    check = (
        "import json\n"
        "print(json.dumps([len(tests), len(profiles), sorted({v.verdict for v in verdicts})]))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    result = subprocess.run([sys.executable, "-c", block + check], cwd=ROOT, env=env,
                            capture_output=True, text=True, check=False)
    assert result.returncode == 0, result.stderr
    n_tests, n_profiles, verdicts = json.loads(result.stdout.strip().splitlines()[-1])
    assert n_tests == n_profiles == 225
    # F2 is seeded, so some of its tests fail
    assert "FAILURE" in verdicts
