"""The README's quick start and library example run as written."""

import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

from statefuzz import cli

ROOT = Path(__file__).resolve().parents[1]


def readme_section(heading: str) -> str:
    """The README's text under heading, up to the next section."""
    text = (ROOT / "README.md").read_text()
    return text.split(f"\n{heading}\n", 1)[1].split("\n## ", 1)[0]


def readme_block(heading: str) -> str:
    """The first python block of the README section under heading."""
    return readme_section(heading).split("```python\n", 1)[1].split("```", 1)[0]


def quick_start_commands() -> list[list[str]]:
    """The arguments of each statefuzz line of the quick start's sh blocks,
    continued lines joined and comments dropped."""
    blocks = [part.split("```", 1)[0]
              for part in readme_section("## Quick start").split("```sh\n")[1:]]
    lines = "\n".join(blocks).replace("\\\n", " ").splitlines()
    return [shlex.split(line, comments=True)[1:] for line in lines
            if line.startswith("statefuzz ")]


def test_the_quick_start_runs(tmp_path, monkeypatch, capsys):
    commands = quick_start_commands()
    assert [argv[0] for argv in commands] == [
        "run", "analyze", "focus", "report", "replay", "replay"
    ]
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert cli.main(argv) == 0, argv
        out = capsys.readouterr().out
        if argv[0] == "replay":
            assert "replay OK" in out


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
