"""Cold CLI start: import the CLI, then load and validate a run's inputs.

Usage: python3 perfbench/cold_start.py <statefuzz run arguments, without --out>

It parses the arguments with the CLI's own parser and loads the spec,
mission and config with the helpers ``statefuzz run`` calls before it
generates tests. Nothing is generated, executed or written.
"""

import sys

from statefuzz import cli
from statefuzz.fuzzspec import load_fuzz_spec, load_mission, validate_coverage, validate_sut_config


def main(argv: list[str]) -> int:
    args = cli.build_parser().parse_args(["run", *argv, "--out", "unused"])
    spec = load_fuzz_spec(cli._resolve(args.spec))
    mission = load_mission(cli._resolve(args.mission))
    config = cli._load_config(args)
    validate_sut_config(config, spec)
    validate_coverage(spec, mission)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
