"""Run one tracecodes CLI command with the per-layer wrappers installed.

    python3 perfbench/cli_child.py SPANS_JSON SUBCOMMAND [ARGS...]

Output and exit code are those of ``python -m tracecodes.cli SUBCOMMAND
ARGS...``; the spans and call counts of the command go to SPANS_JSON.  The
traced run of the cli-session workload starts this instead of the CLI.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from layers import Tracer  # noqa: E402  (this file's directory is sys.path[0])

from tracecodes import cli  # noqa: E402


def main() -> int:
    dump, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    try:
        return cli.main(argv)
    finally:
        tracer.dump(dump)


if __name__ == "__main__":
    sys.exit(main())
