"""Run one ``cycshift`` CLI command in this process with spans recorded.

Usage: python3 perfbench/cli_child.py SPANS_OUT COMMAND [ARGS...]

The benchmark's traced pass starts this script in place of
``python -m cycshift.cli`` so that the fileio, compressive, retrieval
and cli layers can be traced inside the process that runs them. Spans
and counters go to SPANS_OUT as JSON; the exit code is the CLI's.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import cycshift.cli  # noqa: E402  (imports every layer before wrapping)

from spans import Tracer, load_layers  # noqa: E402


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer(load_layers())
    with tracer.installed():
        code = cycshift.cli.main(argv)
    tracer.dump(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
