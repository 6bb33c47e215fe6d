"""Run one qtwist CLI call with the tracer installed.

The traced cli_cold pass runs ``python perfbench/clitrace.py <args>`` in
place of ``python -m qtwist.cli <args>``. sympy is imported before the
tracer is installed so that ``sympy.factorint`` can be wrapped; the
untraced pass keeps the CLI's own lazy import. The child's spans and
aggregate go to stderr on one line tagged ``tracing.CHILD_TAG``.
"""

import json
import sys

import sympy  # noqa: F401  (so the factorint kernel is wrapped)

import tracing
from qtwist import cli


def main() -> int:
    tracer = tracing.Tracer()
    tracer.install()
    tracer.op_id = 0
    try:
        code = cli.run(sys.argv[1:])
    except SystemExit as exc:  # argparse rejects bad arguments with exit 2
        code = exc.code if isinstance(exc.code, int) else 2
    tracer.uninstall()
    sys.stdout.flush()
    part = tracer.aggregate()
    part["spans"] = tracer.spans()
    print(tracing.CHILD_TAG + json.dumps(part), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
