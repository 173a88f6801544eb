"""Traced ``h2gap`` command: ``python cli_child.py TRACE_JSON <h2gap args...>``.

Runs ``h2gap.cli.main`` like the ``h2gap`` console script, with the tracer's
wrappers installed, and writes the aggregated spans of the one op to
TRACE_JSON. The exit code is the command's.
"""

import json
import sys

import tracer


def main() -> int:
    trace_path, argv = sys.argv[1], sys.argv[2:]
    from h2gap import cli

    t = tracer.Tracer().install()
    code = cli.main(argv)
    t.end_op()
    with open(trace_path, "w", encoding="utf-8") as fh:
        json.dump(t.to_dict(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
