"""Run one gridcast CLI command with every probe installed.

    python3 perfbench/traced_cli.py SPANS_JSON RUN_ID -- <gridcast args>

The import of ``gridcast.cli`` is itself a span (``cli.import``), so
is the installation of the probes (``trace.install``), then ``cli.main``
encloses the command.  Spans stay in memory until the command returns
and are then written to SPANS_JSON as one JSON list, followed by a line
holding the span of that write (``trace.write``).  What no span covers
is then interpreter start-up and exit.  The exit code is the command's
own.
"""
from __future__ import annotations

import dataclasses
import json
import sys


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[2] != "--":
        print("usage: traced_cli.py SPANS_JSON RUN_ID -- <gridcast args>",
              file=sys.stderr)
        return 2
    spans_path, run_id, command = argv[0], int(argv[1]), argv[3:]

    from spans import Tracer

    tracer = Tracer(run=run_id)
    index = tracer.begin("cli.import")
    import gridcast.cli
    tracer.end(index)

    index = tracer.begin("trace.install")
    import probes
    probes.install(tracer)
    tracer.end(index)
    index = tracer.begin("cli.main")
    try:
        code = gridcast.cli.main(command)
    finally:
        tracer.end(index)
        index = tracer.begin("trace.write")
        with open(spans_path, "w", encoding="utf-8") as handle:
            json.dump(tracer.to_json()[:index], handle)
            handle.write("\n")
            json.dump(dataclasses.asdict(tracer.end(index)), handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
