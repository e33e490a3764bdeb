"""Traced form of one CLI command, run in a fresh interpreter.

Usage: python3 perfbench/cli_child.py '<command JSON>'

Times the package import, then runs the command's library stages one at a
time (see ``stages.cli_command``) and prints one JSON line with the spans
and the digest of the report.
"""

import json
import sys
import time

start = time.perf_counter()
import stages  # noqa: E402  (imports cutjump; this import is what is timed)

imported = time.perf_counter()


def main(cmd: dict) -> int:
    tr = stages.Tracer()
    tr.spans.append({"name": "cli.import", "start": start, "end": imported, "parent": None, "op": None})
    digest = stages.cli_command(tr, cmd)
    print(json.dumps({"spans": tr.spans, "digest": digest}))
    return 0


if __name__ == "__main__":
    sys.exit(main(json.loads(sys.argv[1])))
