"""Run one ``bimaut`` command in this process and time its two phases.

Usage: ``PYTHONPATH=src python3 bench/cli_timed.py <bimaut arguments>``.
The command's output and exit code are unchanged; the last line of standard
error is a JSON object with ``import_ms`` (importing the CLI module and the
package) and ``run_ms`` (parsing arguments and running the command).
"""

import contextlib
import io
import json
import sys
import time

t0 = time.perf_counter()
from bimonoid_automata import cli  # noqa: E402

t1 = time.perf_counter()
captured = io.StringIO()
with contextlib.redirect_stdout(captured):
    code = cli.main(sys.argv[1:])
t2 = time.perf_counter()
sys.stdout.write(captured.getvalue())
print(json.dumps({"import_ms": (t1 - t0) * 1e3, "run_ms": (t2 - t1) * 1e3}), file=sys.stderr)
sys.exit(code)
