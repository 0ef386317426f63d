"""Run one command; print its wall time, exit code and peak memory as JSON.

    python3 perfbench/measure.py --timeout SECONDS -- COMMAND [ARGS...]

The command is started from this small, freshly started interpreter rather
than from the benchmark process, because Linux carries the resident memory
of the parent at fork into the child's ``ru_maxrss``: started from the
benchmark, whose own memory holds the generated inputs and the oracle's
graphs, a small child would report the parent's peak instead of its own.
The command is killed once the timeout passes.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time


def main(argv) -> int:
    sep = argv.index("--")
    timeout = float(argv[argv.index("--timeout") + 1])
    command = argv[sep + 1:]
    t0 = time.perf_counter()
    proc = subprocess.Popen(command, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL)
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    print(json.dumps({"wall_s": wall, "exit_code": proc.returncode,
                      "rss_mb": usage.ru_maxrss / 1024.0}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
