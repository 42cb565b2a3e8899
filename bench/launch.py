"""Runs the benchmark's child commands, one at a time, and reports on each.

On Linux a child's ``ru_maxrss`` also counts the resident memory of the process
that spawned it, as it stood when the child called exec.  ``run.py`` holds the
documents, the samples and the search oracle's results, so every child it
spawned would report at least that much.  This process stays small, so the peak
RSS of a child spawned from it is the child's own.

Each line of standard input is one JSON request with the keys ``argv``, ``cwd``,
``out``, ``err`` and ``timeout``.  The child's standard output and error go to
the files ``out`` and ``err``; a child still running after ``timeout`` seconds is
killed.  For each request one JSON line goes to standard output, with the keys
``wall_s``, ``cpu_s`` (user plus system time), ``code`` and ``maxrss_kb``.  The
process ends when its input does.
"""

import json
import os
import signal
import subprocess
import sys
import time


def main():
    current = None

    def on_timeout(signum, frame):
        if current is not None:
            current.kill()

    signal.signal(signal.SIGALRM, on_timeout)
    for line in sys.stdin:
        req = json.loads(line)
        with open(req["out"], "wb") as out, open(req["err"], "wb") as err:
            start = time.perf_counter()
            current = subprocess.Popen(req["argv"], stdout=out, stderr=err, cwd=req["cwd"])
            signal.setitimer(signal.ITIMER_REAL, req["timeout"])
            try:
                _, status, usage = os.wait4(current.pid, 0)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            elapsed = time.perf_counter() - start
        current.returncode = os.waitstatus_to_exitcode(status)
        print(json.dumps({"wall_s": elapsed, "cpu_s": usage.ru_utime + usage.ru_stime,
                          "code": current.returncode, "maxrss_kb": usage.ru_maxrss}),
              flush=True)
        current = None


if __name__ == "__main__":
    main()
