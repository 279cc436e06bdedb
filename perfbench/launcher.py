"""Runs commands for run.py and reports their wall time and peak RSS.

Linux carries the parent's peak RSS into a child across fork and exec, so
``ru_maxrss`` of a command spawned straight from the benchmark process would
read at least the benchmark's own peak.  This launcher stays small: it
imports nothing beyond the standard library, reads one JSON request per
line on stdin and answers one JSON line per request on stdout:

    {"argv": [...], "env": {...}, "cwd": "...", "stdout": "path",
     "stderr": "path", "timeout": seconds}
    -> {"rc": int, "wall_s": float, "maxrss_kb": int}

A command still running after ``timeout`` seconds is killed.  The launcher
exits when stdin closes.
"""

import json
import os
import signal
import sys
import time


def run(req: dict) -> dict:
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [(os.POSIX_SPAWN_OPEN, 1, req["stdout"], flags, 0o644),
               (os.POSIX_SPAWN_OPEN, 2, req["stderr"], flags, 0o644)]
    os.chdir(req["cwd"])
    t0 = time.perf_counter()
    pid = os.posix_spawn(req["argv"][0], req["argv"], req["env"], file_actions=actions)
    signal.signal(signal.SIGALRM, lambda *_: os.kill(pid, signal.SIGKILL))
    signal.setitimer(signal.ITIMER_REAL, max(req["timeout"], 0.001))
    try:
        _, status, usage = os.wait4(pid, 0)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    wall = time.perf_counter() - t0
    return {"rc": os.waitstatus_to_exitcode(status), "wall_s": wall,
            "maxrss_kb": usage.ru_maxrss}


def main() -> None:
    for line in sys.stdin:
        sys.stdout.write(json.dumps(run(json.loads(line))) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
