"""Spawns and reaps the benchmark's CLI children, one at a time.

Run as a helper process: each stdin line is a JSON request
``{"argv", "env", "stdout", "stderr", "timeout_s"}``; each reply line is
``{"wall_s", "maxrss_kb", "exit_code"}``. Wall time runs from spawn to
reap, so it includes interpreter start. Peak memory is the child's own
``ru_maxrss`` from ``os.wait4`` on that child.

The helper exists because exec keeps the larger of a process's peak RSS
and the peak of the address space it replaces, and a spawned child starts
in its parent's. A child spawned by the benchmark process, which holds the
generated inputs, would report that process's peak; this helper is
started before any input is made and stays small.
"""

import json
import os
import signal
import sys
import time


def spawn_and_reap(argv, env, stdout, stderr, timeout_s):
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, stdout, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, stderr, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
    ]
    t0 = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, env, file_actions=actions)

    def kill(_signum, _frame):
        os.kill(pid, signal.SIGKILL)

    signal.signal(signal.SIGALRM, kill)
    signal.setitimer(signal.ITIMER_REAL, max(timeout_s, 0.001))
    try:
        _, status, usage = os.wait4(pid, 0)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    wall = time.perf_counter() - t0
    return {"wall_s": wall, "maxrss_kb": usage.ru_maxrss, "exit_code": os.waitstatus_to_exitcode(status)}


def main():
    for line in sys.stdin:
        request = json.loads(line)
        reply = spawn_and_reap(request["argv"], request["env"], request["stdout"],
                               request["stderr"], request["timeout_s"])
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
