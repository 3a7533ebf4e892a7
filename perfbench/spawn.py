"""Run one command and write its wall time, peak RSS and exit code as JSON.

    python3 perfbench/spawn.py <limit s> <result.json> <argv...>

Linux carries a process's peak RSS across exec, so a command started
directly by the benchmark, which holds the generated workload in memory,
would report the benchmark's own peak.  This small process starts it
instead.  The command is killed after <limit> seconds.
"""

import json
import os
import signal
import subprocess
import sys
import time


def main(argv):
    limit, result_path, command = float(argv[0]), argv[1], argv[2:]
    start = time.perf_counter()
    proc = subprocess.Popen(command, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL)
    # the pid stays this child's until wait4 reaps it, so the alarm cannot hit another process
    signal.signal(signal.SIGALRM, lambda *_: os.kill(proc.pid, signal.SIGKILL))
    signal.setitimer(signal.ITIMER_REAL, limit)
    os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
    wall = time.perf_counter() - start
    signal.setitimer(signal.ITIMER_REAL, 0)
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump({"wall_s": wall, "peak_rss_mb": usage.ru_maxrss / 1024.0,
                   "exit_code": proc.returncode}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
