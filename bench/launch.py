"""Run one command and print its resource use as JSON.

Usage: python3 bench/launch.py TIMEOUT_S LOG -- COMMAND [ARG ...]

The command's standard output and error go to LOG. The printed object has
``wall_s``, ``cpu_s`` (user plus system time of the command and the
descendants it waited for, from ``wait4``), ``peak_rss_mb`` (the largest
resident set among them, or this launcher's own, about 13 MB, if larger)
and ``returncode``; a command still running after TIMEOUT_S seconds is
killed.

The benchmark starts every measured command through this small process
instead of directly: on Linux a process inherits, at exec, the peak
resident set of the process that started it, so a command started by the
benchmark itself would report the benchmark's memory instead of its own.
"""

import json
import os
import signal
import sys
import time


def main(argv: list[str]) -> int:
    if len(argv) < 4 or argv[2] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    timeout, log, command = int(argv[0]), argv[1], argv[3:]
    actions = [
        (os.POSIX_SPAWN_OPEN, 1, log, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
        (os.POSIX_SPAWN_DUP2, 1, 2),
    ]
    start = time.perf_counter()
    pid = os.posix_spawnp(command[0], command, os.environ, file_actions=actions)
    signal.signal(signal.SIGALRM, lambda *_: os.kill(pid, signal.SIGKILL))
    signal.alarm(timeout)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    signal.alarm(0)
    print(
        json.dumps(
            {
                "wall_s": wall,
                "cpu_s": usage.ru_utime + usage.ru_stime,
                "peak_rss_mb": usage.ru_maxrss / 1024.0,
                "returncode": os.waitstatus_to_exitcode(status),
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
