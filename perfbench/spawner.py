"""Start ops for ``run.py`` and report their exit, wall time and peak RSS.

Reads one JSON line ``[argv, stdout_path, stderr_path]`` per op from stdin
and answers with one line ``[exit_code, wall_s, maxrss_kb]``.  It exits at
the end of its input.

On Linux an exec folds the old address space's high-water mark into the
new process's ``ru_maxrss``, so an op started by a large process reports
that process's peak.  ``run.py`` grows while it parses reports; this
helper stays a fresh, small interpreter, below the smallest op.
"""

import json
import os
import signal
import sys
import time


def main() -> int:
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    for line in sys.stdin:
        argv, out, err = json.loads(line)
        actions = [
            (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
            (os.POSIX_SPAWN_OPEN, 1, out, flags, 0o644),
            (os.POSIX_SPAWN_OPEN, 2, err, flags, 0o644),
        ]
        start = time.perf_counter()
        pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=actions)
        try:
            _, status, usage = os.wait4(pid, 0)
        except BaseException:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            raise
        wall = time.perf_counter() - start
        print(json.dumps([os.waitstatus_to_exitcode(status), wall, usage.ru_maxrss]), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
