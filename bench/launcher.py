"""Starts the benchmark's child processes and reports each one's own peak RSS.

Reads one JSON request per line on stdin: {"argv", "cwd", "env", "timeout"}.
Runs the child to completion and answers one JSON line on stdout:
{"returncode", "wall_s", "peak_rss_mb", "stdout", "stderr"}.  Exits at end
of input.

Why a separate process: a child's ru_maxrss starts from the resident set of
the process that forked it, so children forked from the benchmark process,
which holds a 4-million-nonzero matrix, would all report its size.  This
launcher imports only the standard library and stays small.  os.wait4 gives
the rusage of that one child; RUSAGE_CHILDREN would keep a running maximum
over every child reaped so far.
"""

import json
import os
import subprocess
import sys
import threading
import time


def run_child(argv, cwd, env, timeout):
    out_path = os.path.join(cwd, ".child.out")
    err_path = os.path.join(cwd, ".child.err")
    with open(out_path, "w") as out, open(err_path, "w") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out, stderr=err,
                                stdin=subprocess.DEVNULL)
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path) as out, open(err_path) as err:
        stdout, stderr = out.read(), err.read()
    os.remove(out_path)
    os.remove(err_path)
    return {"returncode": proc.returncode, "wall_s": wall,
            "peak_rss_mb": usage.ru_maxrss / 1024.0, "stdout": stdout, "stderr": stderr}


def main():
    for line in sys.stdin:
        req = json.loads(line)
        reply = run_child(req["argv"], req["cwd"], req["env"], req["timeout"])
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
