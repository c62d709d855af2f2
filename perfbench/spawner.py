"""Runs the benchmark's subprocesses one at a time, from a small process.

On Linux a child's ``ru_maxrss`` includes the high-water mark of the
address space it had before ``exec``; with ``vfork`` that is the address
space of the process that spawned it. Spawned from the benchmark process,
which holds numpy and large arrays, every command would be charged with
that process's peak. This process imports nothing large, so the peak RSS
that ``wait4`` reports here is the command's own, above a floor of about
a bare interpreter.

Protocol: one JSON request per line on stdin,
``{"argv": [...], "stdout": path, "stderr": path}``; one JSON reply per
line on stdout, ``{"returncode": int, "latency": s, "maxrss_kib": int}``,
with latency from spawn to exit. The process ends when stdin closes.
"""

import json
import os
import subprocess
import sys
import time


def main() -> None:
    for line in sys.stdin:
        request = json.loads(line)
        with open(request["stdout"], "wb") as out, open(request["stderr"], "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(request["argv"], stdout=out, stderr=err)
            _, status, usage = os.wait4(proc.pid, 0)
            latency = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        reply = {"returncode": proc.returncode, "latency": latency, "maxrss_kib": usage.ru_maxrss}
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
