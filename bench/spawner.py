"""Start CLI requests from a small process and report each one's peak memory.

On Linux a child's ``ru_maxrss`` includes the resident size of the process
that started it: the high-water mark of the address space it replaces at
exec counts.  Requests started straight from the benchmark, which holds
numpy, scipy and qensemble, would all report the benchmark's size.  This
launcher loads only the standard library and is started before the
benchmark imports anything heavy, so the peak it reports for each request
is the request's own.

Protocol: one JSON request per line on stdin (``argv``, ``stdout`` and
``stderr`` paths, ``timeout`` seconds), one JSON reply per line on stdout
(``code``, ``maxrss_kb``).  The launcher exits when stdin closes.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading


class Spawner:
    """Client side: owns one launcher process."""

    def __init__(self, cwd: str, env: dict[str, str]):
        self._proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__)], cwd=cwd, env=env,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def run(self, argv: list[str], stdout: str, stderr: str, timeout: float) -> tuple[int, int]:
        """Run ``argv`` to completion; return (exit code, peak RSS in KiB)."""
        request = {"argv": argv, "stdout": stdout, "stderr": stderr, "timeout": timeout}
        self._proc.stdin.write(json.dumps(request) + "\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError("the CLI launcher exited")
        reply = json.loads(line)
        return reply["code"], reply["maxrss_kb"]

    def close(self) -> None:
        self._proc.stdin.close()
        try:
            self._proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        self._proc.stdout.close()


def serve() -> None:
    for line in sys.stdin:
        req = json.loads(line)
        with open(req["stdout"], "wb") as out, open(req["stderr"], "wb") as err:
            proc = subprocess.Popen(req["argv"], stdin=subprocess.DEVNULL, stdout=out, stderr=err)
            killer = threading.Timer(req["timeout"], proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            proc.returncode = os.waitstatus_to_exitcode(status)
        sys.stdout.write(json.dumps({"code": proc.returncode, "maxrss_kb": usage.ru_maxrss}) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    serve()
