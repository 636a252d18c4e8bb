"""Start benchmark children from a small process and report on each.

The benchmark's own process holds numpy and the generator's truth. On Linux
a child's ``ru_maxrss`` starts from the size of the process that forked it,
so children are forked from here instead, which stays far smaller than any
maldrift child. One JSON request per stdin line, one JSON reply per line:

    {"argv": [...], "cwd": "...", "stdout": "...", "stderr": "...", "timeout": 60.0}
    {"rc": 0, "wall_s": 1.23, "peak_rss_mb": 80.1}
"""
import json
import os
import subprocess
import sys
import threading
import time


def run(request: dict) -> dict:
    with open(request["stdout"], "wb") as out, open(request["stderr"], "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(request["argv"], cwd=request["cwd"], stdout=out, stderr=err)
        watchdog = threading.Timer(request["timeout"], proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"rc": proc.returncode, "wall_s": wall, "peak_rss_mb": usage.ru_maxrss / 1024.0}


class Spawner:
    """The benchmark's handle on a spawner process, one request at a time."""

    def __init__(self, env: dict):
        self.proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env, text=True,
        )

    def run(self, argv: list, cwd: str, stdout: str, stderr: str, timeout: float) -> dict:
        request = {"argv": argv, "cwd": cwd, "stdout": stdout, "stderr": stderr, "timeout": timeout}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError("the spawner process ended")
        return json.loads(reply)

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def main() -> None:
    for line in sys.stdin:
        print(json.dumps(run(json.loads(line))), flush=True)


if __name__ == "__main__":
    main()
