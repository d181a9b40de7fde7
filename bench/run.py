"""Benchmark of toralg's time to verdict.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Starts one worker process (bench/worker.py) so that set-up can be timed
from process start, waits for it, and passes its output and exit status
through. The worker runs without TORALG_THREADS and with a fixed hash
seed, so that call counts repeat exactly from run to run. See
bench/README.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

WORKER = Path(__file__).resolve().parent / "worker.py"
TIMEOUT_S = 170


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("TORALG_THREADS", None)
    cmd = [sys.executable, str(WORKER), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    # turn SIGTERM into SystemExit so that the finally below stops the worker
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    started = time.monotonic()
    proc = subprocess.Popen(cmd + ["--started", repr(started)], env=env)
    try:
        return proc.wait(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"error: worker did not finish within {TIMEOUT_S} s",
              file=sys.stderr)
        return 1
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


if __name__ == "__main__":
    sys.exit(main())
