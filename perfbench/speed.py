"""Core-speed probe: scales measured CPU times to a fixed nominal core speed.

On a shared host the speed of a core drifts with load from outside the
machine, by 10-30 % within minutes and at times by a factor of two, so the
same operation's time spreads by more than the benchmark's bounds.  While
the benchmark measures, this probe shares the benchmark's core: every
PERIOD_S it runs a fixed reference computation of about 2 ms twice, the
first time to refill the caches that the measured process evicted, and logs
the CPU time of the second.  A CPU time measured over an interval is scaled by
NOMINAL_S / (mean pass time in that interval).  For one process running
``sin_polish`` seven times, CPU times spread from 16.5 s to 21.1 s while the
scaled times stayed within 3 % of their median.

The kernel, NOMINAL_S and PERIOD_S are part of the benchmark's definition;
changing any of them breaks comparison with earlier results.  The kernel
uses no program code, so a change to the program cannot move it.

    python3 perfbench/speed.py <log file> <max seconds>
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time

NOMINAL_S = 0.0024  # one pass of kernel() on the reference core
PERIOD_S = 0.05  # two passes each period: about 9 % of the core


def kernel(np, a) -> None:
    """Small numpy array arithmetic and a pure-Python loop, like the
    program's own hot paths."""
    acc = 0.0
    for _ in range(230):
        acc += float(np.sum(np.sqrt(a * a + 1.0)))
    x = 0
    for i in range(4000):
        x += i * i % 7


class SpeedProbe:
    """Runs the probe process, on the caller's CPUs, for a ``with`` block."""

    def __init__(self, log_path: str, max_seconds: float, env: dict | None = None):
        self.log_path = log_path
        self.max_seconds = max_seconds
        self.env = env
        self.samples: list[tuple[float, float]] = []

    def __enter__(self):
        self.proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), self.log_path, repr(self.max_seconds)],
            env=self.env, stdout=subprocess.DEVNULL)
        return self

    def __exit__(self, *exc):
        self.proc.terminate()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        try:
            with open(self.log_path, encoding="utf-8") as fh:
                self.samples = [(float(a), float(b)) for a, b in
                                (line.split() for line in fh) if b]
        except (OSError, ValueError):
            self.samples = []
        return False

    def factor(self, t0: float, t1: float) -> float:
        """NOMINAL_S / mean pass time of the passes that start within
        [t0, t1] (time.monotonic seconds); all passes if none do; 1 if the
        probe logged nothing."""
        inside = [d for start, d in self.samples if t0 <= start <= t1]
        passes = inside or [d for _, d in self.samples]
        return NOMINAL_S * len(passes) / sum(passes) if passes else 1.0

    def scale(self, samples: list[dict]) -> list[float]:
        """Each sample's ``cpu_s`` at nominal speed over its [t0, t1]."""
        return [x["cpu_s"] * self.factor(x["t0"], x["t1"]) for x in samples]

    def describe(self) -> str:
        passes = sorted(d for _, d in self.samples)
        median = passes[len(passes) // 2] * 1e3 if passes else float("nan")
        return (f"core speed: probe pass median {median:.3f} ms over {len(passes)} passes "
                f"(nominal {NOMINAL_S * 1e3:g} ms)")


def main(argv=None) -> int:
    import numpy as np

    log_path, max_seconds = (argv or sys.argv[1:])[:2]
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(0))
    a = np.linspace(0.0, 1.0, 401)
    deadline = time.monotonic() + float(max_seconds)
    with open(log_path, "w", encoding="utf-8", buffering=1) as fh:
        while time.monotonic() < deadline:
            t0 = time.monotonic()
            kernel(np, a)  # refills the caches the other process evicted
            c0 = time.thread_time()
            kernel(np, a)
            fh.write(f"{t0:.6f} {time.thread_time() - c0:.7f}\n")
            time.sleep(max(0.0, PERIOD_S - (time.monotonic() - t0)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
