"""Measurement machinery of the benchmark: host-drift probe, spans, children.

Nothing here imports ajc, so the probe and the timing code stay the same
whichever version of the package is being measured.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.sparse as sp

# Probe times that count as nominal host speed: the probes below take about
# this long on an unloaded 2-core x86-64 VM (Python 3.11, numpy 2.4,
# scipy 1.17).  Only the ratio probe/nominal enters a corrected time.
PROBE_NOMINAL_S = 0.010
PROCESS_PROBE_NOMINAL_S = 0.40
PROCESS_PROBE_ARGV = [sys.executable, "-c",
                      "import numpy, scipy.sparse, scipy.sparse.linalg, scipy.linalg, scipy.io"]


class HostProbe:
    """Fixed reference kernel timed around every measured interval.

    The shared host runs the same code 30-80 % slower for stretches of
    seconds, and CPU time tracks wall time, so the slowdown is host speed.
    A measured interval is scaled by PROBE_NOMINAL_S / (mean probe time
    just before and just after it); a probe is the faster of two runs of
    the kernel, which drops most of the kernel's own jitter.  The kernel mixes what the workloads
    do: sparse mat-vecs on a matrix larger than L2 and a Python loop of
    small numpy calls.
    """

    def __init__(self):
        rng = np.random.default_rng(20080462)
        self._matrix = sp.random(20000, 20000, density=5e-4, random_state=rng,
                                 format="csr")
        self._start = rng.random(20000)
        self._table = np.arange(64.0)
        self.samples: list[float] = []

    def _kernel(self) -> float:
        t0 = time.perf_counter()
        x = self._start.copy()
        for _ in range(20):
            x = self._matrix @ x
            x *= 1.0 / x.max()
        acc = 0.0
        for i in range(3000):
            acc += float(np.searchsorted(self._table, i % 64)) + self._table[i % 64]
        return time.perf_counter() - t0

    def probe(self) -> float:
        elapsed = min(self._kernel(), self._kernel())
        self.samples.append(elapsed)
        return elapsed

    @staticmethod
    def factor(before: float, after: float) -> float:
        return PROBE_NOMINAL_S / (0.5 * (before + after))


class ProcessProbe:
    """Fixed fresh process timed around every measured child process.

    How long a fresh interpreter takes to start and import its libraries
    varies with the host independently of compute speed: a CLI child's wall
    time correlates with this probe (r = 0.68 on a 2-core VM) and hardly
    with HostProbe (r = 0.22).  The probe imports numpy and scipy, never
    ajc, so it is the same for every version measured.
    """

    def __init__(self, launcher, cwd, env: dict):
        self._launcher = launcher
        self._cwd = cwd
        self._env = env
        self.samples: list[float] = []

    def probe(self) -> float:
        res = self._launcher.run(PROCESS_PROBE_ARGV, self._cwd, self._env)
        if res.returncode != 0:
            raise RuntimeError(f"process probe failed: {res.stderr}")
        self.samples.append(res.wall_s)
        return res.wall_s

    @staticmethod
    def factor(before: float, after: float) -> float:
        return PROCESS_PROBE_NOMINAL_S / (0.5 * (before + after))


class Tracer:
    """In-memory spans: [name, start, end, parent index, pass id]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.pass_id: int | None = None

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent, self.pass_id])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index][2] = time.perf_counter()

    def self_times(self) -> dict[tuple[int, str], float]:
        """Self time summed per (pass id, span name): own duration minus the
        part covered by direct children."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out: dict[tuple[int, str], float] = {}
        for i, (name, start, end, _, pass_id) in enumerate(self.spans):
            key = (pass_id, name)
            out[key] = out.get(key, 0.0) + (end - start) - child_time[i]
        return out

    def as_records(self) -> list[dict]:
        return [{"name": n, "start": s, "end": e, "parent": p, "pass": k}
                for n, s, e, p, k in self.spans]


class NullTracer:
    """Tracer stand-in for untraced passes: every span is a no-op."""

    _null = nullcontext()

    def span(self, name: str):
        return self._null


@dataclass
class ChildResult:
    returncode: int
    wall_s: float
    peak_rss_mb: float
    stdout: str
    stderr: str


class Launcher:
    """Client of launcher.py, which starts every child of the benchmark.

    Start it before the benchmark process grows: the launcher's own
    resident set is the floor of every child's reported peak RSS.
    """

    def __init__(self):
        self._proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("launcher.py"))],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def run(self, argv: list[str], cwd, env: dict, timeout: float = 170.0) -> ChildResult:
        request = {"argv": argv, "cwd": str(cwd), "env": env, "timeout": timeout}
        self._proc.stdin.write(json.dumps(request) + "\n")
        self._proc.stdin.flush()
        reply = self._proc.stdout.readline()
        if not reply:
            raise RuntimeError("launcher exited")
        return ChildResult(**json.loads(reply))

    def close(self) -> None:
        self._proc.stdin.close()
        try:
            self._proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        self._proc.stdout.close()


def median(values) -> float:
    return float(statistics.median(values))


def tail_percentile(values) -> tuple[int, float] | None:
    """Highest whole percentile with at least ten samples beyond it."""
    n = len(values)
    if n <= 10:
        return None
    ordered = sorted(values)
    p = 100 * (n - 10) // n
    # nearest-rank: the sample at rank ceil(p n / 100) has n - rank >= 10 beyond it
    rank = max(1, -(-p * n // 100))
    return p, float(ordered[rank - 1])
