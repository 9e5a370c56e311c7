"""The machine's speed, measured by two reference kernels run between rounds.

The benchmark shares a few cores of a host with other tenants, and their
speed moves between states 1.3-1.7x apart that last from seconds to
minutes.  A round's wall time alone measures the state as much as the
program, so after its set-up and before and after every timed round the
worker reads a gauge that times two fixed kernels, which import nothing
from mcld and never change with it:

- ``numpy_kernel``: splitmix64 and ``log1p`` over a 512 Ki-element array,
  the kind of long numpy loop that ``edge_arrivals`` runs;
- ``python_kernel``: a heap and a union-find driven from interpreted Python,
  the kind of loop the event engine and the component code run.

``speed_factor`` is each kernel's time over its nominal time (its typical
time on the reference machine), mixed by the share of the workload's time
spent in long numpy loops.  It reads 1 at the reference
speed and 1.4 when the machine runs 1.4x slower; a round's duration divided
by it is the duration the round would have had at the reference speed.
"""

from __future__ import annotations

import heapq
import os
import statistics
import subprocess
import sys
import time

import numpy as np

# Typical kernel times on the reference machine (Intel Xeon, 2 shared vCPUs);
# they set the scale of the reported figures and nothing else.
NOMINAL_NUMPY_S = 0.019
NOMINAL_PYTHON_S = 0.019

_U64 = np.uint64
_NODES = 4096


def numpy_kernel() -> float:
    z = np.arange(1, 1 << 19, dtype=np.uint64) ^ _U64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> _U64(30))) * _U64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> _U64(27))) * _U64(0x94D049BB133111EB)
    z ^= z >> _U64(31)
    u = ((z >> _U64(12)).astype(np.float64) + 0.5) * 2.0 ** -52
    return float(np.log1p(-u).sum())


def python_kernel() -> float:
    heap: list[tuple[float, int, int]] = []
    for i in range(1, 2 * _NODES):
        a, b = (i * 2654435761) % _NODES, (i * 40503) % _NODES
        heapq.heappush(heap, ((a * 0.37 + b) % 1.0, a, b))
    parent = list(range(_NODES))
    merged = 0.0
    while heap:
        t, a, b = heapq.heappop(heap)
        while parent[a] != a:
            a = parent[a]
        while parent[b] != b:
            b = parent[b]
        if a != b:
            parent[max(a, b)] = min(a, b)
            merged += t
    return merged


def speed_factor(numpy_share: float) -> float:
    """Time both kernels once; their times over nominal, mixed by share."""
    began = time.perf_counter()
    numpy_kernel()
    mid = time.perf_counter()
    python_kernel()
    end = time.perf_counter()
    return (numpy_share * (mid - began) / NOMINAL_NUMPY_S
            + (1.0 - numpy_share) * (end - mid) / NOMINAL_PYTHON_S)


def pin_to_current_cpu() -> None:
    """Keep this process, and the gauge it starts next, on the CPU it runs on.

    The host can slow one vCPU and not the other, so a gauge read on the
    other CPU misjudges the rounds' speed: in four feller_ladder runs,
    rates scaled by a gauge in a child process spread 0.065 of their
    median unpinned and 0.034 pinned, against 0.027 for the kernels run in
    the worker itself.  The worker waits while the gauge runs, so the two
    never compete for the CPU.
    """
    if not hasattr(os, "sched_setaffinity"):
        return
    try:
        with open("/proc/self/stat", encoding="ascii") as fh:
            cpu = int(fh.read().rsplit(")", 1)[1].split()[36])
    except (OSError, IndexError, ValueError):
        cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})


class Gauge:
    """``speed_factor`` read in a child process of its own, so that the
    kernels' arrays never count in the worker's peak RSS.  The child runs
    only while the worker waits for its reading, and ends when its input
    closes."""

    def __init__(self, numpy_share: float):
        self._proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), repr(numpy_share)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def read(self) -> float:
        self._proc.stdin.write("\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError(f"speed gauge exited {self._proc.wait()}")
        return float(line)

    def median_read(self, samples: int = 3) -> float:
        """The median of a few readings, for a one-off time such as set-up."""
        return statistics.median(self.read() for _ in range(samples))

    def close(self) -> None:
        try:
            self._proc.stdin.close()
            self._proc.wait(timeout=10)
        except (OSError, subprocess.TimeoutExpired):
            self._proc.kill()
            self._proc.wait()

    def __enter__(self) -> "Gauge":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


if __name__ == "__main__":
    share = float(sys.argv[1])
    speed_factor(share)  # the first reading pays for first-call costs
    for _ in sys.stdin:
        print(speed_factor(share), flush=True)
