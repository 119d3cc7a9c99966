"""Calibration kernels: fixed pure-Python work, independent of the package.

The machine the benchmark was written on alternates between a fast and a
slow state (see NOTES.md), and code slows by different factors depending
on how it uses memory.  Each workload is calibrated with the kernel whose
slowdown tracked its own: ``records`` for code that walks large graphs
and allocates per-vertex objects, ``loop`` for a tight loop over a few
small lists, like the gadget oracle's.
"""

from __future__ import annotations

import random
from time import perf_counter

_RNG = random.Random(0)
_LARGE = [tuple(_RNG.sample(range(6000), 3)) for _ in range(6000)]
_SMALL = [(w, ((w + 1) % 14, (w + 5) % 14, (w + 9) % 14)) for w in range(14)]


def records() -> int:
    """Majority checks over a fixed 6000-vertex graph, one record per vertex."""
    satisfied = 0
    for rep in range(4):
        colors = tuple((v * 7 + rep) % 2 for v in range(len(_LARGE)))
        checks = []
        for v, targets in enumerate(_LARGE):
            mono = sum(1 for u in targets if colors[u] == colors[v])
            checks.append((mono, len(targets) - mono, 2 * mono <= len(targets)))
        satisfied += sum(1 for check in checks if check[2])
    return satisfied


def loop() -> int:
    """Every 2-coloring of 14 vertices, checked against fixed out-neighbors."""
    colors = [0] * len(_SMALL)
    found = 0
    for mask in range(1 << len(_SMALL)):
        for bit in range(len(_SMALL)):
            colors[bit] = (mask >> bit) & 1
        ok = True
        for w, targets in _SMALL:
            mono = 0
            for t in targets:
                if colors[t] == colors[w]:
                    mono += 1
            if 2 * mono > len(targets):
                ok = False
                break
        if ok:
            found += 1
    return found


# Each kernel with its duration on the reference machine (2-core x86-64
# container, Python 3.11.7) in its fast state.
KERNELS = {"records": (records, 0.0155), "loop": (loop, 0.0170)}


def seconds(kernel) -> float:
    """Duration of one run of ``kernel``."""
    start = perf_counter()
    kernel()
    return perf_counter() - start
