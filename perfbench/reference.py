"""Host-speed reference for the benchmark: a fixed pure-Python loop over a
large, randomly linked working set, like the simulator's cache arrays.

``bench.Reference`` runs this file as a child process.  It builds its
data once, then, for every line it reads on stdin, times one loop and
prints the seconds.  It imports nothing from the repository, so no change
to the simulator moves its time; only the host's speed does.  Keep it
unchanged: its time defines the reference second of the bounded metrics.
"""

from __future__ import annotations

import gc
import random
import sys
import time

NODES = 400_000
STEPS = 150_000


class Node:
    __slots__ = ("value", "next")


def build():
    nodes = [Node() for _ in range(NODES)]
    order = list(range(NODES))
    random.Random(3).shuffle(order)
    for i, node in enumerate(nodes):
        node.value = i
        node.next = nodes[order[i]]
    return {(i * 2654435761) & 0xFFFFFFFF: node for i, node in enumerate(nodes)}


def loop(index) -> float:
    key = 1
    t0 = time.perf_counter()
    for _ in range(STEPS):
        key = (key * 1103515245 + 12345) & 0x7FFFFFFF
        node = index[((key % NODES) * 2654435761) & 0xFFFFFFFF]
        node.value = node.next.value
    return time.perf_counter() - t0


def main() -> None:
    index = build()
    # The loop allocates nothing; keep collections out of its timing.
    gc.disable()
    for _line in sys.stdin:
        print(repr(loop(index)), flush=True)


if __name__ == "__main__":
    main()
