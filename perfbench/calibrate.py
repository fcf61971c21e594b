"""A fixed interpreter workload that gauges the machine's speed.

A shared machine changes speed by up to 1.8x over spells of seconds to
minutes, and a spell can outlast a run. Timing this fixed piece of
work before every timed child of a run gives the run's speed, so the
time metrics can be scaled to a fixed reference speed. It uses only
the standard library, so it does not change when the package does.
"""

from __future__ import annotations

import json
import random
import statistics
import time
import zlib

# A sample's median time on the 2-vCPU machine the bounds were tuned on,
# when it ran fast; time metrics are reported at this speed.
REFERENCE_S = 0.005

_rng = random.Random(0)
_WORDS = ["".join(_rng.choice("abcdefghijklmnopqrstuvwxyz")
                  for _ in range(_rng.randint(3, 9))) for _ in range(2000)]
_TEXT = [" ".join(_rng.choice(_WORDS) for _ in range(12)) for _ in range(200)]


def _work() -> int:
    """String, dict, JSON and zlib work, as in build and extract."""
    counts: dict[str, int] = {}
    for line in _TEXT:
        tokens = line.lower().split()
        for a, b in zip(tokens, tokens[1:]):
            key = a + " " + b
            counts[key] = counts.get(key, 0) + 1
    blob = json.dumps(sorted(counts.items())).encode()
    json.loads(blob)
    return len(zlib.compress(blob, 6))


def sample(seconds: float = 0.05) -> float:
    """Median time of one _work() call over about `seconds`."""
    times = []
    end = time.perf_counter() + seconds
    while not times or time.perf_counter() < end:
        started = time.perf_counter()
        _work()
        times.append(time.perf_counter() - started)
    return statistics.median(times)

