"""Reference loop that tracks how fast the machine runs this process.

On a shared host the speed a process gets drifts by 20-30 % over seconds
and minutes, and every CPU-bound Python code slows alike.  The benchmark
times this fixed loop after every request, once per started 50 ms of the
request, and rescales the times of a pass by the loop's nominal duration
over its mean duration in that pass, so the drift cancels: a calibrated time
is the time the request would take at the host's nominal speed.
"""

import math
from time import perf_counter

#: Duration of one reference call of each kind at nominal speed (2-core x86
#: host, Python 3.11.7): the units calibrated times are expressed in.
NOMINAL_S = {"mixed": 0.0015, "bigint": 0.002}

#: Big-integer rounds per reference call of each kind.
_ROUNDS = {"mixed": 2, "bigint": 4}

_A = 3 ** 4000 + 12345
_B = 7 ** 3000 + 999


def reference(kind: str = "mixed") -> float:
    """Run the fixed loop once and return its duration.  The "mixed" loop
    does interpreter-bound dict and small-int work and then big-integer gcd
    and multiplication; the "bigint" loop does only the latter, like the
    exact orbits, whose time is almost all big-integer arithmetic."""
    start = perf_counter()
    acc = 0
    if kind == "mixed":
        table = {}
        for i in range(3000):
            table[i & 255] = table.get(i & 255, 0) + i
            acc = (acc * 31 + i) % 1_000_000_007
    x = _A
    for i in range(_ROUNDS[kind]):
        acc += math.gcd(x, _B)
        x = (x * (_B + i)) >> 4000
    return perf_counter() - start


def factor(samples, kind: str = "mixed") -> float:
    """Scale that converts times measured alongside `samples` to nominal speed."""
    return NOMINAL_S[kind] * len(samples) / sum(samples)


def samples_after(latency: float, kind: str = "mixed") -> list[float]:
    """Reference durations sampled after a request, one per started 50 ms,
    so that long requests weigh as much in the factor as in the pass."""
    return [reference(kind) for _ in range(1 + int(latency / 0.05))]
