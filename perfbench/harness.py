"""Pure helpers of the benchmark: schedules, statistics and output checks.

Everything here is deterministic and free of I/O so that the self-tests
in perfbench/tests can pin it down.
"""

import json
import math
import random
from dataclasses import dataclass

# The seven sub-second fig10 kernels and the two whose time is almost all
# in the AU sweep (see README.md for why the split matters).
SMALL_KERNELS = ("matmul", "matchain", "stencil", "qprod", "qrdecomp",
                 "2dconv", "deriche")
AU_KERNELS = ("fft", "sha")

# Kernel orders generated per run: more passes than any run can make.
MAX_PASSES = 200

# Open-loop traffic of the serve_mixed workload: one request in every
# UNCACHED_EVERY bypasses the response cache.
SERVE_RATE_PER_S = 8.0
UNCACHED_EVERY = 4
GOODPUT_LIMIT_MS = 1000.0

# The percentiles the report may pick from, highest last.
REPORT_PERCENTILES = (50, 75, 90, 95, 99, 99.9)
MIN_SAMPLES_BEYOND = 10


def kernel_orders(seed, kernels, passes):
    """One seeded permutation of `kernels` per pass."""
    rng = random.Random(f"order:{seed}")
    return [rng.sample(list(kernels), len(kernels)) for _ in range(passes)]


@dataclass(frozen=True)
class ServeRequest:
    """One scheduled daemon request."""
    index: int
    due_s: float      # seconds after the schedule starts
    kernel: str
    cached: bool      # False sends "cache": false


def serve_schedule(seed, seconds):
    """Poisson arrivals at SERVE_RATE_PER_S over `seconds`.  Each block of
    UNCACHED_EVERY consecutive requests has one, at a seeded place, that
    asks to bypass the response cache.  Each class walks through seeded
    permutations of SMALL_KERNELS, so every run sends each kernel about
    equally often in each class; latency percentiles then do not jump
    with the luck of the kernel draw."""
    rng = random.Random(f"serve:{seed}")
    decks = {True: [], False: []}
    block = []
    out = []
    due = 0.0
    while True:
        due += rng.expovariate(SERVE_RATE_PER_S)
        if due >= seconds:
            return out
        if not block:
            block = [False] + [True] * (UNCACHED_EVERY - 1)
            rng.shuffle(block)
        cached = block.pop()
        if not decks[cached]:
            decks[cached] = rng.sample(SMALL_KERNELS, len(SMALL_KERNELS))
        out.append(ServeRequest(len(out), due, decks[cached].pop(), cached))


def _rank(n, p):
    """1-based nearest rank of the p-th percentile of n samples (rounded
    first, so that 99.9% of 10000 is rank 9990, not 9991)."""
    return max(1, math.ceil(round(p / 100.0 * n, 9)))


def percentile(values, p):
    """Nearest-rank percentile of a non-empty sample."""
    return sorted(values)[_rank(len(values), p) - 1]


def samples_beyond(n, p):
    """How many of n samples lie above the nearest-rank p-th percentile."""
    return n - _rank(n, p)


def reportable_percentile(n):
    """The highest report percentile with at least ten samples beyond it,
    or None when even the median has fewer."""
    best = None
    for p in REPORT_PERCENTILES:
        if samples_beyond(n, p) >= MIN_SAMPLES_BEYOND:
            best = p
    return best


def geomean(values):
    return math.exp(sum(math.log(v) for v in values) / len(values))


def strip_seconds(doc):
    """A result document without its wall-clock "seconds" line, the only
    part that may differ between runs of the same analysis."""
    return "\n".join(line for line in doc.split("\n")
                     if not line.lstrip().startswith('"seconds":'))


def same_result(a, b):
    """Whether two result documents are byte-identical apart from their
    "seconds" lines."""
    return a == b or strip_seconds(a) == strip_seconds(b)


def front_of(doc):
    """The (speedup, area) points of a result document's front."""
    return [(s["speedup"], s["areaUm2"]) for s in json.loads(doc)["front"]]


def pareto_problems(front):
    """Why `front` breaks the Pareto invariant: it must start at the
    software-only point (1.0x, 0 um^2), and speedup and area must both
    rise strictly along it.  Empty when it holds."""
    if not front:
        return ["empty front"]
    problems = []
    if front[0] != (1.0, 0.0):
        problems.append(f"front starts at {front[0]}, not (1.0, 0)")
    for prev, cur in zip(front, front[1:]):
        if not (cur[0] > prev[0] and cur[1] > prev[1]):
            problems.append(f"{cur} does not dominate-rise over {prev}")
    return problems


def best_speedup(doc):
    return max(s for s, _ in front_of(doc))
