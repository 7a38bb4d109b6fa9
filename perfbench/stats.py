"""The benchmark's own arithmetic, kept free of I/O so test_stats.py can
check it without building anything."""

import math

MASK64 = (1 << 64) - 1

# Percentile levels a timing may be reported at, lowest first.
TAIL_LEVELS = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)


def tail_percentile(values, beyond=10):
    """Highest level in TAIL_LEVELS whose nearest-rank sample still has at
    least `beyond` samples above it, as (level, value); None when there
    are too few samples for any level."""
    xs = sorted(values)
    n = len(xs)
    best = None
    for level in TAIL_LEVELS:
        rank = max(1, math.ceil(level / 100.0 * n))
        if n - rank >= beyond:
            best = (level, xs[rank - 1])
    return best


def geomean(values):
    xs = list(values)
    if not xs or any(x <= 0 for x in xs):
        raise ValueError("geometric mean needs positive values")
    return math.exp(sum(math.log(x) for x in xs) / len(xs))


def two_length_fit(k1, t1, k2, t2):
    """Fit t = fixed + k * per_step through runs of k1 and k2 steps;
    returns (fixed, per_step)."""
    if k1 == k2:
        raise ValueError("two distinct run lengths are needed")
    per_step = (t2 - t1) / (k2 - k1)
    return t1 - k1 * per_step, per_step


def within_tolerance(value, reference, rel_tol):
    """True when value is within rel_tol of reference (relative to the
    reference); rel_tol == 0 demands an exact match."""
    if value is None or reference is None or not math.isfinite(value):
        return False
    if rel_tol == 0:
        return value == reference
    return abs(value - reference) <= rel_tol * abs(reference)


class FailCount:
    """Failed operations against attempted ones. An operation is one app
    run, one BabelStream run or one report cell."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons = []

    def add(self, attempted, failed=0, reason=None):
        if attempted < 0 or failed < 0 or failed > attempted:
            raise ValueError("need 0 <= failed <= attempted")
        self.attempted += attempted
        self.failed += failed
        if failed and reason and len(self.reasons) < 20:
            self.reasons.append(reason)

    def ratio(self):
        return self.failed / self.attempted if self.attempted else 0.0


def _splitmix64(state):
    state = (state + 0x9E3779B97F4A7C15) & MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return state, z ^ (z >> 31)


def interleave(items, seed, pass_index):
    """The order a pass runs `items` in: a Fisher-Yates shuffle driven by
    splitmix64 over (seed, pass_index). The seed decides only the order;
    every pass runs every item exactly once."""
    out = list(items)
    state = ((seed & MASK64) * 0x100000001B3 + pass_index) & MASK64
    for i in range(len(out) - 1, 0, -1):
        state, r = _splitmix64(state)
        j = r % (i + 1)
        out[i], out[j] = out[j], out[i]
    return out


def self_times(events):
    """Per-layer span totals from Chrome trace events that carry
    args.id/args.parent: {layer: {"spans", "total_us", "self_us"}}.
    A span's self time is its duration minus its children's."""
    child_us = {}
    for e in events:
        parent = e["args"]["parent"]
        if parent >= 0:
            child_us[parent] = child_us.get(parent, 0.0) + e["dur"]
    table = {}
    for e in events:
        row = table.setdefault(e["cat"],
                               {"spans": 0, "total_us": 0.0, "self_us": 0.0})
        row["spans"] += 1
        row["total_us"] += e["dur"]
        row["self_us"] += e["dur"] - child_us.get(e["args"]["id"], 0.0)
    return table
