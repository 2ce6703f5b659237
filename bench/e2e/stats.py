"""Statistics and verdicts of the end-to-end benchmark.

Pure functions over the raw samples e2e_bench prints; run.py applies them
and test_stats.py checks them. Conventions:

* a failed request (rejected, expired, errored) is a latency of +inf, so
  it counts as missing every latency limit and pushes every percentile up;
* a percentile is reported only when at least ten samples lie beyond it
  (so p99 needs 1000 samples, p98 500, p95 200);
* a bound is the share of the baseline's median by which a metric may get
  worse ("rel"), or an absolute amount ("abs").
"""

import math
import re
import statistics

# Exit codes of run.py. A run that fails a check prints no result.
EXIT_OK = 0
EXIT_USAGE = 2  # bad arguments, or the repository sources are missing
EXIT_WRONG_OUTPUT = 3  # an output differs from the oracle digest
EXIT_FAILURE = 4  # an unexpected error, crash or timeout
EXIT_INVALID = 5  # the run cannot be trusted (generator lag)

MIN_BEYOND = 10  # samples that must lie beyond a reported percentile
GEN_LAG_LIMIT_MS = 2.0
GEN_LAG_PERCENTILE = 50


class InsufficientSamples(ValueError):
    """A percentile was asked of a sample too small to support it."""


def as_latency(value):
    """JSON null (a failed request) is +inf."""
    return math.inf if value is None else float(value)


def supports(n, p):
    """True when n samples leave at least MIN_BEYOND beyond percentile p."""
    return n - math.ceil(p / 100.0 * n) >= MIN_BEYOND


def percentile(samples, p):
    """Nearest-rank percentile p of samples (None counts as +inf)."""
    values = sorted(as_latency(v) for v in samples)
    if not supports(len(values), p):
        raise InsufficientSamples(
            f"p{p:g} needs {MIN_BEYOND} samples beyond it; have {len(values)}")
    rank = max(1, math.ceil(p / 100.0 * len(values)))
    return values[rank - 1]


def median(values):
    return statistics.median(values)


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(n=4) gives them."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Distance between the quartiles as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else math.inf


def share_within(samples, limit):
    """Share of requests that completed within limit (failures miss)."""
    values = [as_latency(v) for v in samples]
    return sum(v <= limit for v in values) / len(values)


def gen_lag_check(lags_ms, limit_ms=GEN_LAG_LIMIT_MS):
    """(median, invalid) of the open-loop generator lag.

    A generator whose median lag exceeds limit_ms fell behind its schedule,
    so the offered load was not the stated one and the run is invalid.
    The tail is not the test: on a busy shared host, scheduling stalls send
    up to one request in ten a few milliseconds late while the median stays
    near 0.1 ms, and a late request only makes the measured latency worse,
    because latency is timed from the due time.
    """
    if not lags_ms:
        return 0.0, False
    value = percentile(lags_ms, GEN_LAG_PERCENTILE)
    return value, value > limit_ms


def worsening(better, base, value, bound, kind="rel"):
    """(change, regressed): how much worse value is than base.

    change > 0 means worse. kind "rel" measures it as a share of base,
    "abs" in the metric's own unit; regressed when it exceeds bound.
    """
    delta = (base - value) if better == "higher" else (value - base)
    if kind == "abs":
        change = delta
    else:
        change = delta / abs(base) if base else (0.0 if delta == 0 else math.inf)
    return change, change > bound


def oracle_mismatches(oracle, outputs):
    """Keys whose observed digests are not exactly the oracle's."""
    bad = []
    for key, digests in sorted(outputs.items()):
        expected = oracle.get(key)
        if expected is None or set(digests) != {expected}:
            bad.append(key)
    return bad


def verdict(raw):
    """Exit code for one raw run: wrong outputs, then failures, then lag."""
    if oracle_mismatches(raw.get("oracle", {}), raw.get("outputs", {})):
        return EXIT_WRONG_OUTPUT
    if raw.get("errors"):
        return EXIT_FAILURE
    for key in ("main", "traced"):
        if key in raw and gen_lag_check(raw[key]["gen_lag_ms"])[1]:
            return EXIT_INVALID
    return EXIT_OK


_SAMPLE = re.compile(r'^(\w+?)(_bucket\{le="([^"]+)"\}|_sum|_count)?\s+(\S+)$')


def parse_histograms(text):
    """Prometheus text -> {family: {"buckets": [(le, cum)], "sum", "count"}}
    for histograms, plus {name: value} for plain samples under "_plain"."""
    families = {}
    plain = {}
    histos = set(re.findall(r"^# TYPE (\w+) histogram$", text, re.M))
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        m = _SAMPLE.match(line)
        if not m:
            continue
        name, suffix, le, value = m.groups()
        if name in histos and suffix:
            fam = families.setdefault(name, {"buckets": [], "sum": 0.0,
                                             "count": 0.0})
            if le is not None:
                fam["buckets"].append((float(le), float(value)))
            else:
                fam[suffix[1:]] = float(value)
        else:
            plain[line.split()[0]] = float(value)
    families["_plain"] = plain
    return families


def histogram_percentile(family, p):
    """Percentile of a bucketed histogram, interpolated inside the bucket
    (the overflow bucket reports its lower bound), under the same
    samples-beyond rule as percentile()."""
    n = int(family["count"])
    if not supports(n, p):
        raise InsufficientSamples(
            f"p{p:g} needs {MIN_BEYOND} samples beyond it; have {n}")
    rank = max(1, math.ceil(p / 100.0 * n))
    lower, below = 0.0, 0.0
    for le, cum in family["buckets"]:
        if cum >= rank:
            if math.isinf(le):
                return lower
            inside = cum - below
            return lower + (le - lower) * (rank - below) / inside
        lower, below = le, cum
    return lower
