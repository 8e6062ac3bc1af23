"""Mergeable value distributions with exact sums and geometric histograms.

A Distribution summarises a multiset of standard-unit values: count,
extrema, exact sum and bucketed histogram, and the values themselves
(kept samples) up to ``exact_cap``; past the cap they are dropped and
stats fall back to histogram estimates, clamped into the exact
[minimum, maximum]. A kept Distribution holds its samples in ascending
order: ``Distribution.of``, the one way to build a summary from values,
sorts the list it takes over when it keeps it, ``update`` keeps the order,
and medians and quantiles index the list directly. ``of`` builds every
field from a batch in one pass per field, the kept samples or, past the
cap, the spilled summary. Folding with ``update`` is commutative and
associative, and every derived artifact (sum expansion, histogram, kept
samples) is a pure function of the multiset, so shards can be combined in
any order and still serialize byte-identically.

The sum is one exact integer: every finite double is a whole multiple of
2**-1074, the smallest subnormal, so ``_sum`` counts those units and a
Python int adds them without rounding, in any order (a long accumulator
in the sense of Kulisch). ``sum()`` is that integer correctly rounded to
a float, and ``sum_partials()`` its greedy round-to-nearest expansion.
Only values of magnitude ``HUGE`` or more can carry a sum past the float
range: below it, that would take more than 2**63 values. So a count stays
below ``COUNT_LIMIT``, 2**63: ``update`` refuses a fold that would reach it.
"""

from __future__ import annotations

import math
import operator
from collections import Counter

from . import kernels

DEFAULT_EXACT_CAP = 4096

_ONE = 1 << 1074  # 1.0 in units of 2**-1074
# halfway from the largest double to 2**1024, in units: exact sums this
# large round (ties to even) to an infinite float
_OVERFLOW = (1 << 2098) - (1 << 2044)
HUGE = 2.0**960
COUNT_LIMIT = 1 << 63


def exact_units(x: float) -> int:
    """A finite float as an exact integer count of 2**-1074."""
    n, d = x.as_integer_ratio()
    return n << (1075 - d.bit_length())


def checked_sum(total: int) -> int:
    """``total`` itself, unless it would round to an infinite float."""
    if abs(total) >= _OVERFLOW:
        raise OverflowError("running sum overflowed float range")
    return total


class Distribution:
    """Streaming multiset summary: count, extrema, exact sum, histogram."""

    __slots__ = ("count", "minimum", "maximum", "_sum", "buckets", "exact", "exact_cap")

    def __init__(self, exact_cap: int = DEFAULT_EXACT_CAP):
        if exact_cap < 0:
            raise ValueError("exact_cap must be >= 0")
        self.count = 0
        self.minimum: float | None = None
        self.maximum: float | None = None
        self._sum = 0
        self.buckets: Counter[int] = Counter()
        self.exact: list[float] | None = []
        self.exact_cap = exact_cap

    @classmethod
    def of(cls, samples: list[float], exact_cap: int = DEFAULT_EXACT_CAP) -> "Distribution":
        """The summary of ``samples``, a list it takes over: it keeps them sorted, or
        past ``exact_cap`` spills them, and builds each field in one pass.

        ValueError for a non-finite sample; OverflowError for a sum past the float range.
        """
        if not all(map(math.isfinite, samples)):
            raise ValueError("non-finite sample")
        if 0.0 in samples:
            samples = [v + 0.0 for v in samples]  # fold -0.0
        out = cls.__new__(cls)  # every slot is set here
        out.exact_cap, out.count = exact_cap, len(samples)
        if len(samples) <= exact_cap:
            samples.sort()
            out.exact = samples
            out.minimum, out.maximum = (samples[0], samples[-1]) if samples else (None, None)
        else:
            out.exact = None
            out.minimum, out.maximum = min(samples), max(samples)
        out._sum = checked_sum(sum(map(exact_units, samples)))
        out.buckets = kernels.accumulate(samples)
        return out

    def validate(self) -> None:
        """Raise ValueError unless the fields describe one multiset of values.

        Bucket counts must be positive and add up to ``count``; min and max
        must be ordered and fall in the lowest and highest buckets; kept
        samples must number ``count``, fit under ``exact_cap`` and ascend from
        min to max, and a summary without them must count more than
        ``exact_cap``, since only a spill past the cap drops them. The
        checks are C-level passes over the buckets and samples: nothing is
        re-bucketed or re-summed.
        """
        count, lo, hi, buckets, exact = (
            self.count, self.minimum, self.maximum, self.buckets, self.exact
        )
        if not count:
            if buckets or exact or lo is not None or hi is not None or self._sum:
                raise ValueError("an empty distribution holds values")
            return
        if sum(buckets.values()) != count or min(buckets.values()) < 1:
            raise ValueError("bucket counts must be positive and add up to the count")
        if not lo <= hi:
            raise ValueError(f"min {lo!r} exceeds max {hi!r}")
        low_id = kernels.bucket_index(lo)
        high_id = low_id if hi == lo else kernels.bucket_index(hi)
        if low_id != min(buckets) or high_id != max(buckets):
            raise ValueError("min and max do not fall in the lowest and highest buckets")
        if exact is not None and (
            len(exact) != count
            or count > self.exact_cap
            or exact[0] != lo
            or exact[-1] != hi
            or not all(map(operator.le, exact, exact[1:]))
        ):
            raise ValueError(
                "kept samples must number the count, fit under exact_cap"
                " and run from min to max in ascending order"
            )
        if exact is None and count <= self.exact_cap:
            raise ValueError(
                f"a spilled summary must count more than exact_cap {self.exact_cap}"
            )

    # ------------------------------------------------------------------
    # monoid structure

    def update(self, other: "Distribution") -> None:
        """Fold another summary into this one in place; ``other`` is not mutated.

        OverflowError, with nothing changed, for a count that would reach ``COUNT_LIMIT``.
        """
        if self.exact_cap != other.exact_cap:
            raise ValueError(
                f"exact_cap mismatch: {self.exact_cap} vs {other.exact_cap}"
            )
        if self.count + other.count >= COUNT_LIMIT:
            raise OverflowError("count past 2**63 - 1")
        if not self.count:  # share the immutable sum: an exact sum is a large int
            self._sum, self.minimum, self.maximum = other._sum, other.minimum, other.maximum
        elif other.count:
            self._sum = checked_sum(self._sum + other._sum)
            self.minimum = min(self.minimum, other.minimum)
            self.maximum = max(self.maximum, other.maximum)
        self.count += other.count
        buckets = self.buckets
        if buckets:  # item by item: Counter.update would first check for a Mapping
            for index, n in other.buckets.items():
                buckets[index] += n
        else:
            dict.update(buckets, other.buckets)
        if self.exact is not None:
            if other.exact is None or len(self.exact) + len(other.exact) > self.exact_cap:
                self.exact = None
            else:  # timsort merges the two ascending runs in linear time
                self.exact.extend(other.exact)
                self.exact.sort()

    def __eq__(self, other) -> bool:
        if not isinstance(other, Distribution):
            return NotImplemented
        return (
            self.count == other.count
            and self.minimum == other.minimum
            and self.maximum == other.maximum
            and self._sum == other._sum
            and +self.buckets == +other.buckets
            and self.exact == other.exact
            and self.exact_cap == other.exact_cap
        )

    def __repr__(self) -> str:
        mode = "exact" if self.exact is not None else "histogram"
        return f"Distribution(count={self.count}, mode={mode})"

    # ------------------------------------------------------------------
    # derived statistics

    @property
    def is_exact(self) -> bool:
        return self.exact is not None

    def sum_partials(self) -> list[float]:
        """Greedy round-to-nearest expansion of the exact sum.

        Each part is the remaining exact sum rounded to a float, so the
        parts are non-overlapping, largest first, and add up exactly to
        the sum; an all-zero sum gives ``[]``.
        """
        out = []
        rest = self._sum
        while rest:
            hi = rest / _ONE
            out.append(hi)
            rest -= exact_units(hi)
        return out

    def sum(self) -> float:
        return self._sum / _ONE

    def mean(self) -> float:
        if self.count == 0:
            raise ValueError("mean of empty distribution")
        return self.sum() / self.count

    def sorted_exact(self) -> list[float]:
        if self.exact is None:
            raise ValueError("exact samples were spilled")
        return self.exact[:]

    def _ranked(self):
        """Values in ascending order, rank r at index r - 1.

        Kept samples are that list already. Otherwise each value is a histogram
        estimate, within one bucket width of the true sample for magnitudes
        inside the covered range, and clamped into [minimum, maximum].
        """
        if self.exact is not None:
            return self.exact
        return _HistogramRanks(self.buckets, self.minimum, self.maximum)

    def median(self) -> float:
        """Median with a geometric midpoint for even same-sign middles."""
        if self.count == 0:
            raise ValueError("median of empty distribution")
        return self._median(self._ranked())

    def _median(self, ranked) -> float:
        n = self.count
        if n % 2 == 1:
            return ranked[n // 2]
        return _middle(ranked[n // 2 - 1], ranked[n // 2])

    def quantile(self, q: float) -> float:
        """Order statistic at fraction q, interpolating between ranks."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile fraction must be in [0, 1]")
        if self.count == 0:
            raise ValueError("quantile of empty distribution")
        return self._quantile(q, self._ranked())

    def _quantile(self, q: float, ranked) -> float:
        pos = 1 + q * (self.count - 1)
        lo_rank = math.floor(pos)
        hi_rank = math.ceil(pos)
        lo = ranked[lo_rank - 1]
        if hi_rank == lo_rank:
            return lo
        hi = ranked[hi_rank - 1]
        frac = pos - lo_rank
        # weighted so that no intermediate leaves the float range
        if lo > 0 and hi > 0:
            between = lo ** (1 - frac) * hi**frac
        elif lo < 0 and hi < 0:
            between = -((-lo) ** (1 - frac) * (-hi) ** frac)
        else:
            between = lo * (1 - frac) + hi * frac
        return lo if between < lo else hi if between > hi else between  # rounding stays inside

    def stats(self) -> dict:
        """Summary fields used by query answers and exports."""
        if self.count == 0:
            raise ValueError("stats of empty distribution")
        ranked = self._ranked()
        return {
            "median": self._median(ranked),
            "mean": self.mean(),
            "p5": self._quantile(0.05, ranked),
            "p95": self._quantile(0.95, ranked),
            "min": self.minimum,
            "max": self.maximum,
            "count": self.count,
        }

    def density_points(self) -> list[tuple[float, float]]:
        """(bucket_center, density) pairs for plotting, ascending.

        Density integrates to 1 over the value axis; the zero bucket has
        no width, so its point carries probability mass instead.
        """
        points = []
        for bid in sorted(self.buckets):
            n = self.buckets[bid]
            lo, hi = kernels.bucket_bounds(bid)
            if bid == 0:
                points.append((0.0, n / self.count))
            else:
                points.append(((lo + hi) / 2.0, n / (self.count * (hi - lo))))
        return points


class _HistogramRanks:
    """Histogram estimates of the samples in ascending order, indexed like a list."""

    def __init__(self, buckets: Counter, low: float, high: float):
        self.buckets = sorted(buckets.items())
        self.low, self.high = low, high

    def __getitem__(self, index: int) -> float:
        rank = index + 1
        seen = 0
        for bid, n in self.buckets:
            if rank <= seen + n:
                estimate = _bucket_value(bid, rank - seen, n)
                return self.low if estimate < self.low else min(estimate, self.high)
            seen += n
        raise AssertionError("bucket mass does not cover count")


def _middle(a: float, b: float) -> float:
    """Midpoint of the two central samples, ``a <= b``: geometric when signs agree."""
    if a > 0 and b > 0:
        between = math.sqrt(a) * math.sqrt(b)
    elif a < 0 and b < 0:
        between = -(math.sqrt(-a) * math.sqrt(-b))
    else:
        between = (a + b) / 2.0
    return a if between < a else b if between > b else between  # rounding stays inside


def _bucket_value(signed_id: int, j: int, n: int) -> float:
    """Estimated value of the j-th of n samples (in value order) in a bucket."""
    if signed_id == 0:
        return 0.0
    f = (j - 0.5) / n
    p = abs(signed_id) - 1
    if signed_id < 0:
        # value order inside a negative bucket descends in magnitude
        f = 1.0 - f
    mag = 10.0 ** ((p + f) / kernels.BUCKETS_PER_DECADE - kernels.DECADES_BELOW)
    return mag if signed_id > 0 else -mag
