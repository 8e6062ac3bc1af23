"""Mergeable value distributions with exact sums and geometric histograms.

A Distribution accumulates observed standard-unit values. It always
maintains the bucketed histogram; alongside it, raw samples are kept
until ``exact_cap`` is exceeded, after which they are dropped and stats
fall back to histogram estimates. Merging is commutative and associative,
and every derived artifact (sum expansion, histogram, sorted samples) is
a pure function of the observed multiset, so shards can be combined in
any order and still serialize byte-identically.

The sum is one exact integer: every finite double is a whole multiple of
2**-1074, the smallest subnormal, so ``_sum`` counts those units and a
Python int adds them without rounding, in any order (a long accumulator
in the sense of Kulisch). ``sum()`` is that integer correctly rounded to
a float, and ``sum_partials()`` its greedy round-to-nearest expansion.
"""

from __future__ import annotations

import math
from collections import Counter

from . import kernels

DEFAULT_EXACT_CAP = 4096

_ONE = 1 << 1074  # 1.0 in units of 2**-1074
# halfway from the largest double to 2**1024, in units: exact sums this
# large round (ties to even) to an infinite float
_OVERFLOW = (1 << 2098) - (1 << 2044)


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

    # ------------------------------------------------------------------
    # ingestion

    def observe(self, value: float) -> None:
        if not math.isfinite(value):
            raise ValueError(f"cannot observe non-finite value {value!r}")
        value = value + 0.0  # fold -0.0
        self._sum = checked_sum(self._sum + exact_units(value))
        self.count += 1
        if self.minimum is None or value < self.minimum:
            self.minimum = value
        if self.maximum is None or value > self.maximum:
            self.maximum = value
        self.buckets[kernels.bucket_index(value)] += 1
        if self.exact is not None:
            self.exact.append(value)
            if len(self.exact) > self.exact_cap:
                self.exact = None  # spill: histogram already has everything

    def validate(self) -> None:
        """Raise ValueError unless the fields describe one multiset of values.

        Bucket counts must be positive and add up to ``count``; min and max
        must be ordered and fall in the lowest and highest buckets; kept
        samples must number ``count``, fit under ``exact_cap`` and run from
        min to max. The checks are C-level passes over the buckets and
        samples: nothing is re-bucketed or re-summed.
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
            len(exact) != count or count > self.exact_cap or min(exact) != lo or max(exact) != hi
        ):
            raise ValueError(
                "kept samples must number the count, fit under exact_cap and run from min to max"
            )

    # ------------------------------------------------------------------
    # monoid structure

    def copy(self) -> "Distribution":
        out = Distribution(self.exact_cap)
        out.count = self.count
        out.minimum = self.minimum
        out.maximum = self.maximum
        out._sum = self._sum
        out.buckets = Counter(self.buckets)
        out.exact = None if self.exact is None else list(self.exact)
        return out

    def update(self, other: "Distribution") -> None:
        """Fold another summary into this one in place; ``other`` is not mutated."""
        if self.exact_cap != other.exact_cap:
            raise ValueError(
                f"exact_cap mismatch: {self.exact_cap} vs {other.exact_cap}"
            )
        self._sum = checked_sum(self._sum + other._sum)
        if other.count:
            if self.count:
                self.minimum = min(self.minimum, other.minimum)
                self.maximum = max(self.maximum, other.maximum)
            else:
                self.minimum, self.maximum = other.minimum, other.maximum
        self.count += other.count
        self.buckets.update(other.buckets)
        if self.exact is not None:
            if other.exact is None or len(self.exact) + len(other.exact) > self.exact_cap:
                self.exact = None
            else:
                self.exact.extend(other.exact)

    def merge(self, other: "Distribution") -> "Distribution":
        """Combine two summaries; neither input is mutated."""
        out = self.copy()
        out.update(other)
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, Distribution):
            return NotImplemented
        mine = None if self.exact is None else sorted(self.exact)
        theirs = None if other.exact is None else sorted(other.exact)
        return (
            self.count == other.count
            and self.minimum == other.minimum
            and self.maximum == other.maximum
            and self._sum == other._sum
            and +self.buckets == +other.buckets
            and mine == theirs
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
        return sorted(self.exact)

    def order_statistic(self, rank: int) -> float:
        """Value of the rank-th smallest sample (1-indexed).

        Exact when raw samples are retained; otherwise estimated from the
        histogram by geometric interpolation inside the covering bucket,
        which keeps the result within one bucket width of the true sample
        for values inside the covered magnitude range.
        """
        if not 1 <= rank <= self.count:
            raise ValueError(f"rank {rank} outside 1..{self.count}")
        if self.exact is not None:
            return self.sorted_exact()[rank - 1]
        seen = 0
        for bid in sorted(self.buckets):
            n = self.buckets[bid]
            if rank <= seen + n:
                return _bucket_value(bid, rank - seen, n)
            seen += n
        raise AssertionError("bucket mass does not cover count")

    def median(self) -> float:
        """Median with a geometric midpoint for even same-sign middles."""
        if self.count == 0:
            raise ValueError("median of empty distribution")
        n = self.count
        if n % 2 == 1:
            return self.order_statistic(n // 2 + 1)
        a = self.order_statistic(n // 2)
        b = self.order_statistic(n // 2 + 1)
        return _middle(a, b)

    def quantile(self, q: float) -> float:
        """Order statistic at fraction q, interpolating between ranks."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile fraction must be in [0, 1]")
        if self.count == 0:
            raise ValueError("quantile of empty distribution")
        pos = 1 + q * (self.count - 1)
        lo_rank = math.floor(pos)
        hi_rank = math.ceil(pos)
        lo = self.order_statistic(lo_rank)
        if hi_rank == lo_rank:
            return lo
        hi = self.order_statistic(hi_rank)
        frac = pos - lo_rank
        if lo > 0 and hi > 0:
            return lo * (hi / lo) ** frac
        if lo < 0 and hi < 0:
            return -(-lo) * ((-hi) / (-lo)) ** frac
        return lo + (hi - lo) * frac

    def stats(self) -> dict:
        """Summary fields used by query answers and exports."""
        if self.count == 0:
            raise ValueError("stats of empty distribution")
        return {
            "median": self.median(),
            "mean": self.mean(),
            "p5": self.quantile(0.05),
            "p95": self.quantile(0.95),
            "min": self.minimum,
            "max": self.maximum,
            "count": self.count,
        }


def _middle(a: float, b: float) -> float:
    """Midpoint of the two central samples: geometric when signs agree."""
    if a > 0 and b > 0:
        return math.sqrt(a) * math.sqrt(b)
    if a < 0 and b < 0:
        return -(math.sqrt(-a) * math.sqrt(-b))
    return (a + b) / 2.0


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
