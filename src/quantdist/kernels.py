"""Sign-aware geometric bucketing for value histograms.

Magnitudes are split into 10 buckets per decade across [1e-12, 1e12), with
bucket 0 reserved for exact zero and negative values mirrored to negative
ids, so ascending signed id is ascending value. Values outside the covered
magnitude range land in the nearest edge bucket.

``bucket_index`` is the one bucketing implementation: ``Distribution``
calls it once per observed value, through this module's attribute, so a
tracer that replaces the attribute sees every call. ``accumulate`` is its
batch form; no program path calls it, but the benchmark's tracer patches
it by name.
"""

from __future__ import annotations

import math
from collections import Counter

BUCKETS_PER_DECADE = 10
DECADES_BELOW = 12  # covered magnitudes start at 1e-12
DECADES_ABOVE = 12  # and end at 1e12
N_POSITIVE_BUCKETS = BUCKETS_PER_DECADE * (DECADES_BELOW + DECADES_ABOVE)

# worst-case ratio between a value and any other value in the same bucket
BUCKET_WIDTH_RATIO = 10.0 ** (1.0 / BUCKETS_PER_DECADE)

# there is no compiled bucketing path; benchmark reports still record this
USE_NUMBA = False


def bucket_index(value: float) -> int:
    """Signed bucket id of one value; value must be finite."""
    if value == 0.0:
        return 0
    p = int(math.floor(BUCKETS_PER_DECADE * (math.log10(abs(value)) + DECADES_BELOW)))
    if p < 0:
        p = 0
    elif p > N_POSITIVE_BUCKETS - 1:
        p = N_POSITIVE_BUCKETS - 1
    return p + 1 if value > 0.0 else -p - 1


def accumulate(values) -> tuple[list[int], list[int]]:
    """Bucket a batch and return (signed ids, counts), ids ascending."""
    counts = Counter(bucket_index(v) for v in values)
    ids = sorted(counts)
    return ids, [counts[i] for i in ids]


def bucket_bounds(signed_id: int) -> tuple[float, float]:
    """(lo, hi) value bounds of a bucket; the zero bucket is (0.0, 0.0).

    For positive ids the bucket covers [lo, hi); negatives mirror to
    (-hi, -lo]. Edge buckets also absorb out-of-range magnitudes.
    """
    if signed_id == 0:
        return (0.0, 0.0)
    p = abs(signed_id) - 1
    if not 0 <= p < N_POSITIVE_BUCKETS:
        raise ValueError(f"bucket id {signed_id} out of range")
    lo = 10.0 ** (p / BUCKETS_PER_DECADE - DECADES_BELOW)
    hi = 10.0 ** ((p + 1) / BUCKETS_PER_DECADE - DECADES_BELOW)
    if signed_id > 0:
        return (lo, hi)
    return (-hi, -lo)
