"""Checks of the scalar bucketing kernel: ranges, order, edges and bounds.

``bucket_index`` is the one bucketing implementation, so these tests pin
its ids directly, including values one ulp either side of bucket edges.
"""

import math
import random
import subprocess
import sys
from collections import Counter

import pytest

from quantdist import kernels


def _awkward_values():
    vals = [0.0, -0.0, 1.0, -1.0, 1e-12, 1e12, -1e-12, -1e12]
    vals += [1e-300, -1e-300, 1e300, -1e300, 5e-324, 99.7, -99.7]
    for k in range(-14, 15):
        vals.append(10.0**k)
        vals.append(-(10.0**k))
    # values straddling bucket boundaries
    for tenth in range(-30, 31):
        edge = 10.0 ** (tenth / 10.0)
        for v in (edge, math.nextafter(edge, 0.0), math.nextafter(edge, math.inf)):
            vals.extend((v, -v))
    return vals


def _random_values(rng: random.Random, n: int) -> list[float]:
    out = []
    for _ in range(n):
        v = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-14, 14)
        out.append(0.0 if rng.random() < 0.05 else v)
    return out


def test_ids_in_range_and_monotone():
    rng = random.Random(3)
    values = sorted(_awkward_values() + _random_values(rng, 5000))
    ids = [kernels.bucket_index(v) for v in values]
    assert min(ids) >= -kernels.N_POSITIVE_BUCKETS
    assert max(ids) <= kernels.N_POSITIVE_BUCKETS
    # ascending value implies ascending id
    assert all(a <= b for a, b in zip(ids, ids[1:]))


def test_spot_ids():
    assert kernels.bucket_index(0.0) == 0
    assert kernels.bucket_index(-0.0) == 0
    assert kernels.bucket_index(1e-12) == 1
    assert kernels.bucket_index(1.0) == 121
    assert kernels.bucket_index(-1.0) == -121
    assert kernels.bucket_index(99.7) == 140
    assert kernels.bucket_index(100.0) == 141
    assert kernels.bucket_index(1e12) == 240  # clipped into the top bucket
    assert kernels.bucket_index(1e300) == 240
    assert kernels.bucket_index(1e-300) == 1


def test_bounds_contain_random_values():
    rng = random.Random(11)
    values = [v for v in _random_values(rng, 2000) if v != 0.0]
    for v in values:
        sid = kernels.bucket_index(v)
        assert (sid > 0) == (v > 0)
        if 1e-12 <= abs(v) < 1e12:
            lo, hi = kernels.bucket_bounds(abs(sid))
            assert lo * (1 - 1e-12) <= abs(v) <= hi * (1 + 1e-12)
        else:
            # out-of-range magnitudes land in the nearest edge bucket
            assert abs(sid) in (1, kernels.N_POSITIVE_BUCKETS)


def test_bounds_shape():
    assert kernels.bucket_bounds(0) == (0.0, 0.0)
    lo, hi = kernels.bucket_bounds(121)
    assert lo == pytest.approx(1.0) and hi == pytest.approx(kernels.BUCKET_WIDTH_RATIO)
    nlo, nhi = kernels.bucket_bounds(-121)
    assert (nlo, nhi) == (-hi, -lo)
    with pytest.raises(ValueError):
        kernels.bucket_bounds(241)


def test_accumulate_counts():
    counts = kernels.accumulate([1.0, 1.05, -1.0, 0.0, 1e6])
    assert counts == Counter({-121: 1, 0: 1, 121: 2, 181: 1})


def test_import_leaves_numpy_unloaded():
    code = "import sys, quantdist, quantdist.cli; print('numpy' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, encoding="utf-8", check=True
    )
    assert out.stdout.strip() == "False"
