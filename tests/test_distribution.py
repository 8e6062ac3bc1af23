"""Distribution tests against brute-force oracles on raw value lists.

The oracle recomputes every statistic directly from the raw sample list
(sorting, fsum, log-space geometric means) without touching the streaming
implementation.
"""

import copy
import math
import random
import sys
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from quantdist.distribution import Distribution
from quantdist.kernels import BUCKET_WIDTH_RATIO


def oracle_median(values):
    s = sorted(values)
    n = len(s)
    if n % 2:
        return s[n // 2]
    a, b = s[n // 2 - 1], s[n // 2]
    if a > 0 and b > 0:
        return math.exp((math.log(a) + math.log(b)) / 2)
    if a < 0 and b < 0:
        return -math.exp((math.log(-a) + math.log(-b)) / 2)
    return (a + b) / 2


def random_values(rng: random.Random, n: int, positive_only=False):
    out = []
    for _ in range(n):
        mag = 10.0 ** rng.uniform(-11.5, 11.5)
        if positive_only:
            out.append(mag)
        else:
            roll = rng.random()
            if roll < 0.05:
                out.append(0.0)
            elif roll < 0.4:
                out.append(-mag)
            else:
                out.append(mag)
    return out


def build(values, cap=4096):
    """``values`` folded into one summary one at a time, as a stream adds them."""
    d = Distribution(exact_cap=cap)
    for v in values:
        d.update(Distribution.of([v], cap))
    return d


def merged(a, b):
    """``a`` and ``b`` folded into a new Distribution, as ``table.merged_entries`` folds a key."""
    out = Distribution(a.exact_cap)
    out.update(a)
    out.update(b)
    return out


def test_basic_counters():
    d = build([5.0, 1.0, -2.0])
    assert d.count == 3
    assert d.minimum == -2.0
    assert d.maximum == 5.0
    assert d.sum() == 4.0
    assert d.mean() == pytest.approx(4.0 / 3.0)


def test_median_even_geometric():
    d = build([1.0, 2.0, 3.0, 4.0])
    assert d.median() == pytest.approx(math.sqrt(6.0), rel=1e-12)


def test_exact_stats_match_oracle():
    rng = random.Random(101)
    for trial in range(200):
        values = random_values(rng, rng.randint(1, 60))
        d = build(values)
        assert d.is_exact
        assert d.count == len(values)
        assert d.minimum == min(values)
        assert d.maximum == max(values)
        assert d.sum() == pytest.approx(math.fsum(values), rel=1e-12, abs=1e-300)
        om = oracle_median(values)
        assert d.median() == pytest.approx(om, rel=1e-9, abs=1e-300), trial


def test_exact_sum_is_error_free():
    # values chosen so naive left-to-right addition loses the small term
    d = build([1e16, 1.0, -1e16])
    assert d.sum() == 1.0
    d2 = build([-1e16, 1e16, 1.0])
    assert d2.sum() == 1.0


def test_canonical_partials_order_independent():
    rng = random.Random(55)
    values = random_values(rng, 500)
    reference = None
    for _ in range(20):
        rng.shuffle(values)
        parts = []
        parts = build(values, cap=0).sum_partials()
        if reference is None:
            reference = parts
        assert parts == reference  # exact float equality, element by element


def test_histogram_order_statistics_within_one_bucket():
    rng = random.Random(202)
    for _ in range(50):
        values = random_values(rng, rng.randint(1, 200), positive_only=True)
        d = build(values, cap=0)
        assert not d.is_exact
        s = sorted(values)
        ranked = d._ranked()
        for rank in range(1, len(s) + 1):
            est = ranked[rank - 1]
            ratio = est / s[rank - 1]
            assert 1 / BUCKET_WIDTH_RATIO * (1 - 1e-9) <= ratio <= BUCKET_WIDTH_RATIO * (1 + 1e-9)


def test_histogram_median_within_one_bucket():
    rng = random.Random(303)
    for _ in range(200):
        values = random_values(rng, rng.randint(1, 120), positive_only=True)
        d = build(values, cap=0)
        om = oracle_median(values)
        ratio = d.median() / om
        assert 1 / BUCKET_WIDTH_RATIO * (1 - 1e-9) <= ratio <= BUCKET_WIDTH_RATIO * (1 + 1e-9)


def test_histogram_median_sign_and_zero():
    assert build([0.0, 0.0, 0.0], cap=0).median() == 0.0
    assert build([-5.0, -7.0, -9.0], cap=0).median() < 0
    mixed = build([-5.0, 5.0], cap=0)
    assert abs(mixed.median()) < 5.0  # arithmetic midpoint of the estimates


def test_merge_monoid_laws():
    rng = random.Random(404)
    for _ in range(40):
        a = build(random_values(rng, rng.randint(0, 30)))
        b = build(random_values(rng, rng.randint(0, 30)))
        c = build(random_values(rng, rng.randint(0, 30)))
        assert merged(a, b) == merged(b, a)
        assert merged(merged(a, b), c) == merged(a, merged(b, c))
        empty = Distribution()
        assert merged(a, empty) == a
        assert merged(empty, a) == a


def test_merge_shard_invariance():
    rng = random.Random(505)
    for _ in range(30):
        values = random_values(rng, rng.randint(1, 100))
        whole = build(values)
        k = rng.randint(1, 6)
        shards = [Distribution() for _ in range(k)]
        for v in values:
            shards[rng.randrange(k)].update(Distribution.of([v]))
        rng.shuffle(shards)
        folded = copy.deepcopy(shards[0])
        for s in shards[1:]:
            folded.update(s)
        assert folded == whole
        assert folded.sum_partials() == whole.sum_partials()
        assert folded.median() == whole.median()


def test_merge_does_not_mutate_inputs():
    a = build([1.0, 2.0])
    b = build([3.0])
    before_a, before_b = copy.deepcopy(a), copy.deepcopy(b)
    merged(a, b)
    assert a == before_a
    assert b == before_b


def test_merge_cap_mismatch_rejected():
    with pytest.raises(ValueError):
        Distribution(exact_cap=10).update(Distribution(exact_cap=20))


def test_spill_drops_samples_keeps_histogram():
    d = build([1.0, 2.0, 3.0], cap=3)
    assert d.is_exact
    d.update(Distribution.of([4.0], 3))
    assert not d.is_exact
    assert d == Distribution.of([1.0, 2.0, 3.0, 4.0], 3)  # a batch past the cap spills too
    assert d.count == 4
    assert sum(d.buckets.values()) == 4
    assert d.minimum == 1.0 and d.maximum == 4.0
    with pytest.raises(ValueError):
        d.sorted_exact()


def test_spill_via_merge():
    a = build([1.0, 2.0], cap=3)
    b = build([3.0, 4.0], cap=3)
    m = merged(a, b)
    assert not m.is_exact
    assert m.count == 4


def test_rejects_non_finite():
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError):
            Distribution.of([1.0, bad])


def test_negative_zero_folds_to_zero():
    d = build([-0.0])
    assert repr(d.minimum) == "0.0"
    assert d.sorted_exact() == [0.0]
    assert repr(d.sorted_exact()[0]) == "0.0"
    batch = Distribution.of([1.0, -0.0], 4)  # as a table reader builds an entry
    assert (repr(batch.minimum), repr(batch.sorted_exact()[0])) == ("0.0", "0.0")


def test_empty_distribution_raises():
    d = Distribution()
    for call in (d.mean, d.median, d.stats):
        with pytest.raises(ValueError):
            call()
    with pytest.raises(ValueError):
        d.quantile(0.5)


def test_quantile_endpoints_and_order():
    values = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0]
    d = build(values)
    assert d.quantile(0.0) == min(values)
    assert d.quantile(1.0) == max(values)
    qs = [d.quantile(q / 10) for q in range(11)]
    assert qs == sorted(qs)
    with pytest.raises(ValueError):
        d.quantile(1.5)


def test_stats_payload():
    d = build([1.0, 10.0, 100.0])
    s = d.stats()
    assert set(s) == {"median", "mean", "p5", "p95", "min", "max", "count"}
    assert s["count"] == 3
    assert s["min"] == 1.0 and s["max"] == 100.0
    assert s["median"] == 10.0
    assert s["p5"] <= s["median"] <= s["p95"]
    values = [30.0, 2.0, 7.5, 2.0, 1e4, 0.5]
    for cap in (4096, 0):  # kept samples, then the histogram
        d = build(values, cap=cap)
        s = d.stats()
        assert s["median"] == d.median()
        assert (s["p5"], s["p95"]) == (d.quantile(0.05), d.quantile(0.95))
        assert d.exact == (sorted(values) if cap else None)  # kept samples ascend


def test_canonical_partials_zero_sum():
    assert build([1.0, -1.0]).sum_partials() == []
    assert Distribution().sum_partials() == []


def oracle_expansion(total: Fraction) -> list[float]:
    """Greedy round-to-nearest expansion; float(Fraction) rounds correctly."""
    out = []
    while total:
        hi = float(total)
        out.append(hi)
        total -= Fraction(hi)
    return out


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=30))
def test_sum_expansion_matches_fraction_oracle(values):
    d = Distribution(exact_cap=0)
    total = Fraction(0)
    for v in values:
        total += Fraction(v)
        try:
            float(total)
        except OverflowError:
            # the running sum must round to a finite float at every step
            before = copy.deepcopy(d)
            with pytest.raises(OverflowError):
                d.update(Distribution.of([v], 0))
            assert d == before
            return
        d.update(Distribution.of([v], 0))
    expected = oracle_expansion(total)
    assert d.sum_partials() == expected
    assert d.sum() == (expected[0] if expected else 0.0)


def test_sum_overflow_raises_and_leaves_state():
    d = build([1e308])
    with pytest.raises(OverflowError):
        d.update(Distribution.of([1e308]))
    assert d == build([1e308])
    a, b = build([1e308]), build([1e308])
    with pytest.raises(OverflowError):
        merged(a, b)
    with pytest.raises(OverflowError):
        a.update(b)
    assert a == b == build([1e308])


def test_sum_overflow_threshold_is_round_to_nearest():
    top = sys.float_info.max
    half_ulp = 2.0**970  # top + half_ulp ties to even, which is 2**1024
    assert build([top, half_ulp / 2]).sum() == top
    with pytest.raises(OverflowError):
        build([top, half_ulp])
    assert build([-top, -half_ulp / 2]).sum() == -top
    with pytest.raises(OverflowError):
        build([-top, -half_ulp])


def test_update_in_place_equals_merge():
    """Folding ``b`` into ``a`` in place equals observing both value lists in one summary."""
    rng = random.Random(707)
    for _ in range(20):
        va = random_values(rng, rng.randint(0, 20))
        vb = random_values(rng, rng.randint(0, 20))
        a, b = build(va, cap=16), build(vb, cap=16)
        before_b = copy.deepcopy(b)
        a.update(b)
        assert a == build(va + vb, cap=16)
        assert b == before_b


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.floats(min_value=-1e300, max_value=1e300), max_size=12),
    st.lists(st.floats(min_value=-1e300, max_value=1e300), max_size=12),
)
def test_observed_and_merged_summaries_validate(a, b):
    left, right = build(a, cap=8), build(b, cap=8)
    for dist in (left, right, merged(left, right)):
        dist.validate()


def test_validate_rejects_inconsistent_fields():
    def broken(**fields):
        d = Distribution.of([2.0, 3.0, 30.0], 4)
        for name, value in fields.items():
            setattr(d, name, value)
        return d

    broken().validate()
    cases = {
        "exceeds max": broken(minimum=40.0, maximum=30.0),
        "run from min to max": broken(exact=[2.0, 3.0, 40.0]),
        "positive": broken(buckets=Counter({**broken().buckets, 50: 0})),
        "exact_cap": broken(exact_cap=2),
        "lowest and highest": broken(minimum=1.0, exact=[1.0, 3.0, 30.0]),
        "add up to the count": broken(count=4),
        "empty": broken(count=0, buckets=Counter(), exact=[]),
        "spilled summary must count more than exact_cap 4": broken(exact=None),
    }
    for message, dist in cases.items():
        with pytest.raises(ValueError, match=message):
            dist.validate()


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(min_value=-1e300, max_value=1e300), max_size=12), st.integers(0, 13))
def test_of_equals_observing_each_sample(values, cap):
    """One batch builds what folding its values one at a time builds, -0.0 folded, kept
    samples or past ``cap`` the spilled summary."""
    batch, observed = Distribution.of(list(values), cap), build(values, cap=cap)
    assert batch == observed
    assert batch.is_exact == (len(values) <= cap)
    if batch.is_exact:
        assert list(map(repr, batch.sorted_exact())) == list(map(repr, observed.sorted_exact()))
    batch.validate()


def test_of_rejects_a_bad_batch():
    for samples, cap, error, message in [
        ([1.0, math.nan], 4, ValueError, "non-finite sample"),
        ([-math.inf], 4, ValueError, "non-finite sample"),
        ([1e308, 1e308], 4, OverflowError, "overflowed"),
    ]:
        with pytest.raises(error, match=message):
            Distribution.of(samples, cap)


def test_spilled_estimates_are_clamped_into_min_and_max():
    """Every magnitude at or past 1e12 lands in the top bucket, whose estimates lie
    below 1e12; a spilled entry answers inside its own exact [min, max] all the same."""
    d = Distribution.of([2e12] * 3 + [5e14] * 4, exact_cap=4)
    assert not d.is_exact
    assert d.median() == 2e12  # 8.91e11 unclamped, below the minimum
    assert [d.quantile(q) for q in (0.0, 0.1, 0.9, 1.0)] == [2e12, 2e12, 2e12, 2e12]
    stats = d.stats()
    assert d.minimum <= stats["p5"] <= stats["median"] <= stats["p95"] <= d.maximum


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=30),
    st.integers(0, 32),
    st.floats(0.0, 1.0),
)
def test_median_and_quantiles_lie_in_min_and_max(values, cap, q):
    """Over finite multisets, subnormals and values near the float maximum included, a
    summary kept or spilled answers its median and quantiles inside [min, max]."""
    try:
        d = Distribution.of(list(values), cap)
    except OverflowError:  # a sum past the float range is no summary
        return
    stats = d.stats()
    for answer in (d.median(), d.quantile(q), stats["median"], stats["p5"], stats["p95"]):
        assert d.minimum <= answer <= d.maximum, (answer, d)


def oracle_quantile(values, q):
    """Order statistic at fraction q of the sorted values, interpolated in log space
    between same-sign neighbours and linearly across zero."""
    s = sorted(values)
    pos = 1 + q * (len(s) - 1)
    lo, hi = s[math.floor(pos) - 1], s[math.ceil(pos) - 1]
    frac = pos - math.floor(pos)
    if lo == hi or not frac:
        return lo
    if lo > 0 and hi > 0:
        return math.exp(math.log(lo) + (math.log(hi) - math.log(lo)) * frac)
    if lo < 0 and hi < 0:
        return -math.exp(math.log(-lo) + (math.log(-hi) - math.log(-lo)) * frac)
    return lo + (hi - lo) * frac


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=12),
    st.integers(0, 13),
    st.randoms(use_true_random=False),
)
def test_kept_samples_ascend_in_every_fold_order(values, cap, rng):
    """``Distribution.of`` and any fold order of single-value updates keep the same
    list, ``sorted(values)`` when kept, and ``validate`` rejects it out of order."""
    shuffled = list(values)
    rng.shuffle(shuffled)
    try:
        dists = [Distribution.of(list(values), cap), build(values, cap), build(shuffled, cap)]
    except OverflowError:  # a sum past the float range is no summary
        return
    exact = dists[0].exact
    assert all(repr(d.exact) == repr(exact) for d in dists)
    if len(values) > cap:
        assert exact is None
        return
    assert exact == sorted(values)
    d = dists[0]
    d.validate()
    if exact[0] != exact[-1]:
        d.exact = exact[::-1]
        with pytest.raises(ValueError, match="ascending"):
            d.validate()
    if len(set(exact[1:-1])) > 1:  # the ends in place, the middle out of order
        d.exact = [exact[0], *exact[-2:0:-1], exact[-1]]
        with pytest.raises(ValueError, match="ascending"):
            d.validate()


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.one_of(st.just(0.0), st.floats(1e-100, 1e100), st.floats(-1e100, -1e-100)),
        min_size=1,
        max_size=12,
    ),
    st.floats(0.0, 1.0),
)
def test_kept_stats_match_the_oracles(values, q):
    """Medians and quantiles indexed from the kept list answer as the brute-force
    oracles, which sort the raw values."""
    d = Distribution.of(list(values), 16)
    stats = d.stats()
    for answer, expected in [
        (d.median(), oracle_median(values)),
        (stats["median"], oracle_median(values)),
        (d.quantile(q), oracle_quantile(values, q)),
        (stats["p5"], oracle_quantile(values, 0.05)),
        (stats["p95"], oracle_quantile(values, 0.95)),
    ]:
        assert answer == pytest.approx(expected, rel=1e-9, abs=1e-300)
