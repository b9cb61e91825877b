"""Outcome primitives, model types, estimates, and random streams."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from faircouncil import (
    MarginEstimate,
    MeanField,
    RngStream,
    affirmative_count,
    as_outcome,
    majority_sign,
    margin,
    q_margin,
)
from faircouncil.core import pooled_mean

spins = st.lists(st.sampled_from((-1, 1)), min_size=1, max_size=120)


class TestMargin:
    def test_unanimous(self):
        assert margin([1, 1, 1]) == 3

    def test_perfect_tie(self):
        assert margin([1, -1]) == 0

    def test_direct_sum(self):
        assert margin([1, 1, -1, 1, -1]) == 1

    @given(spins)
    def test_matches_affirmative_count(self, votes):
        n = len(votes)
        assert margin(votes) == abs(2 * affirmative_count(votes) - n)

    def test_rejects_non_spins(self):
        with pytest.raises(ValueError):
            margin([1, 0, -1])
        with pytest.raises(ValueError):
            margin([])
        with pytest.raises(ValueError):
            as_outcome([1, 1], expected_n=3)


class TestQMargin:
    def test_half_quota_equals_margin(self):
        assert q_margin([1, 1, 1, 1], 0.5) == 4

    def test_three_quarters(self):
        assert q_margin([1, 1, 1, 1], 0.75) == pytest.approx(2.0)

    def test_negative_sum(self):
        assert q_margin([-1, -1], 0.75) == pytest.approx(3.0)

    @given(spins)
    def test_limit_from_above_is_margin(self, votes):
        # q -> 1/2+ recovers the plain margin
        assert q_margin(votes, 0.5 + 1e-12) == pytest.approx(margin(votes), abs=1e-9)

    def test_rejects_bad_quota(self):
        for q in (0.0, 1.0, -0.2, 1.7):
            with pytest.raises(ValueError):
                q_margin([1, -1], q)


class TestAffirmativeCount:
    @pytest.mark.parametrize(
        "votes,expected", [([1, 1, -1], 2), ([-1, -1], 0), ([1, -1, 1, -1], 2)]
    )
    def test_examples(self, votes, expected):
        assert affirmative_count(votes) == expected


class TestMajoritySign:
    def test_positive(self):
        assert majority_sign(5) == 1

    def test_tie_votes_no(self):
        assert majority_sign(0) == -1

    def test_negative(self):
        assert majority_sign(-0.3) == -1

    @given(st.floats(allow_nan=False, allow_infinity=False).filter(lambda x: x != 0))
    def test_odd_on_nonzero(self, x):
        assert majority_sign(-x) == -majority_sign(x)


class TestVotingModels:
    def test_mean_field_rejects_negative_coupling(self):
        with pytest.raises(ValueError):
            MeanField(-0.1)

    def test_mean_field_accepts_zero(self):
        assert MeanField(0.0).coupling == 0.0


class TestMarginEstimate:
    def test_exact_estimates_have_no_error(self):
        with pytest.raises(ValueError):
            MarginEstimate(value=1.0, std_error=0.1, method="exact")

    def test_monte_carlo_needs_samples(self):
        with pytest.raises(ValueError):
            MarginEstimate(value=1.0, std_error=0.1, method="monte_carlo", samples=0)

    def test_negative_value_rejected(self):
        with pytest.raises(ValueError):
            MarginEstimate(value=-1.0)

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            MarginEstimate(value=1.0, method="guess")


class TestRngStream:
    def test_identical_keys_give_identical_draws(self):
        a = RngStream(123, 5).generator().integers(0, 1 << 30, 64)
        b = RngStream(123, 5).generator().integers(0, 1 << 30, 64)
        assert np.array_equal(a, b)

    def test_distinct_streams_differ(self):
        a = RngStream(123, 5).generator().integers(0, 1 << 30, 64)
        b = RngStream(123, 6).generator().integers(0, 1 << 30, 64)
        assert not np.array_equal(a, b)

    def test_worker_blocks_are_disjoint_and_reproducible(self):
        stream = RngStream(9)
        w0 = stream.worker(0).integers(0, 1 << 30, 64)
        w1 = stream.worker(1).integers(0, 1 << 30, 64)
        again = RngStream(9).worker(0).integers(0, 1 << 30, 64)
        assert np.array_equal(w0, again)
        assert not np.array_equal(w0, w1)

    def test_worker_does_not_disturb_own_stream(self):
        a = RngStream(4)
        _ = a.worker(0).integers(0, 10, 8)
        b = RngStream(4)
        assert np.array_equal(
            a.generator().integers(0, 1 << 30, 16),
            b.generator().integers(0, 1 << 30, 16),
        )

    def test_rejects_out_of_range_ids(self):
        with pytest.raises(ValueError):
            RngStream(-1)
        with pytest.raises(ValueError):
            RngStream(0, 2**64)


@pytest.mark.parametrize("trials, workers, sizes", [
    (10, 1, [10]), (10, 3, [4, 3, 3]), (3, 7, [1, 1, 1]), (1, 2, [1]),
])
def test_pooled_mean_partitions_the_trials_and_pools_them(trials, workers, sizes):
    drawn = []

    def values(gen, size):
        drawn.append(gen.normal(size=size))
        return drawn[-1]

    mean, std_error, count = pooled_mean(values, trials, RngStream(3), workers)
    assert [x.size for x in drawn] == sizes and count == trials
    pooled = np.concatenate(drawn)
    assert np.array_equal(drawn[0], RngStream(3).worker(0).normal(size=sizes[0]))
    assert mean == pytest.approx(pooled.mean(), rel=1e-12, abs=1e-15)
    if trials > 1:
        assert std_error == pytest.approx(pooled.std(ddof=1) / np.sqrt(trials), rel=1e-9)


def test_pooled_mean_needs_a_worker():
    with pytest.raises(ValueError, match="at least one worker"):
        pooled_mean(lambda gen, size: np.zeros(size), 10, RngStream(0), 0)
