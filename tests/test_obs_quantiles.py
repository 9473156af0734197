"""QuantileDigest accuracy: bounded relative error, merge, wire form."""

import random

import pytest

from repro.obs.quantiles import DigestMerger, QuantileDigest, digest_of

#: the digest's advertised worst-case relative error at growth 1.07 is
#: ~3.5%; test against a slightly looser bound to stay float-safe
RELATIVE_ERROR = 0.04


def exact_quantile(values, q):
    ordered = sorted(values)
    rank = q * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    fraction = rank - low
    return ordered[low] * (1 - fraction) + ordered[high] * fraction


def assert_close(estimate, exact):
    assert estimate is not None
    assert abs(estimate - exact) <= RELATIVE_ERROR * max(exact, 1e-9) + 1e-9


class TestAccuracy:
    @pytest.mark.parametrize("q", [0.5, 0.95, 0.99])
    def test_uniform_distribution(self, q):
        rng = random.Random(7)
        values = [rng.uniform(0.001, 2.0) for __ in range(5000)]
        digest = digest_of(values)
        assert_close(digest.quantile(q), exact_quantile(values, q))

    @pytest.mark.parametrize("q", [0.5, 0.95, 0.99])
    def test_lognormal_distribution(self, q):
        # Heavy tails are where naive fixed-width histograms fall over;
        # the geometric grid's error stays relative, not absolute.
        rng = random.Random(11)
        values = [rng.lognormvariate(-5.0, 1.5) for __ in range(5000)]
        digest = digest_of(values)
        assert_close(digest.quantile(q), exact_quantile(values, q))

    def test_single_value(self):
        digest = digest_of([0.125])
        for q in (0.0, 0.5, 1.0):
            assert digest.quantile(q) == pytest.approx(0.125, rel=0.05)

    def test_estimates_clamp_to_observed_range(self):
        digest = digest_of([0.010, 0.011, 0.012])
        assert digest.quantile(0.0) >= 0.010
        assert digest.quantile(1.0) <= 0.012

    def test_overflow_bucket_reports_exact_maximum(self):
        digest = QuantileDigest(max_value=1.0)
        digest.observe(0.5)
        digest.observe(7200.0)  # beyond max_value -> overflow
        assert digest.quantile(1.0) == 7200.0

    def test_values_below_min_clamp_into_first_bucket(self):
        digest = QuantileDigest(min_value=1e-3)
        digest.observe(1e-9)
        assert digest.count == 1
        assert digest.quantile(0.5) == 1e-9  # clamped to observed min


class TestBookkeeping:
    def test_empty_digest(self):
        digest = QuantileDigest()
        assert digest.count == 0
        assert digest.quantile(0.5) is None
        assert digest.mean == 0.0

    def test_rejects_bad_observations(self):
        digest = QuantileDigest()
        with pytest.raises(ValueError):
            digest.observe(-0.1)
        with pytest.raises(ValueError):
            digest.observe(float("nan"))
        with pytest.raises(ValueError):
            digest.observe(float("inf"))

    def test_rejects_bad_quantile(self):
        with pytest.raises(ValueError):
            digest_of([1.0]).quantile(1.5)

    def test_rejects_bad_geometry(self):
        with pytest.raises(ValueError):
            QuantileDigest(min_value=0.0)
        with pytest.raises(ValueError):
            QuantileDigest(growth=1.0)

    def test_summary_keys(self):
        summary = digest_of([0.1, 0.2, 0.3]).summary()
        for key in (
            "count", "sum_seconds", "mean_seconds", "min_seconds",
            "max_seconds", "p50_seconds", "p95_seconds", "p99_seconds",
        ):
            assert key in summary
        assert summary["count"] == 3


class TestComposition:
    def test_merge_equals_combined_stream(self):
        rng = random.Random(3)
        left = [rng.uniform(0.001, 1.0) for __ in range(1000)]
        right = [rng.uniform(0.5, 4.0) for __ in range(1000)]
        merged = digest_of(left)
        merged.merge(digest_of(right))
        combined = digest_of(left + right)
        assert merged.count == combined.count
        for q in (0.5, 0.95, 0.99):
            assert merged.quantile(q) == combined.quantile(q)

    def test_merge_rejects_different_geometry(self):
        with pytest.raises(ValueError):
            QuantileDigest().merge(QuantileDigest(growth=1.5))

    def test_plain_round_trip(self):
        digest = digest_of([0.001, 0.01, 0.1, 1.0, 10.0])
        clone = QuantileDigest.from_plain(digest.to_plain())
        assert clone.count == digest.count
        assert clone.minimum == digest.minimum
        assert clone.maximum == digest.maximum
        for q in (0.5, 0.95, 0.99):
            assert clone.quantile(q) == digest.quantile(q)

    def test_plain_round_trip_is_json_safe(self):
        import json

        digest = digest_of([0.25, 0.75])
        clone = QuantileDigest.from_plain(
            json.loads(json.dumps(digest.to_plain()))
        )
        assert clone.quantile(0.5) == digest.quantile(0.5)


class TestWireValidation:
    """``from_plain`` never trusts a wire form from another process."""

    @staticmethod
    def plain(**overrides):
        data = digest_of([0.001, 0.01, 0.1]).to_plain()
        data.update(overrides)
        return data

    def test_rejects_negative_bucket_count(self):
        data = self.plain()
        data["counts"][0] = -1
        data["count"] = sum(data["counts"])
        with pytest.raises(ValueError, match="negative"):
            QuantileDigest.from_plain(data)

    def test_rejects_counts_not_summing_to_count(self):
        with pytest.raises(ValueError, match="sum"):
            QuantileDigest.from_plain(self.plain(count=4))

    def test_rejects_nonempty_digest_without_extremes(self):
        for field in ("minimum", "maximum"):
            with pytest.raises(ValueError, match="minimum or maximum"):
                QuantileDigest.from_plain(self.plain(**{field: None}))

    def test_rejects_missing_field(self):
        data = self.plain()
        del data["counts"]
        with pytest.raises(ValueError, match="malformed"):
            QuantileDigest.from_plain(data)

    def test_rejects_non_mapping(self):
        with pytest.raises(ValueError, match="malformed"):
            QuantileDigest.from_plain([1, 2, 3])

    def test_rejects_geometry_mismatch(self):
        data = self.plain()
        data["counts"] = data["counts"][:-1]
        with pytest.raises(ValueError, match="geometry"):
            QuantileDigest.from_plain(data)

    def test_merger_absorb_is_all_or_nothing(self):
        merger = DigestMerger()
        merger.observe("ingest", 0.01)
        bad = QuantileDigest(growth=1.5)
        bad.observe(0.02)
        with pytest.raises(ValueError, match="geometry"):
            merger.absorb(
                {"get": self.plain(), "ingest": bad.to_plain()}
            )
        assert set(merger.summaries()) == {"ingest"}
        assert merger.summaries()["ingest"]["count"] == 1
