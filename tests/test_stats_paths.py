"""Statistics helpers and VFS path utilities."""

import pytest

from repro.errors import InvalidArgumentError
from repro.structures.stats import (LatencyRecorder, Summary,
                                    ops_per_sec, percentile,
                                    percentile_sorted, throughput_mb_s)
from repro.vfs.path import (basename_of, join, normalize_path, parent_of,
                            split_path)


class TestPercentile:
    def test_single_sample(self):
        assert percentile([42.0], 50) == 42.0
        assert percentile([42.0], 99) == 42.0

    def test_median_interpolates(self):
        assert percentile([1.0, 2.0, 3.0, 4.0], 50) == 2.5

    def test_extremes(self):
        data = list(map(float, range(101)))
        assert percentile(data, 0) == 0.0
        assert percentile(data, 100) == 100.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            percentile([], 50)

    def test_bad_pct_rejected(self):
        with pytest.raises(ValueError):
            percentile([1.0], 101)


class TestSummaryFromSamples:
    def test_pins_percentiles(self):
        # 0..100 inclusive: the linear-interpolated percentiles land
        # exactly on the sample values
        data = list(map(float, range(101)))
        s = Summary.from_samples(reversed(data))   # order must not matter
        assert s.count == 101
        assert s.median == 50.0
        assert s.p90 == 90.0
        assert s.p99 == 99.0
        assert s.minimum == 0.0 and s.maximum == 100.0
        assert s.mean == pytest.approx(50.0)

    def test_matches_percentile_function(self):
        data = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0]
        s = Summary.from_samples(data)
        assert s.median == percentile(data, 50)
        assert s.p90 == percentile(data, 90)
        assert s.p99 == percentile(data, 99)
        assert s.p999 == percentile(data, 99.9)

    def test_p999_exact_interpolation(self):
        # 1001 samples 0..1000: the 99.9th percentile rank lands on
        # sample 999 (up to float rounding in 99.9/100)
        data = list(map(float, range(1001)))
        s = Summary.from_samples(data)
        assert s.p999 == pytest.approx(999.0)
        assert "p999" in str(s)
        # two samples: rank 0.999 interpolates between them linearly
        s2 = Summary.from_samples([0.0, 1000.0])
        assert s2.p999 == pytest.approx(999.0)
        assert s2.p99 == pytest.approx(990.0)

    def test_p999_between_p99_and_max(self):
        data = [1.0] * 998 + [500.0, 1000.0]
        s = Summary.from_samples(data)
        assert s.p99 <= s.p999 <= s.maximum

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Summary.from_samples([])

    def test_percentile_sorted_requires_no_resort(self):
        data = sorted([5.0, 1.0, 3.0])
        assert percentile_sorted(data, 50) == 3.0
        with pytest.raises(ValueError):
            percentile_sorted([], 50)


class TestLatencyRecorder:
    def test_summary(self):
        rec = LatencyRecorder()
        rec.extend([10.0, 20.0, 30.0, 40.0])
        s = rec.summary()
        assert s.count == 4
        assert s.mean == 25.0
        assert s.minimum == 10.0 and s.maximum == 40.0
        assert "p50" in str(s)

    def test_cdf_monotone(self):
        rec = LatencyRecorder()
        rec.extend(float(x) for x in range(100))
        cdf = rec.cdf(10)
        lats = [lat for lat, _ in cdf]
        fracs = [f for _, f in cdf]
        assert lats == sorted(lats)
        assert fracs[0] == 0.0 and fracs[-1] == 1.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            LatencyRecorder().record(-1.0)

    def test_empty_summary_rejected(self):
        with pytest.raises(ValueError):
            LatencyRecorder().summary()


class TestThroughput:
    def test_mb_per_s(self):
        # 1 MB in 1 ms = 1000 MB/s
        assert throughput_mb_s(1_000_000, 1e6) == pytest.approx(1000.0)

    def test_ops_per_sec(self):
        assert ops_per_sec(100, 1e9) == pytest.approx(100.0)

    def test_zero_time_rejected(self):
        with pytest.raises(ValueError):
            throughput_mb_s(1, 0)
        with pytest.raises(ValueError):
            ops_per_sec(1, -5)


class TestPaths:
    def test_normalize(self):
        assert normalize_path("/a//b/") == "/a/b"
        assert normalize_path("/") == "/"

    def test_relative_rejected(self):
        with pytest.raises(InvalidArgumentError):
            normalize_path("a/b")
        with pytest.raises(InvalidArgumentError):
            normalize_path("")

    def test_dots_rejected(self):
        with pytest.raises(InvalidArgumentError):
            normalize_path("/a/../b")
        with pytest.raises(InvalidArgumentError):
            normalize_path("/./a")

    def test_split(self):
        assert split_path("/") == []
        assert split_path("/a/b/c") == ["a", "b", "c"]

    def test_parent_basename(self):
        assert parent_of("/a/b/c") == "/a/b"
        assert parent_of("/a") == "/"
        assert basename_of("/a/b") == "b"
        with pytest.raises(InvalidArgumentError):
            parent_of("/")
        with pytest.raises(InvalidArgumentError):
            basename_of("/")

    def test_join(self):
        assert join("/", "a") == "/a"
        assert join("/a", "b") == "/a/b"
        with pytest.raises(InvalidArgumentError):
            join("/a", "b/c")
        with pytest.raises(InvalidArgumentError):
            join("/a", "")
