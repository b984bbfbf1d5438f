"""Snapshot archive: one self-checking file per image, integrity,
determinism.

Five layers:

* ``Archive`` — put/load round trips, one ``images/<key>.img`` file per
  stored image, keys that are not 64 lowercase hex characters refused
  before they form a path;
* failure paths — corrupt or truncated images fall back to re-aging
  (fail-closed), scrub quarantines damaged images, gc evicts images
  LRU-first, a replacing put heals a damaged image;
* outside input and crashes — an image is served only to the key it was
  written for, arbitrary file bytes never raise, and a writer killed at
  any step leaves a root the next writer converges and scrub cleans;
* concurrency — many writers, no lock: every image readable afterwards;
* corpus builder + ``aged_fs`` — the fleet-built archive is
  byte-identical for any ``--jobs`` value, ``aged_fs`` restores from it
  when it is the cache directory, and a restore out of an image file
  replays bit-identically to a cold re-age on all nine file systems.

Test names that say *pack* predate the one-file layout, where each image
was a sealed pack: read them as "image file".
"""

from __future__ import annotations

import filecmp
import os
import shutil
import threading

import pytest
from hypothesis import given, settings, strategies as st

from repro.harness import CAMPAIGNS, aged_fs
from repro.harness.setup import SPECS_BY_NAME
from repro.snapshot import Archive, codec, store

from tests.test_snapshot import (_assert_bit_identical, _replay,  # noqa: F401
                                 count_aging, flip_middle_byte, rewrite)

_AGE_KW = dict(size_gib=0.0625, num_cpus=2, churn_multiple=0.25, seed=5)


@pytest.fixture
def arch_dir(tmp_path, monkeypatch):
    """A fresh archive root that is not the snapshot cache's directory."""
    root = tmp_path / "archive"
    monkeypatch.delenv("REPRO_SNAPSHOT", raising=False)
    return str(root)


@pytest.fixture
def routed(arch_dir, monkeypatch):
    """The archive root as the snapshot cache's directory."""
    monkeypatch.setenv("REPRO_SNAPSHOT_DIR", arch_dir)
    return arch_dir


def _key(i):
    return f"{i:02x}" * 32


def _fill(archive, count=3, size=2048):
    keys = []
    for i in range(count):
        payload = codec.encode({"n": i, "blob": bytes([i]) * size})
        assert archive.put_payload(_key(i), payload) == "stored"
        keys.append(_key(i))
    return keys


def _tree(root):
    """Every file under *root*, relative, sorted."""
    return sorted(os.path.relpath(os.path.join(parent, name), root)
                  for parent, _dirs, names in os.walk(root)
                  for name in names)


class TestArchive:
    def test_put_load_roundtrip(self, arch_dir):
        archive = Archive(arch_dir)
        assert archive.put("ab" * 32, {"x": [1, 2.5, "three"]})
        value, status = archive.load_ex("ab" * 32)
        assert status == "hit"
        assert value == {"x": [1, 2.5, "three"]}

    def test_miss(self, arch_dir):
        assert Archive(arch_dir).load_ex("0" * 64) == (None, "miss")

    def test_unserializable_not_stored(self, arch_dir):
        archive = Archive(arch_dir)
        assert archive.put("ab" * 32, {"fn": lambda: 0}) is False
        assert not os.path.exists(archive.path("ab" * 32))

    def test_every_image_is_one_file_named_by_its_key(self, arch_dir):
        archive = Archive(arch_dir)
        keys = _fill(archive, count=4)
        assert _tree(arch_dir) == [os.path.join("images", f"{key}.img")
                                   for key in keys]
        assert archive.stats() == {
            "images": 4,
            "bytes": sum(os.path.getsize(archive.path(k)) for k in keys)}
        assert {archive.load_ex(k)[1] for k in keys} == {"hit"}

    def test_objects_sorted(self, arch_dir):
        archive = Archive(arch_dir)
        keys = _fill(archive, count=5)
        assert archive.keys() == sorted(keys)

    def test_put_payload_first_writer_wins(self, arch_dir):
        archive = Archive(arch_dir)
        assert archive.put_payload("aa" * 32, codec.encode(1)) == "stored"
        assert archive.put_payload("aa" * 32, codec.encode(2)) == "existing"
        assert archive.load_ex("aa" * 32) == (1, "hit")

    @pytest.mark.parametrize("key", [
        "../" * 21 + "x", "AB" * 32, "ab" * 31, "ab" * 33, "g" * 64,
        "ab" * 31 + "a/", "", None, b"ab" * 32])
    def test_malformed_key_is_refused_before_touching_the_filesystem(
            self, tmp_path, monkeypatch, key):
        cache = tmp_path / "cache"
        monkeypatch.setenv("REPRO_SNAPSHOT_DIR", str(cache))
        with pytest.raises(ValueError):
            store.save(key, {"v": 1})
        with pytest.raises(ValueError):
            store.load_ex(key)
        assert not cache.exists()
        archive = Archive(str(tmp_path / "archive"))
        for call in (archive.path, archive.load_ex,
                     lambda k: archive.put(k, {"v": 1}),
                     lambda k: archive.put_payload(k, b"N")):
            with pytest.raises(ValueError):
                call(key)
        assert _tree(archive.root) == []


class TestArchiveFailurePaths:
    def _filled(self, arch_dir):
        """Three images; the path of the middle one is returned."""
        archive = Archive(arch_dir)
        keys = _fill(archive)
        return archive, keys, archive.path(keys[1])

    def test_corrupt_record_reads_corrupt(self, arch_dir):
        archive, keys, image = self._filled(arch_dir)
        rewrite(image, flip_middle_byte)
        # only the damaged image fails; its neighbours still hit — and
        # nothing raises
        assert [archive.load_ex(k)[1] for k in keys] == [
            "hit", "corrupt", "hit"]

    def test_truncated_pack_reads_corrupt(self, arch_dir):
        archive, keys, image = self._filled(arch_dir)
        rewrite(image, lambda blob: blob[:len(blob) // 2])
        assert [archive.load_ex(k)[1] for k in keys] == [
            "hit", "corrupt", "hit"]

    @pytest.mark.parametrize(
        "payload", [b"S\x01l\x00", b"l\x01" * 60000 + b"N"],
        ids=["unhashable-set-member", "nesting-past-the-recursion-limit"])
    def test_undecodable_record_reads_decode_error(self, arch_dir, payload):
        """A CRC-valid image whose payload does not decode fails closed
        (the caller re-ages) instead of raising out of ``load_ex``."""
        archive = Archive(arch_dir)
        assert archive.put_payload("ab" * 32, payload) == "stored"
        assert archive.load_ex("ab" * 32) == (None, "decode_error")

    def test_scrub_clean_archive(self, arch_dir):
        archive, keys, _image = self._filled(arch_dir)
        assert archive.scrub() == {"images": len(keys), "quarantined": [],
                                   "reclaimed": []}

    def test_scrub_quarantines_corrupt_pack(self, arch_dir):
        archive, keys, image = self._filled(arch_dir)
        rewrite(image, lambda blob: blob[:-3] + bytes((blob[-3] ^ 0xFF,))
                + blob[-2:])                   # inside the image's CRC
        report = archive.scrub()
        assert report["quarantined"] == [keys[1]]
        assert os.path.exists(os.path.join(
            arch_dir, "quarantine", os.path.basename(image)))
        # the quarantined key now reads as miss: callers re-age
        assert [archive.load_ex(k)[1] for k in keys] == [
            "hit", "miss", "hit"]

    def test_scrub_keeps_a_stale_image(self, arch_dir):
        """Another format version is intact, not damage: the next save
        replaces it."""
        archive, keys, image = self._filled(arch_dir)
        version = (store.FORMAT_VERSION + 1).to_bytes(2, "little")
        at = len(store._MAGIC)
        rewrite(image, lambda blob: blob[:at] + version + blob[at + 2:])
        assert archive.scrub()["quarantined"] == []
        assert archive.load_ex(keys[1]) == (None, "stale")

    def test_scrub_reclaims_crash_leftovers(self, arch_dir):
        """A temp file is what a writer killed before its ``os.replace``
        leaves; scrub unlinks it — and only it."""
        archive, keys, _image = self._filled(arch_dir)
        images = os.path.join(arch_dir, "images")
        open(os.path.join(images, "tmpx1y2.tmp"), "wb").close()
        report = archive.scrub()
        assert report["reclaimed"] == ["tmpx1y2.tmp"]
        assert report["quarantined"] == []
        assert _tree(arch_dir) == [os.path.join("images", f"{k}.img")
                                   for k in keys]
        assert {archive.load_ex(k)[1] for k in keys} == {"hit"}

    def test_gc_evicts_lru_packs_only(self, arch_dir):
        archive = Archive(arch_dir)
        keys = _fill(archive, count=3)
        for i, key in enumerate(keys):
            os.utime(archive.path(key), (i, i))
        keep = archive.stats()["bytes"] - 1  # force exactly one eviction
        report = archive.gc(keep)
        assert report == {"evicted": [keys[0]],
                          "freed_bytes": report["freed_bytes"]}
        assert report["freed_bytes"] > 0
        assert archive.load_ex(keys[0])[1] == "miss"
        assert archive.load_ex(keys[2])[1] == "hit"

    @pytest.mark.parametrize("raw,want", [(None, None), ("", None),
                                          ("4096", 4096), ("0", 0)])
    def test_env_cap_parses_a_byte_count(self, monkeypatch, raw, want):
        if raw is None:
            monkeypatch.delenv("REPRO_SNAPSHOT_MAX_BYTES", raising=False)
        else:
            monkeypatch.setenv("REPRO_SNAPSHOT_MAX_BYTES", raw)
        assert store.env_max_bytes() == want

    @pytest.mark.parametrize("raw", ["abc", "-1", "1e3", " 5"])
    def test_gc_refuses_an_env_cap_that_is_no_byte_count(
            self, arch_dir, monkeypatch, capsys, raw):
        """``save`` ignores such a cap (``TestStoreSizeCap``); ``gc`` is
        asked for one, so it exits 2 with one stderr line and keeps
        every image."""
        from repro.cli import main

        archive = Archive(arch_dir)
        keys = _fill(archive, count=2)
        monkeypatch.setenv("REPRO_SNAPSHOT_MAX_BYTES", raw)
        with pytest.raises(ValueError):
            store.env_max_bytes()
        assert main(["snapshot", "gc", "--archive", arch_dir]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "is not a byte count" in err
        assert archive.keys() == sorted(keys)
        monkeypatch.delenv("REPRO_SNAPSHOT_MAX_BYTES")
        assert main(["snapshot", "gc", "--archive", arch_dir]) == 2
        monkeypatch.setenv("REPRO_SNAPSHOT_MAX_BYTES", "0")
        assert main(["snapshot", "gc", "--archive", arch_dir]) == 0
        assert archive.keys() == []


class TestReplacingPut:
    """``put`` is the cache's write: the last writer wins, which is what
    heals a damaged image; ``put_payload`` keeps the builder's answer."""

    @pytest.fixture
    def cache(self, arch_dir):
        return Archive(arch_dir)

    def test_put_replaces_a_damaged_image(self, cache):
        key = "cd" * 32
        assert cache.put(key, {"image": 1})
        rewrite(cache.path(key), flip_middle_byte)
        assert cache.load_ex(key) == (None, "corrupt")
        assert cache.put_payload(key, codec.encode({"image": 1})) \
            == "existing"                      # the builder never replaces
        assert cache.load_ex(key) == (None, "corrupt")
        assert cache.put(key, {"image": 1})
        assert cache.load_ex(key) == ({"image": 1}, "hit")
        assert cache.keys() == [key]
        assert cache.scrub()["quarantined"] == []

    def test_vanished_pack_is_a_miss(self, cache):
        """An image evicted under a reader is a cold cache, not damage:
        nothing to count, and the next save stores it again."""
        key = "cd" * 32
        assert cache.put(key, {"image": 1})
        os.unlink(cache.path(key))
        assert cache.load_ex(key) == (None, "miss")
        assert cache.put(key, {"image": 1})
        assert cache.load_ex(key) == ({"image": 1}, "hit")


class _Killed(Exception):
    """Stands in for a kill: not an OSError, so nothing absorbs it."""


def _kill_at(monkeypatch, step):
    """Make the next write die at *step*; a kill runs no cleanup, so
    ``os.unlink`` dies too."""
    def die(*_args, **_kwargs):
        raise _Killed(step)

    real = os.replace

    def replace_then_die(src, dst):
        real(src, dst)
        die()

    monkeypatch.setattr(store.os, "unlink", die)
    if step == "written":    # the bytes are in the temp file, not durable
        monkeypatch.setattr(store.os, "fsync", die)
    elif step == "sealed":   # the temp file is durable, never published
        monkeypatch.setattr(store.os, "replace", die)
    else:                    # published, and the writer dies before return
        monkeypatch.setattr(store.os, "replace", replace_then_die)


class TestCrashConvergence:
    """Kill a writer at each step; the next writer must store the key
    again, and scrub must reclaim what the dead one left."""

    _IMAGES = {_key(i): {"image": i} for i in (1, 2, 3)}

    def test_record_served_only_to_its_key(self, arch_dir):
        """An image copied or renamed under another key's name (by hand,
        or by a tool that mixes up names) is never served to that key;
        scrub quarantines it."""
        archive = Archive(arch_dir)
        k1, k3 = _key(1), _key(3)
        assert archive.put(k3, {"image": 3})
        shutil.copyfile(archive.path(k3), archive.path(k1))
        assert archive.load_ex(k3) == ({"image": 3}, "hit")
        assert archive.load_ex(k1) == (None, "corrupt")
        assert archive.scrub()["quarantined"] == [k1]
        assert archive.load_ex(k1) == (None, "miss")

    @pytest.mark.parametrize("step", ["written", "sealed", "publish"])
    def test_killed_cache_save_converges(self, arch_dir, monkeypatch, step):
        keys = sorted(self._IMAGES)
        assert Archive(arch_dir).put(keys[0], self._IMAGES[keys[0]])
        with monkeypatch.context() as patch:
            _kill_at(patch, step)
            with pytest.raises(_Killed):
                Archive(arch_dir).put(keys[1], self._IMAGES[keys[1]])
        archive = Archive(arch_dir)
        leftovers = [name for name in os.listdir(os.path.join(arch_dir,
                                                              "images"))
                     if name.endswith(".tmp")]
        if step == "publish":
            assert archive.load_ex(keys[1]) == (self._IMAGES[keys[1]], "hit")
            assert leftovers == []
        else:
            assert archive.load_ex(keys[1]) == (None, "miss")
            assert len(leftovers) == 1
        assert archive.put(keys[1], self._IMAGES[keys[1]])
        assert archive.put_payload(keys[2], codec.encode(
            self._IMAGES[keys[2]])) == "stored"
        assert archive.scrub() == {"images": 3, "quarantined": [],
                                   "reclaimed": leftovers}
        for key, image in self._IMAGES.items():
            assert archive.load_ex(key) == (image, "hit"), key
        assert _tree(arch_dir) == [os.path.join("images", f"{k}.img")
                                   for k in keys]
        assert archive.scrub() == {"images": 3, "quarantined": [],
                                   "reclaimed": []}


class TestHostileFiles:
    """The image files are outside input: the cache and the repair
    tools have to survive whatever they find in the root."""

    @settings(max_examples=60, deadline=None)
    @given(blob=st.binary(max_size=200), keep_head=st.booleans())
    def test_arbitrary_image_bytes(self, tmp_path_factory, blob, keep_head):
        """Arbitrary bytes where an image goes, with or without a valid
        header in front: every method answers, none raises."""
        root = str(tmp_path_factory.mktemp("hostile"))
        archive = Archive(root)
        good, bad = _key(1), _key(2)
        assert archive.put(good, {"v": 1})
        if keep_head:
            blob = open(archive.path(good), "rb").read()[:24] + blob
        with open(archive.path(bad), "wb") as handle:
            handle.write(blob)
        value, status = archive.load_ex(bad)
        assert status in store.LOAD_STATUSES and value is None
        assert archive.stats()["images"] == 2
        assert archive.put_payload(bad, codec.encode({"v": 2})) == "existing"
        archive.scrub()
        assert archive.scrub()["quarantined"] == []
        assert archive.load_ex(good) == ({"v": 1}, "hit")
        assert archive.put(bad, {"v": 3})
        assert archive.load_ex(bad) == ({"v": 3}, "hit")
        archive.gc(0)
        assert archive.keys() == []

    def test_cli_survives_foreign_files(self, arch_dir, capsys):
        """A directory where an image goes, a name that is no key, and
        the files of the retired pack layout: ``ls`` / ``scrub`` / ``gc``
        skip what is not an image and quarantine what is damaged."""
        from repro.cli import main

        archive = Archive(arch_dir)
        assert archive.put(_key(1), {"v": 1})
        os.mkdir(archive.path(_key(2)))
        for name in ("images/notakey.img", "index.json",
                     "packs/pack-000000.pack"):
            os.makedirs(os.path.dirname(os.path.join(arch_dir, name)),
                        exist_ok=True)
            open(os.path.join(arch_dir, name), "wb").close()
        assert archive.load_ex(_key(2)) == (None, "corrupt")
        assert main(["snapshot", "ls", "--archive", arch_dir]) == 0
        assert main(["snapshot", "scrub", "--archive", arch_dir]) == 1
        assert main(["snapshot", "gc", "--archive", arch_dir,
                     "--max-bytes", str(1 << 40)]) == 0
        out = capsys.readouterr().out
        assert "2 image(s)" in out and f"quarantined {_key(2)}" in out
        assert archive.keys() == [_key(1)]
        assert archive.load_ex(_key(1)) == ({"v": 1}, "hit")


class TestConcurrentWriters:
    def test_many_writers_every_image_readable(self, arch_dir):
        """Writers share no lock: each publishes whole files with
        ``os.replace``.  Every key must be readable afterwards, in a
        file of its own, with no temp file left behind."""
        per_writer = 8
        writers = 4
        errors = []

        def write(token):
            try:
                archive = Archive(arch_dir)
                for i in range(per_writer):
                    key = f"{token}{i:02d}".ljust(64, "f")
                    status = archive.put_payload(
                        key, codec.encode(f"payload-{token}-{i}" * 64))
                    assert status == "stored", status
            except BaseException as exc:  # surface into the test
                errors.append(exc)

        threads = [threading.Thread(target=write, args=(t,))
                   for t in range(writers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
        assert errors == []
        reader = Archive(arch_dir)
        keys = reader.keys()
        assert len(keys) == writers * per_writer
        assert all(reader.load_ex(k)[1] == "hit" for k in keys)
        assert len(_tree(arch_dir)) == writers * per_writer
        assert reader.scrub()["quarantined"] == []


_CORPUS = CAMPAIGNS["snapshot"]


class TestCorpusBuilder:
    # fs × profile × utilization × seed
    _GRID = (["PMFS", "WineFS"], ["agrawal", "wang-hpc"], [0.5], [3])

    def test_matrix_sorted_and_validated(self):
        cells = _CORPUS.matrix(*self._GRID, size_gib=0.0625,
                               churn_multiple=0.25)
        assert [
            (c["fs"], c["profile"]) for c in cells] == [
            ("PMFS", "agrawal"), ("PMFS", "wang-hpc"),
            ("WineFS", "agrawal"), ("WineFS", "wang-hpc")]
        with pytest.raises(Exception):
            _CORPUS.matrix(["WineFS"], ["no-such-profile"], [0.5], [1])

    def test_build_stores_one_file_per_cell(self, arch_dir):
        """Every cell is its own key, so every cell stores one image
        file, even where two payloads are byte-identical (an un-ageable
        PMFS cell under two profiles); a rebuild stores nothing."""
        cells = _CORPUS.matrix(*self._GRID, size_gib=0.0625,
                               churn_multiple=0.25)
        report = _CORPUS.run(cells, root=arch_dir)
        assert [c["status"] for c in report["cells"]] == ["stored"] * 4
        assert report["archive"]["images"] == 4
        assert len(_tree(arch_dir)) == 4
        assert report["metrics"]
        rerun = _CORPUS.run(cells, root=arch_dir)
        assert [c["status"] for c in rerun["cells"]] == ["existing"] * 4

    def test_jobs_do_not_change_bytes(self, tmp_path):
        """The whole point: fan-out is an implementation detail.  Same
        grid, any ``--jobs`` → byte-identical roots and report."""
        cells = _CORPUS.matrix(["WineFS"], ["agrawal", "wang-hpc"], [0.5],
                               [3], size_gib=0.0625, churn_multiple=0.25)
        roots, reports = [], []
        for jobs in (1, 2):
            root = str(tmp_path / f"jobs{jobs}")
            reports.append(_CORPUS.run(list(cells), jobs=jobs, root=root))
            roots.append(root)
        assert reports[0] == reports[1]
        files = _tree(roots[0])
        assert len(files) == 2 and files == _tree(roots[1])
        match, mismatch, errors = filecmp.cmpfiles(roots[0], roots[1], files,
                                                   shallow=False)
        assert (mismatch, errors) == ([], [])

    def test_corpus_restores_through_aged_fs(self, routed, count_aging):
        """An image built by the corpus builder lands on exactly the key
        a later ``aged_fs`` call looks up — restore, not re-age."""
        cells = _CORPUS.matrix(["WineFS"], ["agrawal"], [0.5], [5],
                               size_gib=0.0625, churn_multiple=0.25)
        _CORPUS.run(cells, root=routed)
        built = count_aging.instances  # jobs=1 ages in-process
        fs, ctx = aged_fs("WineFS", utilization=0.5, **_AGE_KW)
        assert count_aging.instances == built  # restored, not re-aged
        assert fs.statfs().files > 0


class TestArchiveRoutedStore:
    def test_aged_fs_round_trips_through_archive(self, routed, count_aging):
        aged_fs("WineFS", **_AGE_KW)
        assert count_aging.instances == 1
        aged_fs("WineFS", **_AGE_KW)
        assert count_aging.instances == 1  # warm restore from its image
        assert Archive(routed).stats()["images"] == 1

    def test_corrupt_archive_falls_back_to_aging(self, routed, count_aging,
                                                 restore_warnings):
        aged_fs("WineFS", **_AGE_KW)
        archive = Archive(routed)
        (key,) = archive.keys()
        rewrite(archive.path(key), flip_middle_byte)
        _, warned = restore_warnings(aged_fs, "WineFS", **_AGE_KW)
        assert count_aging.instances == 2  # re-aged, run not stopped
        assert len(warned) == 1 and "(corrupt)" in warned[0]
        _, warned = restore_warnings(aged_fs, "WineFS", **_AGE_KW)
        assert count_aging.instances == 2  # the re-aged image healed it
        assert warned == []


# the "-array" ids name the structures the image is built on: the
# archive holds only what src/ builds, never a test oracle
@pytest.mark.parametrize("fs_name", sorted(SPECS_BY_NAME),
                         ids=lambda name: f"{name}-array")
def test_pack_restore_bit_identical(fs_name, routed, tmp_path):
    """A restore out of an archived image file replays bit-identically
    to a cold re-age — same sim_ns clocks (repr-compared floats),
    counters, metrics, read bytes and statfs — for every evaluated file
    system."""
    fs_cold, ctx_cold = aged_fs(fs_name, **_AGE_KW)  # ages + archives
    reaged = _replay(fs_cold, ctx_cold)
    # the warm path must come from the one image file
    assert Archive(routed).stats()["images"] == 1
    fs_warm, ctx_warm = aged_fs(fs_name, **_AGE_KW)
    _assert_bit_identical(_replay(fs_warm, ctx_warm), reaged)
