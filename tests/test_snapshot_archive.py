"""Pack archive: one sealed pack per record, integrity, determinism.

Five layers:

* ``Archive`` — put/load round trips, payload dedup (aliases), one
  read-only pack per stored record;
* failure paths — corrupt or truncated packs and stale index entries
  all fall back to re-aging (fail-closed), scrub quarantines damaged
  packs and drops their keys, gc evicts packs LRU-first, a replacing
  put heals a damaged entry;
* outside input and crashes — a record is served only to the key it was
  written for, malformed or hostile index entries are ignored, and a
  writer killed at any step leaves an archive the next writer converges
  and scrub reclaims;
* concurrency — many writers interleaving under the index lock produce
  one consistent index;
* corpus builder + ``aged_fs`` — the fleet-built archive is
  byte-identical for any ``--jobs`` value, ``aged_fs`` restores from it
  when it is the cache directory, and a restore out of a sealed pack
  replays bit-identically to a cold re-age on all nine file systems.
"""

from __future__ import annotations

import json
import os
import stat
import threading

import pytest
from hypothesis import given, settings, strategies as st

import repro.snapshot.archive as archive_mod
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


def _fill(archive, count=3, size=2048):
    keys = []
    for i in range(count):
        key = f"{i:02d}" * 32
        payload = codec.encode({"n": i, "blob": bytes([i]) * size})
        assert archive.put_payload(key, payload) == "stored"
        keys.append(key)
    return keys


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
        assert not archive.contains("ab" * 32)

    def test_identical_payload_becomes_alias(self, arch_dir):
        archive = Archive(arch_dir)
        payload = codec.encode({"same": True})
        assert archive.put_payload("aa" * 32, payload) == "stored"
        assert archive.put_payload("bb" * 32, payload) == "alias"
        assert archive.put_payload("aa" * 32, payload) == "existing"
        stats = archive.stats()
        assert stats["objects"] == 2
        assert stats["unique_records"] == 1
        assert stats["aliases"] == 1
        # both keys decode, from the one record
        assert archive.load_ex("bb" * 32) == ({"same": True}, "hit")

    def test_every_record_is_its_own_read_only_pack(self, arch_dir):
        archive = Archive(arch_dir)
        keys = _fill(archive, count=4)
        assert archive.stats()["packs"] == 4
        assert sorted(os.listdir(arch_dir)) == [".lock", "index.json",
                                                "packs"]
        relpaths = [relpath for _key, relpath, *_ in archive.objects()]
        assert relpaths == [f"packs/pack-{i:06d}.pack" for i in range(4)]
        for key, relpath, offset, length in archive.objects():
            assert offset == archive_mod._HEADER_LEN
            path = os.path.join(arch_dir, relpath)
            assert os.path.getsize(path) == offset + length
            assert not os.stat(path).st_mode & (stat.S_IWUSR | stat.S_IWGRP)
            assert archive.load_ex(key)[1] == "hit"
        assert [key for key, *_ in archive.objects()] == keys

    def test_objects_sorted(self, arch_dir):
        archive = Archive(arch_dir)
        keys = _fill(archive, count=5)
        listed = [key for key, *_ in archive.objects()]
        assert listed == sorted(keys)

    def test_index_is_published_atomically(self, arch_dir):
        archive = Archive(arch_dir)
        _fill(archive)
        doc = json.load(open(archive.index_path))
        assert doc["schema"] == "repro.snapshot-archive/1"
        assert not [n for n in os.listdir(arch_dir)
                    if n.startswith(".index-")]  # no temp droppings


class TestArchiveFailurePaths:
    def _filled(self, arch_dir):
        """Three records; the pack of the middle one is returned."""
        archive = Archive(arch_dir)
        keys = _fill(archive)
        pack_rel = dict((k, rel) for k, rel, *_ in archive.objects())[keys[1]]
        return archive, keys, os.path.join(arch_dir, pack_rel)

    def test_corrupt_record_reads_corrupt(self, arch_dir):
        archive, keys, pack = self._filled(arch_dir)
        os.chmod(pack, 0o644)
        blob = bytearray(open(pack, "rb").read())
        blob[len(blob) // 2] ^= 0xFF
        open(pack, "wb").write(bytes(blob))
        # only the record in the damaged pack fails; its neighbours still
        # hit — and nothing raises
        assert [archive.load_ex(k)[1] for k in keys] == [
            "hit", "corrupt", "hit"]

    def test_truncated_pack_reads_corrupt(self, arch_dir):
        archive, keys, pack = self._filled(arch_dir)
        os.chmod(pack, 0o644)
        blob = open(pack, "rb").read()
        open(pack, "wb").write(blob[:len(blob) // 2])
        assert [archive.load_ex(k)[1] for k in keys] == [
            "hit", "corrupt", "hit"]

    def test_stale_index_entry_is_miss_or_corrupt(self, arch_dir):
        archive, keys, pack = self._filled(arch_dir)
        os.unlink(pack)  # index now points at a ghost
        assert [archive.load_ex(k)[1] for k in keys] == [
            "hit", "miss", "hit"]

    @pytest.mark.parametrize(
        "payload", [b"S\x01l\x00", b"l\x01" * 60000 + b"N"],
        ids=["unhashable-set-member", "nesting-past-the-recursion-limit"])
    def test_undecodable_record_reads_decode_error(self, arch_dir, payload):
        """A CRC-valid record whose payload does not decode fails closed
        (the caller re-ages) instead of raising out of ``load_ex``."""
        archive = Archive(arch_dir)
        assert archive.put_payload("ab" * 32, payload) == "stored"
        assert archive.load_ex("ab" * 32) == (None, "decode_error")

    def test_scrub_clean_archive(self, arch_dir):
        archive, keys, _pack = self._filled(arch_dir)
        report = archive.scrub()
        assert report["quarantined"] == []
        assert report["dropped_keys"] == []
        assert report["reclaimed"] == []
        assert (report["files"], report["objects"]) == (3, len(keys))

    def test_scrub_quarantines_corrupt_pack(self, arch_dir):
        archive, keys, pack = self._filled(arch_dir)
        os.chmod(pack, 0o644)
        blob = bytearray(open(pack, "rb").read())
        blob[-3] ^= 0xFF  # inside the record's CRC
        open(pack, "wb").write(bytes(blob))
        report = archive.scrub()
        assert report["quarantined"] == [
            os.path.relpath(pack, arch_dir).replace(os.sep, "/")]
        assert report["dropped_keys"] == [keys[1]]
        assert os.path.exists(os.path.join(
            arch_dir, "quarantine", os.path.basename(pack)))
        # the dropped key now reads as miss: callers re-age
        assert [archive.load_ex(k)[1] for k in keys] == [
            "hit", "miss", "hit"]

    def test_scrub_reclaims_crash_leftovers(self, arch_dir):
        """A pack no entry names and an index temp file are what a writer
        killed under the lock leaves; scrub holds that lock, so it
        unlinks both — and only those."""
        archive, keys, _pack = self._filled(arch_dir)
        orphan = "packs/pack-000009.pack"
        with open(os.path.join(arch_dir, orphan), "wb") as handle:
            handle.write(archive_mod._pack_header())  # torn: no record
        open(os.path.join(arch_dir, ".index-x.tmp"), "wb").close()
        report = archive.scrub()
        assert report["reclaimed"] == [orphan, ".index-x.tmp"]
        assert report["quarantined"] == [] and report["dropped_keys"] == []
        assert sorted(os.listdir(arch_dir)) == [".lock", "index.json",
                                                "packs"]
        assert {archive.load_ex(k)[1] for k in keys} == {"hit"}

    def test_scrub_drops_alias_of_quarantined_record(self, arch_dir):
        archive = Archive(arch_dir)
        payload = codec.encode({"v": 1})
        archive.put_payload("aa" * 32, payload)
        archive.put_payload("bb" * 32, payload)  # alias
        (pack_rel,) = {rel for _k, rel, *_ in archive.objects()}
        pack = os.path.join(arch_dir, pack_rel)
        os.chmod(pack, 0o644)
        blob = bytearray(open(pack, "rb").read())
        blob[-1] ^= 0xFF
        open(pack, "wb").write(bytes(blob))
        report = archive.scrub()
        assert report["dropped_keys"] == ["aa" * 32, "bb" * 32]

    def test_gc_evicts_lru_packs_only(self, arch_dir):
        archive = Archive(arch_dir)
        keys = _fill(archive, count=3)
        packs = sorted(n for n in os.listdir(os.path.join(arch_dir, "packs")))
        assert len(packs) == 3
        for i, name in enumerate(packs):
            os.utime(os.path.join(arch_dir, "packs", name), (i, i))
        keep = archive.stats()["bytes"] - 1  # force exactly one eviction
        report = archive.gc(keep)
        assert report["evicted"] == [f"packs/{packs[0]}"]
        assert report["dropped_keys"] == [keys[0]]
        assert archive.load_ex(keys[0])[1] == "miss"
        assert archive.load_ex(keys[2])[1] == "hit"


def _pack_names(arch_dir):
    return sorted(os.listdir(os.path.join(arch_dir, "packs")))


class TestReplacingPut:
    """``put`` is the cache's write: the last writer wins, which is what
    heals a damaged entry; ``put_payload`` keeps the builder's answer."""

    @pytest.fixture
    def cache(self, arch_dir):
        return Archive(arch_dir)

    def test_put_replaces_and_unlinks_the_orphaned_pack(self, cache,
                                                        arch_dir):
        assert cache.put("k", {"image": 1})
        (old_pack,) = _pack_names(arch_dir)
        rewrite(os.path.join(arch_dir, "packs", old_pack), flip_middle_byte)
        assert cache.load_ex("k") == (None, "corrupt")
        assert cache.put_payload("k", codec.encode({"image": 1})) \
            == "existing"                      # the builder never replaces
        assert cache.load_ex("k") == (None, "corrupt")
        assert cache.put("k", {"image": 1})    # same bytes, fresh record
        assert cache.load_ex("k") == ({"image": 1}, "hit")
        (new_pack,) = _pack_names(arch_dir)
        assert new_pack != old_pack
        assert cache.stats()["objects"] == 1
        assert cache.scrub()["dropped_keys"] == []

    def test_pack_an_alias_still_needs_is_kept(self, cache):
        assert cache.put("owner", {"image": 1})
        assert cache.put_payload("alias", codec.encode({"image": 1})) \
            == "alias"
        assert cache.put("owner", {"image": 2})
        assert cache.load_ex("alias") == ({"image": 1}, "hit")
        assert cache.load_ex("owner") == ({"image": 2}, "hit")
        assert cache.stats()["packs"] == 2
        # the digest of image 1 no longer names "owner": a third key with
        # those bytes must not be pointed at owner's new record
        assert cache.put("third", {"image": 1})
        assert cache.load_ex("third") == ({"image": 1}, "hit")

    def test_alias_of_a_damaged_record_heals(self, cache, arch_dir):
        """Re-saving an alias must not alias it straight back onto the
        record that just failed it."""
        assert cache.put("owner", {"image": 1})
        assert cache.put("alias", {"image": 1})
        assert cache.stats()["aliases"] == 1
        (damaged,) = _pack_names(arch_dir)
        rewrite(os.path.join(arch_dir, "packs", damaged), flip_middle_byte)
        for key in ("alias", "owner"):
            assert cache.load_ex(key) == (None, "corrupt")
            assert cache.put(key, {"image": 1})
            assert cache.load_ex(key) == ({"image": 1}, "hit")
        assert damaged not in _pack_names(arch_dir)  # orphaned, so unlinked
        assert cache.scrub()["dropped_keys"] == []

    def test_vanished_pack_is_a_miss(self, cache, arch_dir):
        """A pack evicted or replaced under a reader is a cold cache, not
        damage: nothing to count, and the next save replaces the entry."""
        assert cache.put("k", {"image": 1})
        (pack,) = _pack_names(arch_dir)
        os.unlink(os.path.join(arch_dir, "packs", pack))
        assert cache.load_ex("k") == (None, "miss")
        assert cache.put("k", {"image": 1})
        assert cache.load_ex("k") == ({"image": 1}, "hit")


class _Killed(Exception):
    """Stands in for a kill: not an OSError, so nothing absorbs it."""


def _kill_at(monkeypatch, step):
    """Make the next write die at *step* of ``_store``."""
    def die(*_args, **_kwargs):
        raise _Killed(step)

    if step == "written":     # the pack is durable but still writable
        monkeypatch.setattr(archive_mod.os, "chmod", die)
    elif step == "sealed":    # the pack is sealed; the index never heard of it
        monkeypatch.setattr(Archive, "_publish_index", die)
    else:                     # the new index is written but not renamed in,
        real = os.replace     # and a kill runs no cleanup

        def replace(src, dst):
            if str(dst).endswith("index.json"):
                die()
            return real(src, dst)
        monkeypatch.setattr(archive_mod.os, "replace", replace)
        monkeypatch.setattr(archive_mod.os, "unlink", die)


def _assert_clean(archive, images):
    """Every key hits its own image, the packs on disk are exactly the
    indexed ones, nothing else is left in the root, and scrub has
    nothing to do."""
    for key, image in images.items():
        assert archive.load_ex(key) == (image, "hit"), key
    indexed = {relpath for _key, relpath, *_ in archive.objects()}
    assert {f"packs/{name}" for name in _pack_names(archive.root)} == indexed
    assert sorted(os.listdir(archive.root)) == [".lock", "index.json",
                                                "packs"]
    assert archive.scrub() == {
        "files": len(indexed), "objects": len(indexed), "quarantined": [],
        "dropped_keys": [], "reclaimed": []}


class TestCrashConvergence:
    """Kill a writer at each step; the next writer must store the key
    again, and scrub must reclaim what the dead one left."""

    _IMAGES = {f"k{i}": {"image": i} for i in (1, 2, 3)}

    def test_record_served_only_to_its_key(self, arch_dir, monkeypatch):
        """The reproduction: a gc dies between unlinking a pack and
        publishing the index, the next put reuses the pack number, and
        k1's stale entry lands exactly on k3's record."""
        archive = Archive(arch_dir)
        assert archive.put("k1", {"image": 1})
        with monkeypatch.context() as patch:
            _kill_at(patch, "sealed")
            with pytest.raises(_Killed):
                archive.gc(0)
        assert archive.put("k3", {"image": 3})
        assert _pack_names(arch_dir) == ["pack-000000.pack"]
        assert archive.load_ex("k3") == ({"image": 3}, "hit")
        assert archive.load_ex("k1") == (None, "corrupt")
        report = archive.scrub()
        assert report["dropped_keys"] == ["k1"]
        assert report["quarantined"] == [] and report["reclaimed"] == []
        assert archive.load_ex("k1") == (None, "miss")

    @pytest.mark.parametrize("step", ["written", "sealed", "publish"])
    def test_killed_cache_save_converges(self, arch_dir, monkeypatch, step):
        assert Archive(arch_dir).put("k1", self._IMAGES["k1"])
        with monkeypatch.context() as patch:
            _kill_at(patch, step)
            with pytest.raises(_Killed):
                Archive(arch_dir).put("k2", self._IMAGES["k2"])
        archive = Archive(arch_dir)
        assert archive.load_ex("k2") == (None, "miss")  # never published
        assert archive.put("k2", self._IMAGES["k2"])
        assert archive.put_payload("k3", codec.encode(self._IMAGES["k3"])) \
            == "stored"
        report = archive.scrub()
        assert report["quarantined"] == [] and report["dropped_keys"] == []
        assert report["reclaimed"][0] == "packs/pack-000001.pack"
        if step == "publish":
            (tmp,) = report["reclaimed"][1:]
            assert tmp.startswith(".index-") and tmp.endswith(".tmp")
        else:
            assert len(report["reclaimed"]) == 1
        _assert_clean(archive, self._IMAGES)


_MALFORMED_ENTRIES = {
    "nan-offset": ["packs/pack-000000.pack", "NaN", 5],
    "legacy-shard": ["shard-build.write", 10, 100],
    "too-short": [1, 2],
    "string": "str",
    "null": None,
    "escapes-root": ["../../../etc/passwd", 0, 10],
}

# index entries near enough to the real shape to get past a careless check
_ENTRY_FIELDS = st.one_of(
    st.sampled_from(["shard-x.write", "packs/pack-000001.pack", "../x",
                     "/etc/passwd", "packs/../../x", "shard-\x00.write"]),
    st.integers(-3, 1 << 70), st.booleans(), st.none(), st.text(max_size=3))
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text()
    | st.lists(_ENTRY_FIELDS, min_size=2, max_size=5),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=10)


class TestHostileIndex:
    """``index.json`` is outside input: the repair tool has to survive
    whatever it finds there."""

    def _with_entry(self, arch_dir, entry):
        archive = Archive(arch_dir)
        assert archive.put("good", {"v": 1})
        doc = json.load(open(archive.index_path))
        doc["objects"]["bad"] = entry
        json.dump(doc, open(archive.index_path, "w"))
        return archive

    @pytest.mark.parametrize("name", sorted(_MALFORMED_ENTRIES))
    def test_malformed_entry_is_ignored(self, arch_dir, name):
        archive = self._with_entry(arch_dir, _MALFORMED_ENTRIES[name])
        assert archive.load_ex("bad") == (None, "miss")  # never followed
        assert not archive.contains("bad")
        assert [key for key, *_ in archive.objects()] == ["good"]
        assert archive.stats()["objects"] == 1
        assert archive.gc(1 << 40)["dropped_keys"] == []
        report = archive.scrub()
        assert report["dropped_keys"] == [] and report["quarantined"] == []
        assert archive.load_ex("good") == ({"v": 1}, "hit")
        assert archive.put("bad", {"v": 2})              # and replaceable
        assert archive.load_ex("bad") == ({"v": 2}, "hit")

    @pytest.mark.parametrize("name", sorted(_MALFORMED_ENTRIES))
    def test_cli_survives_malformed_entry(self, arch_dir, name, capsys):
        from repro.cli import main

        self._with_entry(arch_dir, _MALFORMED_ENTRIES[name])
        for action in ("ls", "scrub", "gc"):
            assert main(["snapshot", action, "--archive", arch_dir,
                         "--max-bytes", str(1 << 40)]) == 0
        out = capsys.readouterr().out
        assert "1 object(s)" in out and "quarantined" not in out

    @settings(max_examples=60, deadline=None)
    @given(objects=_JSON, contents=_JSON, blob=st.binary(max_size=200))
    def test_arbitrary_index_and_record_bytes(self, tmp_path_factory,
                                              objects, contents, blob):
        """Arbitrary JSON where the index sections go and arbitrary bytes
        where records go: every method answers, none raises."""
        parsed = archive_mod._parse_record(blob, 0)
        assert parsed is None or len(parsed) == 5
        root = str(tmp_path_factory.mktemp("hostile"))
        archive = Archive(root)
        assert archive.put("good", {"v": 1})
        with open(os.path.join(root, "packs", "pack-000001.pack"),
                  "wb") as handle:
            handle.write(archive_mod._pack_header() + blob)
        with open(archive.index_path, "w") as handle:
            json.dump({"schema": archive_mod.INDEX_SCHEMA,
                       "objects": objects, "contents": contents}, handle)
        keys = list(objects) if isinstance(objects, dict) else []
        for key in keys + ["absent"]:
            value, status = archive.load_ex(key)
            assert status in store.LOAD_STATUSES and value is None
        assert all(type(offset) is int and type(length) is int
                   for _key, _rel, offset, length in archive.objects())
        assert archive.stats()["objects"] <= len(keys)
        assert archive.put_payload("p", codec.encode({"v": 2})) in (
            "stored", "alias", "existing")
        assert archive.put("new", {"v": 3})
        assert archive.load_ex("new") == ({"v": 3}, "hit")
        archive.gc(0)
        archive.scrub()
        assert archive.scrub()["dropped_keys"] == []


class TestConcurrentWriters:
    def test_many_writers_one_consistent_index(self, arch_dir):
        """Pack writes and index merges serialize on the file lock.
        Every key must be readable afterwards, in a pack of its own, and
        the index must hold exactly the union."""
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
            thread.join()
        assert errors == []
        reader = Archive(arch_dir)
        keys = [key for key, *_ in reader.objects()]
        assert len(keys) == writers * per_writer
        assert all(reader.load_ex(k)[1] == "hit" for k in keys)
        assert reader.stats()["packs"] == writers * per_writer
        assert reader.scrub()["dropped_keys"] == []


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

    def test_build_deduplicates_unageable_cells(self, arch_dir):
        """PMFS is returned clean for every profile, so its images are
        byte-identical across profiles — the archive must store one."""
        cells = _CORPUS.matrix(*self._GRID, size_gib=0.0625,
                               churn_multiple=0.25)
        report = _CORPUS.run(cells, root=arch_dir)
        by_cell = {(c["fs"], c["profile"]): c["status"]
                   for c in report["cells"]}
        assert by_cell[("PMFS", "agrawal")] == "stored"
        assert by_cell[("PMFS", "wang-hpc")] == "alias"
        assert report["archive"]["aliases"] == 1
        # one pack per stored image; an alias writes none
        statuses = [c["status"] for c in report["cells"]]
        assert report["archive"]["packs"] == statuses.count("stored")
        assert report["metrics"]

    def test_jobs_do_not_change_bytes(self, tmp_path):
        """The whole point: fan-out is an implementation detail.  Same
        grid, any ``--jobs`` → byte-identical packs, index and report."""
        cells = _CORPUS.matrix(["WineFS"], ["agrawal", "wang-hpc"], [0.5],
                               [3], size_gib=0.0625, churn_multiple=0.25)
        roots, reports = [], []
        for jobs in (1, 2):
            root = str(tmp_path / f"jobs{jobs}")
            reports.append(_CORPUS.run(list(cells), jobs=jobs, root=root))
            roots.append(root)
        assert reports[0] == reports[1]
        read = lambda r, rel: open(os.path.join(r, rel), "rb").read()
        assert read(roots[0], "index.json") == read(roots[1], "index.json")
        packs = sorted(os.listdir(os.path.join(roots[0], "packs")))
        assert packs == sorted(os.listdir(os.path.join(roots[1], "packs")))
        for name in packs:
            assert read(roots[0], f"packs/{name}") == \
                read(roots[1], f"packs/{name}")

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
        assert count_aging.instances == 1  # warm restore from its pack
        stats = Archive(routed).stats()
        assert (stats["objects"], stats["packs"]) == (1, 1)

    def test_corrupt_archive_falls_back_to_aging(self, routed, count_aging):
        aged_fs("WineFS", **_AGE_KW)
        archive = Archive(routed)
        (pack_rel,) = {rel for _k, rel, *_ in archive.objects()}
        rewrite(os.path.join(routed, pack_rel), flip_middle_byte)
        fs, ctx = aged_fs("WineFS", **_AGE_KW)
        assert count_aging.instances == 2  # re-aged, run not stopped
        assert ctx.counters.registry.value(
            "snapshot_load_failures", fs="WineFS", reason="corrupt") == 1


# the "-array" ids name the structures the image is built on: the
# archive holds only what src/ builds, never a test oracle
@pytest.mark.parametrize("fs_name", sorted(SPECS_BY_NAME),
                         ids=lambda name: f"{name}-array")
def test_pack_restore_bit_identical(fs_name, routed, tmp_path):
    """A restore out of a *sealed pack* replays bit-identically to a
    cold re-age — same sim_ns clocks (repr-compared floats), counters,
    metrics, read bytes and statfs — for every evaluated file system."""
    fs_cold, ctx_cold = aged_fs(fs_name, **_AGE_KW)  # ages + archives
    reaged = _replay(fs_cold, ctx_cold)
    stats = Archive(routed).stats()  # warm path must come from a pack
    assert stats["packs"] == 1
    fs_warm, ctx_warm = aged_fs(fs_name, **_AGE_KW)
    _assert_bit_identical(_replay(fs_warm, ctx_warm), reaged)
