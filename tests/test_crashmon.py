"""Crash-consistency framework tests (ACE, explorer, checker)."""

from dataclasses import dataclass, field

import pytest

from repro.clock import make_context
from repro.core.filesystem import WineFS
from repro.crashmon import (AceWorkload, CrashExplorer, CrashTestResult,
                            SyscallOp, check_consistency,
                            generate_workloads)
from repro.crashmon.checker import (ConsistencyError, capture_state,
                                    check_invariants, states_equal)
from repro.faults import FaultPlan, FaultSpec
from repro.params import BLOCK_SIZE, HUGE_PAGE, KIB, MIB
from repro.pm.device import PMDevice


def _fs(track=True):
    device = PMDevice(64 * MIB, track_stores=track)
    fs = WineFS(device, num_cpus=2)
    ctx = make_context(2)
    fs.mkfs(ctx)
    return fs, ctx


class TestAce:
    def test_workload_catalogue(self):
        workloads = generate_workloads()
        names = {w.name for w in workloads}
        # every metadata-mutating syscall appears alone at least once
        for expected in ("create", "mkdir", "unlink", "rmdir", "rename",
                         "append", "overwrite", "truncate-shrink",
                         "fallocate"):
            assert expected in names
        # and seq-2 composites exist
        assert "create-then-rename" in names

    def test_seq1_only(self):
        assert len(generate_workloads(seq2=False)) < \
            len(generate_workloads(seq2=True))

    def test_ops_apply(self):
        fs, ctx = _fs(track=False)
        for w in generate_workloads():
            device = PMDevice(64 * MIB)
            f = WineFS(device, num_cpus=2)
            c = make_context(2)
            f.mkfs(c)
            w.run_setup(f, c)
            for op in w.ops:
                op.apply(f, c)    # must not raise

    def test_unknown_op_rejected(self):
        fs, ctx = _fs(track=False)
        with pytest.raises(ValueError):
            SyscallOp("chmod", "/x").apply(fs, ctx)

    def test_str_forms(self):
        assert "rename" in str(SyscallOp("rename", "/a", arg="/b"))
        assert "append" in str(SyscallOp("append", "/a", size=10))


class TestChecker:
    def test_capture_state_walks_tree(self):
        fs, ctx = _fs(track=False)
        fs.mkdir("/d", ctx)
        fs.create("/d/f", ctx).append(b"xyz", ctx)
        state = capture_state(fs)
        d = state.as_dict()
        assert d["/d"][0] is True
        assert d["/d/f"][1] == 3

    def test_states_equal_data_sensitivity(self):
        fs, ctx = _fs(track=False)
        f = fs.create("/f", ctx)
        f.append(b"aaa", ctx)
        s1 = capture_state(fs)
        f.pwrite(0, b"bbb", ctx)
        s2 = capture_state(fs)
        assert not states_equal(s1, s2, compare_data=True)
        assert states_equal(s1, s2, compare_data=False)   # same size

    def test_check_consistency_accepts_pre_or_post(self):
        fs, ctx = _fs(track=False)
        pre = capture_state(fs)
        fs.create("/new", ctx)
        post = capture_state(fs)
        check_consistency(fs, post, pre, post)      # matches post
        # a state matching pre is also fine (rolled back)
        fs.unlink("/new", ctx)
        rolled = capture_state(fs)
        check_consistency(fs, rolled, pre, post)

    def test_check_consistency_rejects_intermediate(self):
        fs, ctx = _fs(track=False)
        pre = capture_state(fs)
        fs.create("/a", ctx)
        mid = capture_state(fs)
        fs.create("/b", ctx)
        post = capture_state(fs)
        with pytest.raises(ConsistencyError):
            check_consistency(fs, mid, pre, post)

    def test_invariants_pass_on_healthy_fs(self):
        fs, ctx = _fs(track=False)
        fs.create("/f", ctx).append(b"x" * 8192, ctx)
        check_invariants(fs)


class TestExplorer:
    def test_winefs_passes_create(self):
        explorer = CrashExplorer(lambda dev: WineFS(dev, num_cpus=2),
                                 device_size=64 * MIB)
        result = explorer.run_workload(
            AceWorkload("create", ops=[SyscallOp("create", "/f")]))
        assert result.passed
        assert result.crash_points > 1          # mid-syscall crash points
        assert result.states_checked >= result.crash_points

    def test_winefs_passes_rename_clobber(self):
        """The workload that caught an unlogged slot invalidation during
        development (see WineFS._free_inode)."""
        explorer = CrashExplorer(lambda dev: WineFS(dev, num_cpus=2),
                                 device_size=64 * MIB)
        wl = AceWorkload(
            "rename-clobber",
            setup=[SyscallOp("create", "/f0"), SyscallOp("create", "/f1"),
                   SyscallOp("append", "/f1", size=4096)],
            ops=[SyscallOp("rename", "/f0", arg="/f1")])
        result = explorer.run_workload(wl)
        assert result.passed, result.violations

    def test_subset_bounding(self):
        explorer = CrashExplorer(lambda dev: WineFS(dev, num_cpus=2),
                                 device_size=64 * MIB, max_subsets=4)
        subsets = explorer._subsets(list(range(20)))
        assert len(subsets) <= 4

    def test_small_subsets_exhaustive(self):
        explorer = CrashExplorer(lambda dev: WineFS(dev, num_cpus=2),
                                 device_size=64 * MIB)
        subsets = explorer._subsets([1, 2, 3])
        assert len(subsets) == 8      # 2^3

    @pytest.mark.parametrize("name", ["append", "truncate-shrink",
                                      "mkdir-then-create"])
    def test_selected_workloads_pass(self, name):
        explorer = CrashExplorer(lambda dev: WineFS(dev, num_cpus=2),
                                 device_size=64 * MIB)
        wl = next(w for w in generate_workloads() if w.name == name)
        result = explorer.run_workload(wl)
        assert result.passed, result.violations


@pytest.mark.parametrize("mode", ["strict", "relaxed"])
@pytest.mark.parametrize("name", ["overwrite",
                                  "fallocate-overwrite-truncate"])
def test_overwrite_paths_pass_every_crash_state(name, mode):
    """Every crash state of the overwrite paths: copy-on-write through
    ``_store_extents`` (strict) and the in-place store (relaxed)."""
    explorer = CrashExplorer(lambda dev: WineFS(dev, num_cpus=2, mode=mode),
                             device_size=64 * MIB)
    wl = next(w for w in generate_workloads(seq2=True, seq3=True)
              if w.name == name)
    result = explorer.run_workload(wl)
    assert result.passed, result.violations
    assert result.states_checked > result.crash_points > 0


@dataclass(frozen=True)
class _OverwriteOnFailingBlock(SyscallOp):
    """``overwrite`` whose first block takes one write error.  The plan
    goes on the device the workload runs on, for this op only: the crash
    images the explorer mounts never see it."""

    plans: list = field(default_factory=list, compare=False)

    def apply(self, fs, ctx) -> None:
        ino = fs.getattr(self.path, ctx).ino
        block = next(iter(fs.file_extents(ino))).start
        plan = FaultPlan(specs=[FaultSpec("write_error", blocks=(block,),
                                          count=1)])
        fs.device.set_fault_plan(plan)
        try:
            super().apply(fs, ctx)
        finally:
            fs.device.set_fault_plan(None)
        self.plans.append(plan)


def test_bad_block_relocation_passes_every_crash_state():
    """A 4 KiB overwrite data-journaled in place (strict WineFS, a file
    holding one aligned hugepage) whose block fails: the block is
    salvaged into a fresh hole, the map swung over in a transaction and
    the write retried there.  Every crash state recovers the pre or the
    post state, file contents included."""
    overwrite = _OverwriteOnFailingBlock("overwrite", "/f0", size=4096)
    explorer = CrashExplorer(lambda dev: WineFS(dev, num_cpus=2,
                                                mode="strict"),
                             device_size=64 * MIB)
    wl = AceWorkload(
        "overwrite-bad-block",
        setup=[SyscallOp("create", "/f0"),
               SyscallOp("append", "/f0", size=HUGE_PAGE)],
        ops=[overwrite])
    result = explorer.run_workload(wl)
    assert result.passed, result.violations
    assert result.states_checked > result.crash_points > 0
    # the in-place path ran and relocated (a CoW never writes the
    # file's own block, so it could not have hit the planned one)
    (plan,) = overwrite.plans
    assert plan.counts == {("write_error", "injected"): 1,
                           ("write_error", "masked"): 1}


@dataclass(frozen=True)
class _FreedBlocksReusedAtOnce(SyscallOp):
    """An op on a machine where another CPU reuses a freed block at once:
    every extent WineFS frees is overwritten durably before ``_free``
    returns.  A block freed while a transaction could still roll back
    to it then shows up as foreign bytes in a crash state.  Kind
    ``rewrite`` maps the file, which queues it (§3.6), and drains the
    rewrite queue; any other kind is the plain syscall."""

    done: list = field(default_factory=list, compare=False)

    def apply(self, fs, ctx) -> None:
        free = fs._free

        def free_then_reuse(extents, ctx=None):
            free(extents, ctx)
            for ext in extents:
                fs.device.store(ext.start * BLOCK_SIZE,
                                b"\xee" * ext.length * BLOCK_SIZE)
                fs.device.clwb(ext.start * BLOCK_SIZE,
                               ext.length * BLOCK_SIZE)
            fs.device.sfence()

        fs._free = free_then_reuse
        try:
            if self.kind != "rewrite":
                super().apply(fs, ctx)
                return
            f = fs.open(self.path, ctx)
            f.mmap(ctx)
            f.close()
            self.done.append(fs.rewrite_queue.run_pending(ctx))
        finally:
            del fs._free


def _fragmented_setup():
    """``/frag``: 2 MiB appended 64 KiB at a time, interleaved with
    ``/gap``, so its map runs past the inline extents into an indirect
    chain."""
    setup = [SyscallOp("create", "/frag"), SyscallOp("create", "/gap")]
    for _ in range(HUGE_PAGE // (64 * KIB)):
        setup += [SyscallOp("append", "/frag", size=64 * KIB),
                  SyscallOp("append", "/gap", size=64 * KIB)]
    return setup


def test_reactive_rewrite_reads_the_old_or_the_new_map_in_every_crash_state():
    """§3.6's rewrite of a fragmented mapped file copies it to aligned
    blocks, swaps the extent map through the journal and frees the old
    blocks.  In every crash state the file reads its bytes through the
    old map or the new one, even though each freed block (old data, old
    indirect chain) is reused the instant it is freed."""
    setup = _fragmented_setup()
    rewrite = _FreedBlocksReusedAtOnce("rewrite", "/frag")
    # every crash point, with a sample of each one's surviving subsets
    explorer = CrashExplorer(lambda dev: WineFS(dev, num_cpus=2),
                             device_size=64 * MIB, max_subsets=8)
    result = explorer.run_workload(AceWorkload("rewrite", setup=setup,
                                               ops=[rewrite]))
    assert result.passed, result.violations[:3]
    assert rewrite.done == [1]
    assert result.states_checked > result.crash_points > 0


@pytest.mark.parametrize("op", [
    _FreedBlocksReusedAtOnce("unlink", "/frag"),
    _FreedBlocksReusedAtOnce("truncate", "/frag", size=64 * KIB),
    _FreedBlocksReusedAtOnce("rename", "/gap", arg="/frag")],
    ids=lambda op: op.kind)
def test_freed_blocks_wait_for_the_commit_in_every_crash_state(op):
    """Unlinking or truncating a file whose map has an indirect chain,
    or renaming another file over it, frees its data blocks (and, for
    the unlink and the rename, the chain) inside a metadata
    transaction.  Each crash state rolls
    back to the old map or keeps the new one, so none may read a block
    that was reused before the commit."""
    explorer = CrashExplorer(lambda dev: WineFS(dev, num_cpus=2),
                             device_size=64 * MIB, max_subsets=8)
    result = explorer.run_workload(AceWorkload(
        op.kind, setup=_fragmented_setup(), ops=[op]))
    assert result.passed, result.violations[:3]
    assert result.states_checked > result.crash_points > 0


@dataclass(frozen=True)
class _Remount(SyscallOp):
    """Mount again, after a clean unmount (kind ``clean``) or without
    one, as after a crash with nothing in flight (kind ``recovery``):
    either way recovery runs and every DRAM index is rebuilt from PM."""

    def apply(self, fs, ctx) -> None:
        if self.kind == "clean":
            fs.unmount(ctx)
        else:
            fs.device.drain()
        fs.mount(ctx)


@pytest.mark.parametrize("remount", [None, "recovery", "clean"],
                         ids=["live", "after-recovery",
                              "after-clean-remount"])
def test_rename_over_a_chained_file_is_atomic_in_every_crash_state(remount):
    """A rename over a file with an indirect chain invalidates the
    victim's slot and rewrites the moved file's name, which lies past
    the slot's header and inline extents.  Both sit under one undo
    image, so every crash state holds the two files or the moved one
    under its new name.  After a remount the moved file's first
    update copies its chain (the other serialize branch); the names
    are longer than the 7 name bytes a 72-byte undo image would
    cover.  A mount after a clean unmount must erase the journal too:
    a stale COMMIT record of a reused transaction id would keep a
    crashed rename from rolling back."""
    src, dst = "/a-moved-file", "/a-victim-file"
    setup = [SyscallOp("create", dst), SyscallOp("create", src)]
    for _ in range(HUGE_PAGE // (64 * KIB)):
        setup += [SyscallOp("append", dst, size=64 * KIB),
                  SyscallOp("append", src, size=64 * KIB)]
    if remount:
        setup.append(_Remount(remount, "/"))
    explorer = CrashExplorer(lambda dev: WineFS(dev, num_cpus=2),
                             device_size=64 * MIB, max_subsets=8)
    result = explorer.run_workload(AceWorkload(
        "rename-over-chained", setup=setup,
        ops=[SyscallOp("rename", src, arg=dst)]))
    assert result.passed, result.violations[:3]
    assert result.states_checked > result.crash_points > 0


class TestSeq3:
    def test_seq3_extends_catalogue(self):
        base = generate_workloads(seq2=True)
        deep = generate_workloads(seq2=True, seq3=True)
        assert len(deep) > len(base)
        names = {w.name for w in deep} - {w.name for w in base}
        assert "create-append-rename" in names
        assert all(len(w.ops) == 3 for w in deep
                   if w.name in names)

    def test_seq3_ops_apply(self):
        for w in generate_workloads(seq2=False, seq3=True):
            device = PMDevice(64 * MIB)
            f = WineFS(device, num_cpus=2)
            c = make_context(2)
            f.mkfs(c)
            w.run_setup(f, c)
            for op in w.ops:
                op.apply(f, c)    # must not raise


def build_corpus(explorer, workloads, per_op_limit=6):
    """Deterministically sample crash states into corpus entries.

    Strides through each op's subset enumeration (no randomness), so
    the same code version always produces the same corpus.
    """
    entries = []
    for workload in workloads:
        for i, _op, _device, _pre, _post, epochs in \
                explorer._run_ops(workload):
            picked = 0
            for epoch, seqs in epochs:
                if picked >= per_op_limit:
                    break
                subsets = explorer._subsets(seqs)
                remaining = per_op_limit - picked
                stride = max(1, len(subsets) // remaining)
                for s in subsets[::stride][:remaining]:
                    entries.append({"workload": workload.name,
                                    "op": i, "epoch": epoch,
                                    "surviving": sorted(s)})
                    picked += 1
    return entries


def replay_crash_states(explorer, workload, points):
    """Re-check recorded crash states (regression-corpus replay).

    Each point is ``{"op": <index into workload.ops>, "epoch": int,
    "surviving": [store seqs]}`` as produced by :func:`build_corpus`.
    A point whose epoch no longer exists is reported as a violation —
    that means the on-PM store sequence changed and the corpus must
    be regenerated, a drift worth failing loudly on.
    """
    result = CrashTestResult(workload=workload.name)
    by_op = {}
    for p in points:
        by_op.setdefault(int(p["op"]), []).append(p)
    for i, op, device, pre, post, epochs in explorer._run_ops(workload):
        fenced = dict(epochs)
        for p in by_op.get(i, ()):
            epoch = p["epoch"]
            surviving = tuple(p["surviving"])
            result.crash_points += 1
            if epoch not in fenced:
                result.violations.append(
                    f"{op}: stale corpus point epoch={epoch} — "
                    f"regenerate tests/data/crash_corpus.json")
                continue
            result.states_checked += 1
            image = device.capture_crash_image(epoch, surviving)
            explorer._check_one(image, pre, post, op, epoch, surviving,
                                result)
    return result


class TestCorpus:
    """Regression replay of the committed crash-state corpus."""

    @staticmethod
    def _load():
        import json
        import os
        path = os.path.join(os.path.dirname(__file__), "data",
                            "crash_corpus.json")
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)

    def test_corpus_replays_consistently(self):
        corpus = self._load()
        explorer = CrashExplorer(
            lambda dev: WineFS(dev, num_cpus=corpus["num_cpus"]),
            device_size=corpus["device_mib"] * MIB,
            num_cpus=corpus["num_cpus"])
        workloads = {w.name: w
                     for w in generate_workloads(seq2=True, seq3=True)}
        by_wl = {}
        for e in corpus["entries"]:
            by_wl.setdefault(e["workload"], []).append(e)
        assert by_wl, "corpus is empty"
        checked = 0
        for name, points in by_wl.items():
            result = replay_crash_states(explorer, workloads[name], points)
            assert result.passed, (name, result.violations[:3])
            checked += result.states_checked
        assert checked == len(corpus["entries"])

    def test_corpus_covers_seq3(self):
        corpus = self._load()
        names = {e["workload"] for e in corpus["entries"]}
        seq3_names = {w.name
                      for w in generate_workloads(seq2=False, seq3=True)
                      } - {w.name for w in generate_workloads(seq2=True)}
        assert names & seq3_names

    def test_build_corpus_deterministic(self):
        explorer = CrashExplorer(lambda dev: WineFS(dev, num_cpus=2),
                                 device_size=64 * MIB, num_cpus=2)
        wl = [w for w in generate_workloads(seq2=False)
              if w.name in ("create", "append")]
        a = build_corpus(explorer, wl, per_op_limit=3)
        b = build_corpus(explorer, wl, per_op_limit=3)
        assert a == b and a
