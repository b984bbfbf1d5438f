"""Shared fixtures: machines and file systems.

``any_fs`` parametrizes a test over all nine evaluated configurations so
POSIX-semantics tests run against every file system.
"""

from __future__ import annotations

import os
import random
import warnings
import zlib

import pytest

from repro import (Ext4DAX, NovaFS, PMFS, SplitFS, StrataFS, WineFS,
                   XfsDAX, make_machine)
from repro.clock import make_context
from repro.params import GIB
from repro.pm.device import PMDevice

#: every test-side RNG derives from this seed so a failing run is
#: reproducible from the test id alone; tests that need their own seed
#: sweep (property tests) derive child seeds from the fixture
TEST_SEED = 20210101


@pytest.fixture(autouse=True, scope="session")
def _sandbox_snapshot_cache(tmp_path_factory):
    """Keep the whole suite hermetic: aged-image snapshots written by any
    test land in a session temp dir, never in the user's real
    ``~/.cache/repro`` (tests that need their own dir still override the
    variable per-test)."""
    prior = os.environ.get("REPRO_SNAPSHOT_DIR")
    os.environ["REPRO_SNAPSHOT_DIR"] = str(
        tmp_path_factory.mktemp("snapshot-cache"))
    yield
    if prior is None:
        os.environ.pop("REPRO_SNAPSHOT_DIR", None)
    else:
        os.environ["REPRO_SNAPSHOT_DIR"] = prior


@pytest.fixture
def restore_warnings():
    """``call(fn, *args, **kwargs) -> (result, messages)``: run *fn* and
    return the messages of the aged-image restore warnings it issued
    (``harness.aged_fs`` warns once per image it could not restore)."""
    def call(fn, *args, **kwargs):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = fn(*args, **kwargs)
        return result, [str(w.message) for w in caught
                        if issubclass(w.category, RuntimeWarning)
                        and "could not be restored" in str(w.message)]
    return call


@pytest.fixture
def deterministic_rng(request):
    """One seeded RNG per test, salted by the test's node id.

    Tests and benchmarks must route randomness through this fixture (or
    an explicit ``random.Random(seed)``) — never the bare ``random``
    module functions, which share interpreter-global state across tests.
    """
    # crc32, not hash(): str hashing is salted per process and would make
    # the "deterministic" rng vary run to run
    salt = zlib.crc32(request.node.nodeid.encode())
    return random.Random((TEST_SEED << 32) ^ salt)

FS_FACTORIES = {
    "WineFS": lambda dev, n: WineFS(dev, num_cpus=n),
    "WineFS-relaxed": lambda dev, n: WineFS(dev, num_cpus=n, mode="relaxed"),
    "NOVA": lambda dev, n: NovaFS(dev, num_cpus=n),
    "NOVA-relaxed": lambda dev, n: NovaFS(dev, num_cpus=n, mode="relaxed"),
    "ext4-DAX": lambda dev, n: Ext4DAX(dev, num_cpus=n),
    "xfs-DAX": lambda dev, n: XfsDAX(dev, num_cpus=n),
    "PMFS": lambda dev, n: PMFS(dev, num_cpus=n),
    "SplitFS": lambda dev, n: SplitFS(dev, num_cpus=n),
    "Strata": lambda dev, n: StrataFS(dev, num_cpus=n),
}

SIZE = 256 * 1024 * 1024    # 256MB test partitions
NUM_CPUS = 4


@pytest.fixture
def ctx():
    return make_context(NUM_CPUS)


@pytest.fixture
def device():
    return PMDevice(SIZE)


@pytest.fixture(params=sorted(FS_FACTORIES))
def any_fs(request, ctx):
    """Every file system, formatted and mounted."""
    device = PMDevice(SIZE)
    fs = FS_FACTORIES[request.param](device, NUM_CPUS)
    fs.mkfs(ctx)
    return fs


@pytest.fixture
def winefs(ctx):
    device = PMDevice(SIZE)
    fs = WineFS(device, num_cpus=NUM_CPUS)
    fs.mkfs(ctx)
    return fs


@pytest.fixture
def winefs_tracked(ctx):
    """WineFS on a store-tracking device (crash tests)."""
    device = PMDevice(SIZE, track_stores=True)
    fs = WineFS(device, num_cpus=2)
    fs.mkfs(ctx)
    return fs
