"""Pinned bytes of the four campaign verbs (bench / slo / serve / snapshot).

``tests/data/campaign_cli_golden.json`` holds the sha256 of everything
each invocation below leaves behind — report, captured stdout, and for
``snapshot build`` every image file of the archive
(``PYTHONPATH=src python tests/test_campaign_cli.py`` rewrites it), so a
passing replay means every flag, default and report byte survived.
Re-record only for an intended change of simulated output.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os

import pytest

from repro.cli import main

GOLDEN = os.path.join(os.path.dirname(__file__), "data",
                      "campaign_cli_golden.json")

#: (name, argv, outputs) — run in order in one directory (``snapshot ls``
#: lists the archive an earlier entry built); an output that is a
#: directory is hashed file by file
INVOCATIONS = [
    ("bench-out",
     ["bench", "--fs", "PMFS,WineFS", "--patterns", "rand-read",
      "--seeds", "1,2", "--size-gib", "0.0625", "--out", "bench.json"],
     ["bench.json"]),
    ("bench-stdout-jobs2",
     ["bench", "--fs", "PMFS,WineFS", "--patterns", "rand-read",
      "--seeds", "2,1", "--size-gib", "0.0625", "--jobs", "2"], []),
    ("bench-defaults", ["bench"], []),
    ("slo-out-om",
     ["slo", "--fs", "WineFS,ext4-DAX", "--seeds", "1,2", "--ops", "60",
      "--size-gib", "0.125", "--out", "slo.json"],
     ["slo.json"]),
    ("slo-stdout", ["slo", "--seeds", "2", "--ops", "40", "--out", "-"], []),
    ("serve-load-faults",
     ["serve", "--load", "--fs", "WineFS,NOVA", "--seeds", "1,2",
      "--ops", "120", "--faults", "--out", "serve.json"],
     ["serve.json"]),
    ("serve-load-admission",
     ["serve", "--load", "--queue-cap", "2", "--tenants", "3",
      "--out", "-"], []),
    ("serve-demo", ["serve", "--fs", "WineFS,NOVA"], []),
    ("snapshot-build-grid",
     ["snapshot", "build", "--archive", "A", "--fs", "WineFS,PMFS",
      "--profiles", "agrawal,wang-hpc", "--utils", "0.5", "--seeds", "1",
      "--size-gib", "0.0625", "--out", "corpus.json"],
     ["corpus.json", "A"]),
    ("snapshot-build-jobs2",
     ["snapshot", "build", "--archive", "B", "--size-gib", "0.0625",
      "--jobs", "2", "--out", "-"],
     ["B"]),
    ("snapshot-ls", ["snapshot", "ls", "--archive", "A"], []),
]


def _sha(blob: bytes) -> str:
    return hashlib.sha256(blob).hexdigest()


def _hash_outputs(outputs):
    hashes = {}
    for out in outputs:
        if os.path.isdir(out):
            paths = sorted(os.path.join(parent, name)
                           for parent, _dirs, names in os.walk(out)
                           for name in names)
        else:
            paths = [out]
        for path in paths:
            with open(path, "rb") as handle:
                hashes[path.replace(os.sep, "/")] = _sha(handle.read())
    return hashes


def replay(workdir: str) -> dict:
    """Run every invocation inside *workdir*; ``{name: {output: sha256}}``."""
    prior_cwd = os.getcwd()
    prior_cache = os.environ.get("REPRO_SNAPSHOT_DIR")
    os.chdir(workdir)
    os.environ["REPRO_SNAPSHOT_DIR"] = os.path.join(workdir, "cache")
    try:
        result = {}
        for name, argv, outputs in INVOCATIONS:
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                assert main(argv) == 0, name
            result[name] = {"stdout": _sha(stdout.getvalue().encode()),
                            **_hash_outputs(outputs)}
        return result
    finally:
        os.chdir(prior_cwd)
        if prior_cache is None:
            os.environ.pop("REPRO_SNAPSHOT_DIR", None)
        else:
            os.environ["REPRO_SNAPSHOT_DIR"] = prior_cache


@pytest.fixture(scope="module")
def replayed(tmp_path_factory):
    return replay(str(tmp_path_factory.mktemp("campaign-cli")))


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN) as handle:
        return json.load(handle)


def test_golden_names_every_invocation(golden):
    assert sorted(golden) == sorted(name for name, _, _ in INVOCATIONS)


@pytest.mark.parametrize("name", [name for name, _, _ in INVOCATIONS])
def test_invocation_bytes_match_golden(name, replayed, golden):
    assert replayed[name] == golden[name]


# -- input handling: usage errors before anything runs -----------------------

@pytest.fixture
def no_workers(monkeypatch):
    """Fail the test if a campaign reaches the fleet runner."""
    monkeypatch.setattr("repro.harness.fleet.run_fleet",
                        lambda *a, **k: pytest.fail("a worker started"))


def _usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert "usage: repro" in err and "Traceback" not in err
    return err


@pytest.mark.parametrize("argv", [
    ["bench", "--seeds", ""],
    ["slo", "--seeds", ""],
    ["slo", "--seeds", "1,x"],
    ["bench", "--patterns", "bogus"],
    ["bench", "--fs", "WineFS,NoSuchFS"],
    ["snapshot", "build", "--profiles", "nope"],
    ["snapshot", "build", "--utils", "1.5"],
    ["snapshot", "build", "--utils", "0"],
    ["serve", "--load", "--fs", ","],
], ids=lambda argv: " ".join(argv))
def test_malformed_list_flag_is_a_usage_error(argv, capsys, no_workers):
    err = _usage_error(argv, capsys)
    assert f"argument {argv[-2]}" in err


def test_duplicate_list_items_name_one_cell(capsys):
    argv = ["bench", "--patterns", "rand-read", "--size-gib", "0.0625"]
    assert main(argv + ["--fs", "WineFS,WineFS", "--seeds", "1,1"]) == 0
    doubled = capsys.readouterr().out
    assert len(json.loads(doubled)["cells"]) == 1
    assert main(argv + ["--fs", "WineFS", "--seeds", "1"]) == 0
    assert capsys.readouterr().out == doubled


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as scratch:
        recorded = replay(scratch)
    with open(GOLDEN, "w") as handle:
        json.dump(recorded, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"recorded {len(recorded)} invocations -> {GOLDEN}")
