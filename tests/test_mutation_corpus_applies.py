"""Every entry of the mutation corpus still applies to this tree.

``tests/run_mutations.py`` (opt-in, minutes) reports an entry whose
``find`` text moved as ``UNAPPLIED``; this is the same check alone, in
milliseconds, so a refactor that un-anchors a mutation fails tier-1 in
the PR that moved the text instead of at the next opt-in run.
"""

import json
import os

import pytest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(REPO_ROOT, "tests", "mutations", "corpus.json"),
          encoding="utf-8") as _fh:
    ENTRIES = json.load(_fh)["mutations"]


def test_entry_names_are_unique():
    names = [entry["name"] for entry in ENTRIES]
    assert len(names) == len(set(names))


@pytest.mark.parametrize("entry", ENTRIES, ids=lambda e: e["name"])
def test_find_occurs_exactly_once_in_its_file(entry):
    with open(os.path.join(REPO_ROOT, entry["file"]), encoding="utf-8") as fh:
        text = fh.read()
    assert text.count(entry["find"]) == 1
    assert entry["replace"] != entry["find"]
    assert entry["must_fail"]
    for test in entry["must_fail"]:
        assert os.path.isfile(os.path.join(REPO_ROOT, test.split("::")[0]))


def test_runner_rejects_a_selection_that_matches_no_entry(capsys,
                                                          monkeypatch):
    from tests import run_mutations

    def no_copy(*_args, **_kwargs):
        raise AssertionError("copied a tree for an empty selection")
    monkeypatch.setattr(run_mutations.shutil, "copytree", no_copy)
    assert run_mutations.main(["no-such-entry"]) == 2
    assert "no corpus entry matches no-such-entry" in capsys.readouterr().err
