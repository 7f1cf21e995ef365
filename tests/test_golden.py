"""Every output with a bitwise contract matches the committed golden manifest (see ``golden.py``)."""

import json

import pytest

import golden


def test_outputs_match_the_golden_manifest():
    got = golden.compute()
    if isinstance(got, str):
        pytest.skip(got)
    moved = golden.compare(got, json.loads(golden.MANIFEST.read_text()))
    if isinstance(moved, str):
        pytest.skip(moved)
    assert moved == []


def test_compare_names_each_moved_added_and_dropped_digest():
    host = {"numpy": "2.0", "openblas": "0.3", "core": "Haswell"}
    manifest = {"fingerprint": host, "digests": {"a": "1", "b": "2", "c": "3"}}
    got = {"fingerprint": host, "digests": {"a": "1", "b": "9", "d": "4"}}
    assert golden.compare(got, manifest) == ["b: moved", "c: dropped", "d: added"]
    other = {"fingerprint": {**host, "numpy": "2.1"}, "digests": manifest["digests"]}
    assert "the manifest was made on" in golden.compare(other, manifest)
