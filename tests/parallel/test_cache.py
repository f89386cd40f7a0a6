"""Content-addressed result cache: correctness contract.

The three properties the ISSUE pins down:

1. a re-run with identical inputs is answered from the cache (zero
   cells dispatched),
2. a change to the ``src/repro`` code digest invalidates every entry,
3. ``--no-cache`` (``cache=False``) never reads *or writes* the cache.
"""

import json
from pathlib import Path

import pytest

from repro.parallel import ResultCache, cell_key, code_digest, run_cells
from repro.parallel.tasks import cacheable_spec


@pytest.fixture()
def cache(tmp_path):
    return ResultCache(str(tmp_path / "cache"))


def _cells(n):
    return [{"kind": "_selftest", "i": i} for i in range(n)]


def _entry(cache, key) -> Path:
    return Path(cache._path(key))


# --------------------------------------------------------------- unit level
def test_put_get_roundtrip(cache):
    key = cell_key("_selftest", {"i": 0})
    assert cache.get(key) == (False, None)
    assert cache.put(key, "_selftest", {"i": 0}, {"answer": 42})
    assert cache.get(key) == (True, {"answer": 42})
    assert (cache.hits, cache.misses, cache.stores) == (1, 1, 1)


def test_entries_are_self_describing(cache):
    key = cell_key("_selftest", {"i": 3})
    cache.put(key, "_selftest", {"i": 3}, [1, 2, 3])
    entry = json.loads(_entry(cache, key).read_text())
    assert entry["key"] == key
    assert entry["kind"] == "_selftest"
    assert entry["cell"] == {"i": 3}
    assert entry["code"] == code_digest()
    assert "created" in entry


def test_corrupt_entry_is_a_miss(cache):
    key = cell_key("_selftest", {"i": 0})
    cache.put(key, "_selftest", {"i": 0}, "ok")
    _entry(cache, key).write_text("{not json")
    assert cache.get(key) == (False, None)


def test_corrupt_entry_is_quarantined_not_left_in_place(cache):
    key = cell_key("_selftest", {"i": 0})
    cache.put(key, "_selftest", {"i": 0}, "ok")
    path = _entry(cache, key)
    path.write_text("{not json")
    assert cache.get(key) == (False, None)
    assert cache.quarantined == 1
    # the bad bytes moved aside for the audit trail, slot freed
    assert not path.exists()
    aside = path.with_suffix(path.suffix + ".corrupt")
    assert aside.read_text() == "{not json"
    # the freed slot is immediately reusable
    assert cache.put(key, "_selftest", {"i": 0}, "again")
    assert cache.get(key) == (True, "again")


def test_wrong_key_entry_is_quarantined(cache):
    key_a = cell_key("_selftest", {"i": 1})
    key_b = cell_key("_selftest", {"i": 2})
    cache.put(key_a, "_selftest", {"i": 1}, "a")
    # misfile A's (valid) bytes into B's slot
    path_b = _entry(cache, key_b)
    path_b.parent.mkdir(parents=True, exist_ok=True)
    path_b.write_text(_entry(cache, key_a).read_text())
    assert cache.get(key_b) == (False, None)
    assert cache.quarantined == 1
    assert not path_b.exists()
    assert path_b.with_suffix(path_b.suffix + ".corrupt").exists()
    # the correctly-filed entry is untouched
    assert cache.get(key_a) == (True, "a")


def test_entry_without_value_is_quarantined(cache):
    key = cell_key("_selftest", {"i": 0})
    path = _entry(cache, key)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"key": key, "kind": "_selftest"}))
    assert cache.get(key) == (False, None)
    assert cache.quarantined == 1
    assert not path.exists()


def test_plain_miss_is_not_quarantine(cache):
    assert cache.get(cell_key("_selftest", {"i": 7})) == (False, None)
    assert cache.quarantined == 0


def test_unserializable_value_is_rejected(cache):
    key = cell_key("_selftest", {"i": 0})
    assert not cache.put(key, "_selftest", {"i": 0}, object())
    assert cache.get(key) == (False, None)


def test_cell_key_depends_on_code_digest():
    spec = {"i": 0}
    assert cell_key("k", spec, code="aaa") != cell_key("k", spec, code="bbb")
    assert cell_key("k", spec) == cell_key("k", spec)


def test_cell_key_depends_on_kind_and_spec():
    assert cell_key("a", {"i": 0}) != cell_key("b", {"i": 0})
    assert cell_key("a", {"i": 0}) != cell_key("a", {"i": 1})


def test_underscore_keys_never_reach_the_cache_key():
    assert cacheable_spec({"kind": "k", "i": 0, "_budget": 9}) == \
        {"kind": "k", "i": 0}
    assert cacheable_spec({"kind": "k", "_nocache": True}) is None


def test_cache_dir_env_override(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "elsewhere"))
    cache = ResultCache()
    assert str(cache.root) == str(tmp_path / "elsewhere")


# ------------------------------------------------------------- engine level
def test_warm_rerun_hits_for_identical_inputs(cache):
    cells = _cells(8)
    cold = run_cells(cells, workers=2, cache=cache)
    assert (cold.executed, cold.cached, cold.forks) == (8, 0, 2)
    warm = run_cells(cells, workers=2, cache=cache)
    assert (warm.executed, warm.cached, warm.forks) == (0, 8, 0)
    assert warm.results == cold.results


def test_code_digest_change_invalidates(cache, monkeypatch):
    cells = _cells(3)
    run_cells(cells, cache=cache)
    monkeypatch.setattr(
        "repro.parallel.cache.code_digest", lambda: "edited-tree-digest"
    )
    rerun = run_cells(cells, cache=cache)
    assert (rerun.executed, rerun.cached) == (3, 0)


def test_no_cache_neither_reads_nor_writes(cache):
    cells = _cells(3)
    run_cells(cells, cache=cache)  # populate
    report = run_cells(cells, workers=2, cache=False)
    assert (report.executed, report.cached) == (3, 0)  # no reads
    assert cache.hits == 0


def test_no_cache_creates_no_directory(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "never"))
    monkeypatch.chdir(tmp_path)
    run_cells(_cells(2), workers=2, cache=False)
    assert not (tmp_path / "never").exists()
    assert not (tmp_path / ".repro-cache").exists()


def test_nocache_cells_are_executed_every_time(cache):
    cells = [{"kind": "_selftest", "i": i, "_nocache": True} for i in range(3)]
    first = run_cells(cells, cache=cache)
    second = run_cells(cells, cache=cache)
    assert first.executed == second.executed == 3
    assert second.cached == 0
    assert cache.stores == 0
