"""Content-addressed on-disk result cache for experiment cells.

Every independent simulation cell (a fuzz seed, a figure sweep point, a
chaos scenario, a conformance platform/device run) is deterministic: its
result is a pure function of (the code in ``src/repro``, the cell spec).
The cache exploits that by addressing results with

    sha256(code digest of src/repro  +  cell kind  +  canonical cell JSON)

so a re-run after *any* source change misses everything (the digest
covers every ``.py`` file under the package), while a re-run of an
unchanged tree skips unchanged cells entirely.

Layout (default root ``.repro-cache/``, override with the
``REPRO_CACHE_DIR`` environment variable)::

    .repro-cache/objects/<key[:2]>/<key>.json

Each object file records the key's ingredients next to the value, so a
cache entry is self-describing and auditable.  Values must be
JSON-serializable; cells that produce richer results (e.g. live event
streams for trace export) are marked uncacheable by the engine.
"""

from __future__ import annotations

import json
import os
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Optional, Tuple

__all__ = ["code_digest", "cell_key", "ResultCache", "default_cache_root"]

_MISS = object()

#: memoized (per-process) digest of the src/repro tree
_code_digest_cache: Optional[str] = None


def code_digest() -> str:
    """sha256 over every ``.py`` file of the installed ``repro`` package.

    Sorted relative paths and file bytes both enter the hash, so moving,
    renaming, adding, or editing any module changes the digest — which
    invalidates every cached cell.  Memoized per process.
    """
    global _code_digest_cache
    if _code_digest_cache is not None:
        return _code_digest_cache
    import hashlib  # here: a cache-free command never pays for OpenSSL

    import repro

    root = Path(repro.__file__).resolve().parent
    h = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        h.update(str(path.relative_to(root)).encode())
        h.update(b"\0")
        h.update(path.read_bytes())
        h.update(b"\0")
    _code_digest_cache = h.hexdigest()
    return _code_digest_cache


def cell_key(kind: str, cell: Any, code: Optional[str] = None) -> str:
    """Content address of one cell: code digest + kind + canonical spec."""
    import hashlib

    material = json.dumps(
        {"code": code if code is not None else code_digest(),
         "kind": kind, "cell": cell},
        sort_keys=True, separators=(",", ":"),
    )
    return hashlib.sha256(material.encode()).hexdigest()


def default_cache_root() -> str:
    return os.environ.get("REPRO_CACHE_DIR", ".repro-cache")


class ResultCache:
    """Content-addressed JSON store under *root* (see module docstring)."""

    def __init__(self, root: Optional[str] = None):
        self.root = Path(root if root is not None else default_cache_root())
        self._objects = os.path.join(self.root, "objects")
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.quarantined = 0

    def _path(self, key: str) -> str:
        # a plain string: three pathlib joins were a fifth of a warm get
        return f"{self._objects}/{key[:2]}/{key}.json"

    def get(self, key: str) -> Tuple[bool, Any]:
        """``(True, value)`` on a hit, ``(False, None)`` on a miss.

        A present-but-unusable entry — unparsable JSON, a ``key`` field
        that does not match the file name, or no ``value`` at all — is
        *quarantined*: renamed to ``<key>.json.corrupt`` so the bad bytes
        stay auditable without shadowing the slot on every future run.
        """
        path = self._path(key)
        try:
            with open(path) as fh:
                entry = json.load(fh)
        except OSError:
            self.misses += 1
            return False, None
        except ValueError:
            self._quarantine(path)
            self.misses += 1
            return False, None
        if (
            not isinstance(entry, dict)
            or entry.get("key") != key  # truncated or misfiled write
            or "value" not in entry
        ):
            self._quarantine(path)
            self.misses += 1
            return False, None
        self.hits += 1
        return True, entry["value"]

    def _quarantine(self, path: str) -> None:
        """Move a corrupt entry aside (or delete it if even that fails)."""
        try:
            os.replace(path, path + ".corrupt")
        except OSError:
            try:
                os.unlink(path)
            except OSError:  # pragma: no cover - raced by another process
                return
        self.quarantined += 1

    def put(self, key: str, kind: str, cell: Any, value: Any) -> bool:
        """Store *value*; returns False (and stores nothing) if the value
        is not JSON-serializable."""
        try:
            blob = json.dumps(
                {
                    "key": key,
                    "kind": kind,
                    "code": code_digest(),
                    "cell": cell,
                    "value": value,
                    "created": datetime.now(timezone.utc).isoformat(),
                },
                sort_keys=True,
            )
        except (TypeError, ValueError):
            return False
        path = self._path(key)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        tmp = f"{path[:-len('.json')]}.tmp.{os.getpid()}"
        with open(tmp, "w") as fh:
            fh.write(blob + "\n")
        os.replace(tmp, path)  # atomic: concurrent writers race benignly
        self.stores += 1
        return True
