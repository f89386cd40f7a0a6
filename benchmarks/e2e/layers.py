"""Layers of the product, and cProfile self time bucketed into them.

A layer is one of the repo's packages.  Every source file under
``src/repro`` belongs to exactly one; ``other`` is what is left (the
standard library, numpy, and the benchmark's own frames).
"""

from pathlib import Path

LAYERS = (
    "sim", "hw", "net", "mpi.device", "mpi.matching", "mpi.coll",
    "mpi.communicator", "mpi.core", "conformance", "faults", "obs",
    "parallel", "bench", "apps", "platforms", "cli", "other",
)

#: first matching prefix of the path relative to ``src/repro`` wins, so
#: the specific ``mpi/...`` rules sit above the ``mpi/`` catch-all
_RULES = (
    ("sim/", "sim"),
    ("hw/", "hw"),
    ("net/", "net"),
    ("mpi/device/", "mpi.device"),
    ("mpi/matching.py", "mpi.matching"),
    ("mpi/coll/", "mpi.coll"),
    ("mpi/collectives.py", "mpi.coll"),
    ("mpi/communicator.py", "mpi.communicator"),
    ("mpi/", "mpi.core"),
    ("conformance/", "conformance"),
    ("faults.py", "faults"),
    ("obs/", "obs"),
    ("parallel/", "parallel"),
    ("bench/", "bench"),
    ("apps/", "apps"),
    ("platforms.py", "platforms"),
    ("cli.py", "cli"),
    ("__main__.py", "cli"),
    ("__init__.py", "cli"),
    ("errors.py", "mpi.core"),
)


def layer_of(filename: str, package_root: str) -> str:
    """The layer that owns *filename*; *package_root* is ``.../src/repro``."""
    try:
        rel = Path(filename).relative_to(package_root).as_posix()
    except ValueError:
        return "other"
    for prefix, layer in _RULES:
        if rel.startswith(prefix):
            return layer
    return "other"


def bucket_profile(stats, package_root: str):
    """``(self_s, calls)`` per layer from ``cProfile.Profile.getstats()``.

    A Python function's own time goes to the layer of its file.  A
    built-in (``heappush``, ``dict.get``, a numpy ufunc) has no file: its
    time and calls go to the layer of the function that called it, so a
    layer that leans on C code is not undercounted.
    """
    self_s = dict.fromkeys(LAYERS, 0.0)
    calls = dict.fromkeys(LAYERS, 0)
    for entry in stats:
        if isinstance(entry.code, str):
            layer = "other"  # a built-in that calls built-ins
        else:
            layer = layer_of(entry.code.co_filename, package_root)
            self_s[layer] += entry.inlinetime
            calls[layer] += entry.callcount
        for sub in entry.calls or ():
            if isinstance(sub.code, str):
                self_s[layer] += sub.inlinetime
                calls[layer] += sub.callcount
    return self_s, calls
