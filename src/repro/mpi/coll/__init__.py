"""Collective operations — algorithm library and auto-selector.

The paper implements **broadcast** (hardware broadcast on the Meiko,
a succession of point-to-point messages on the cluster; the MPICH
baseline uses point-to-point on both).  This package grows that into a
proper collective layer: each collective has several registered
algorithms (:mod:`repro.mpi.coll.registry`), a per-platform tuning
table picks one by message size × communicator width
(``platforms.COLL_TUNING``), and every algorithm stays individually
reachable via ``style=`` arguments.  See ``docs/COLLECTIVES.md`` for the catalog and measured
crossovers.

Buffer-based: ``bcast``, ``reduce``, ``allreduce`` (NumPy arrays or
bytes).  Object-based (pickled, mpi4py-lowercase style): ``gather``,
``scatter``, ``allgather``, ``alltoall``.

All collective traffic uses tags at or above
:data:`~repro.mpi.constants.INTERNAL_TAG_BASE`, which user wildcard
receives never match.

Layout:

* ``ops`` — reduction operators, tag generations, object helpers;
* ``registry`` — algorithm registration + the pure auto-selector;
* ``bcast`` / ``reduce`` / ``barrier`` / ``objects`` — the algorithms.
"""

from repro.mpi.coll import ops  # noqa: F401  (import order matters)
from repro.mpi.coll import registry  # noqa: F401
from repro.mpi.coll.ops import (  # noqa: F401
    BAND, BOR, LAND, LOR, MAX, MIN, PROD, SUM, Op,
    TAG_AGREE, TAG_ALLGATHER, TAG_ALLTOALL, TAG_BARRIER, TAG_BCAST,
    TAG_GATHER, TAG_OBJ, TAG_REDUCE, TAG_RSCAT, TAG_SCAN, TAG_SCATTER,
    _coll_tag, is_agree_tag,
)
from repro.mpi.coll.registry import algorithms, resolve, select  # noqa: F401
from repro.mpi.coll.bcast import bcast  # noqa: F401
from repro.mpi.coll.reduce import (  # noqa: F401
    allreduce, exscan, reduce, reduce_scatter, scan,
)
from repro.mpi.coll.barrier import barrier  # noqa: F401
from repro.mpi.coll.objects import (  # noqa: F401
    allgather, allgather_obj, alltoall, gather, scatter,
)

__all__ = [
    "Op",
    "SUM",
    "PROD",
    "MAX",
    "MIN",
    "LAND",
    "LOR",
    "BAND",
    "BOR",
    "bcast",
    "barrier",
    "reduce",
    "allreduce",
    "gather",
    "scatter",
    "allgather",
    "allgather_obj",
    "alltoall",
    "scan",
    "exscan",
    "reduce_scatter",
    "algorithms",
    "select",
    "resolve",
]
