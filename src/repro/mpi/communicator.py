"""Communicators: the user-facing MPI API.

All blocking calls are generators used with ``yield from`` inside a
simulated rank::

    def main(comm):
        req = yield from comm.isend(data, dest=1, tag=5)
        other, status = yield from comm.recv(source=1, tag=5)
        yield from comm.wait(req)

Buffers are NumPy arrays or bytes-like objects; ``count``/``datatype``
are inferred for basic types.  ``recv(buf=None)`` is a convenience that
allocates from the envelope (returns ``bytes``) — handy, though stricter
than MPI proper.

Communicator creation (``dup``/``split``) is collective and allocates
context ids deterministically: every member derives the same allocation
key from (parent context, per-parent creation counter), and a barrier
preserves the synchronizing semantics.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.errors import NetworkError
from repro.mpi import coll as _coll
from repro.mpi.constants import (
    ANY_SOURCE,
    ANY_TAG,
    ERRORS_ARE_FATAL,
    ERRORS_RETURN,
    MODE_BUFFERED,
    MODE_READY,
    MODE_STANDARD,
    MODE_SYNCHRONOUS,
    PROC_NULL,
    SUCCESS,
    TAG_UB,
)
from repro.mpi.datatypes import Datatype, infer_datatype
from repro.mpi.exceptions import (
    CommError,
    CommRevoked,
    CommunicatorError,
    MPIError,
    RankFailed,
    errcode_of,
)
from repro.mpi.group import Group
from repro.mpi.persistent import PersistentRequest
from repro.mpi.request import Request
from repro.mpi.status import Status

__all__ = ["Communicator"]

#: every communicator's ``_acked`` until its rank acknowledges a failure
_NONE_ACKED: frozenset = frozenset()


def _byte_type():
    from repro.mpi.datatypes import BYTE

    return BYTE


class Communicator:
    """An MPI communicator bound to one rank's endpoint."""

    def __init__(self, world, group: Group, context_id: int, endpoint):
        self.world = world
        self.group = group
        self.context_id = context_id
        self.endpoint = endpoint
        self.rank = group.rank_of(endpoint.world_rank)
        if self.rank < 0:
            raise CommunicatorError(
                f"world rank {endpoint.world_rank} is not a member of {group}"
            )
        self.size = group.size
        self._creation_counter = 0
        #: per-communicator collective sequence number — every collective
        #: call draws one, giving each invocation its own internal tag
        #: generation so back-to-back collectives can never cross-match
        #: (see coll.ops._coll_tag).  All members of a communicator
        #: execute the same collectives in the same order, so the
        #: per-rank counters stay in lock-step without any traffic.
        self._coll_seq = 0
        #: ERRORS_ARE_FATAL (default) or ERRORS_RETURN
        self.errhandler = ERRORS_ARE_FATAL
        #: failures this rank has acknowledged (world ranks; ULFM)
        self._acked = _NONE_ACKED
        #: internal: recovery collectives (agree/shrink) bypass the
        #: revoked-communicator check on their own traffic
        self._ft_bypass = False

    # -------------------------------------------------------- error handling
    def set_errhandler(self, handler: str) -> None:
        """MPI_Errhandler_set: ERRORS_ARE_FATAL (default) or ERRORS_RETURN.

        With ``ERRORS_ARE_FATAL``, a device/transport failure raises
        :class:`CommError` (rank/peer/tag context, original error
        chained) out of the MPI call.  With ``ERRORS_RETURN``, blocking
        sends return an error code instead of ``SUCCESS`` and receives
        return ``(None, status)`` with ``status.error`` set, letting the
        rank continue.  MPI semantic errors (truncation, invalid rank)
        raise regardless — this handler governs *device* failures only.
        """
        if handler not in (ERRORS_ARE_FATAL, ERRORS_RETURN):
            raise MPIError(
                f"unknown error handler {handler!r}; use ERRORS_ARE_FATAL or ERRORS_RETURN"
            )
        self.errhandler = handler

    def get_errhandler(self) -> str:
        """MPI_Errhandler_get."""
        return self.errhandler

    def _device_error(self, exc: BaseException, peer=None, tag=None) -> int:
        """Apply this communicator's error handler to a device failure.

        ERRORS_ARE_FATAL: raise a context-carrying :class:`CommError`.
        ERRORS_RETURN: return the numeric error code.
        """
        if self.errhandler == ERRORS_RETURN:
            return errcode_of(exc)
        if isinstance(exc, CommError):
            # already a context-carrying MPI error (RankFailed /
            # CommRevoked from the FT layer): preserve its type
            if exc.rank is None:
                exc.rank = self.rank
            raise exc
        ft = getattr(self.world, "ft", None)
        if ft is not None and peer is not None and 0 <= peer < self.size:
            dead = self.group.world_rank(peer)
            if dead in ft.failed or ft.is_crashing(dead):
                # a transport error on a connection to a crashed host is
                # a process failure, not a network failure
                raise RankFailed(
                    f"rank {self.rank}: peer process failed "
                    f"(peer={peer}, tag={tag}): {exc}",
                    rank=self.rank, peer=peer, tag=tag, failed=(dead,),
                ) from exc
        raise CommError(
            f"rank {self.rank}: device failure in operation "
            f"(peer={peer}, tag={tag}): {exc}",
            rank=self.rank,
            peer=peer,
            tag=tag,
            errcode=errcode_of(exc),
        ) from exc

    # ------------------------------------------------------------- plumbing
    def world_rank(self, rank: int) -> int:
        """World rank of a communicator rank."""
        return self.group.world_rank(rank)

    def wtime(self) -> float:
        """Wall-clock time (simulated microseconds)."""
        return self.endpoint.wtime()

    def _check_rank(self, rank: int, what: str) -> None:
        if not (0 <= rank < self.size):
            raise CommunicatorError(f"{what} {rank} out of range [0, {self.size})")

    def _check_send_tag(self, tag: int) -> None:
        # Tags above TAG_UB are the library's internal collective tags;
        # they are reserved but legal at this layer.
        if tag < 0:
            raise MPIError(f"send tag {tag} outside [0, {TAG_UB}]")

    @staticmethod
    def _resolve(buf, count: Optional[int], datatype: Optional[Datatype]):
        if datatype is None:
            if buf is None:
                raise MPIError("datatype required when no buffer is given")
            datatype = infer_datatype(buf)
        if count is None:
            if buf is None:
                raise MPIError("count required when no buffer is given")
            if isinstance(buf, np.ndarray):
                if datatype.extent_elems == 0:
                    raise MPIError("cannot infer count for zero-extent datatype")
                count = buf.size // max(1, datatype.extent_elems)
                if datatype.basic is datatype:
                    count = buf.size
            else:
                count = len(buf) // max(1, datatype.extent)
        return count, datatype

    def _traced(self, name: str, gen, peer=None, tag=None):
        """Run *gen*, bracketing it with ``mpi``-layer
        ``call.enter``/``call.exit`` events when tracing is on.  The
        events carry the caller's *world* rank, like every other layer's,
        so a rank's calls on any communicator nest on one track.

        Not a generator itself: with tracing off it returns *gen*
        untouched, so ``yield from self._traced(...)`` delegates straight
        to the implementation generator with no wrapper frame on the
        critical path.  The exit event fires even when the call raises,
        so Chrome-trace B/E pairs stay balanced across device failures.
        """
        obs = self.endpoint.sim.obs
        if obs is None:
            return gen
        return self._traced_gen(name, gen, peer, tag, obs)

    def _traced_gen(self, name, gen, peer, tag, obs):
        endpoint = self.endpoint
        sim = endpoint.sim
        rank = endpoint.world_rank
        detail = {"call": name}
        if peer is not None:
            detail["peer"] = peer
        if tag is not None:
            detail["tag"] = tag
        obs.emit(sim.now, "mpi", "call.enter", rank=rank, detail=detail)
        try:
            result = yield from gen
        finally:
            obs.emit(sim.now, "mpi", "call.exit", rank=rank, detail=detail)
        return result

    # ------------------------------------------------------ point to point
    def isend(
        self,
        buf,
        dest: int,
        tag: int = 0,
        count: Optional[int] = None,
        datatype: Optional[Datatype] = None,
        mode: str = MODE_STANDARD,
    ):
        """Generator -> Request: nonblocking send (MPI_Isend family)."""
        return (
            yield from self._traced(
                "isend",
                self._isend_impl(buf, dest, tag, count, datatype, mode),
                peer=dest,
                tag=tag,
            )
        )

    def _isend_impl(self, buf, dest, tag, count, datatype, mode):
        self._check_send_tag(tag)
        if dest == PROC_NULL:
            if datatype is None:
                datatype = infer_datatype(buf) if buf is not None else _byte_type()
            req = Request("send", self, buf, 0, datatype, dest, tag)
            req._complete(Status(source=PROC_NULL, tag=tag, count_bytes=0))
            return req
        self._check_rank(dest, "destination")
        self._ft_check_send(dest, tag)
        count, datatype = self._resolve(buf, count, datatype)
        req = Request("send", self, buf, count, datatype, dest, tag, mode)
        if mode == MODE_BUFFERED:
            yield from self.endpoint.start_bsend(req)
        else:
            yield from self.endpoint.start_send(req)
        self.endpoint.ft_check_new(req)
        return req

    def irecv(
        self,
        source: int = ANY_SOURCE,
        tag: int = ANY_TAG,
        buf=None,
        count: Optional[int] = None,
        datatype: Optional[Datatype] = None,
    ):
        """Generator -> Request: nonblocking receive (MPI_Irecv)."""
        return (
            yield from self._traced(
                "irecv",
                self._irecv_impl(source, tag, buf, count, datatype),
                peer=source,
                tag=tag,
            )
        )

    def _irecv_impl(self, source, tag, buf, count, datatype):
        if source == PROC_NULL:
            if datatype is None:
                datatype = infer_datatype(buf) if buf is not None else _byte_type()
            req = Request("recv", self, buf, 0, datatype, source, tag)
            req._complete(Status(source=PROC_NULL, tag=ANY_TAG, count_bytes=0))
            return req
        if source != ANY_SOURCE:
            self._check_rank(source, "source")
        self._ft_check_recv(source, tag)
        if buf is not None:
            count, datatype = self._resolve(buf, count, datatype)
        else:
            from repro.mpi.datatypes import BYTE

            count, datatype = 0, BYTE
        req = Request("recv", self, buf, count, datatype, source, tag)
        yield from self.endpoint.start_recv(req)
        self.endpoint.ft_check_new(req)
        return req

    def _blocking_send(self, buf, dest, tag, count, datatype, mode):
        """Shared body of the blocking sends: SUCCESS or an error code.

        Calls the isend/wait *implementations* through :meth:`_traced`
        directly: traced runs still see the nested isend/wait call
        events, untraced runs skip the public-wrapper frames.
        """
        try:
            req = yield from self._traced(
                "isend", self._isend_impl(buf, dest, tag, count, datatype, mode),
                peer=dest, tag=tag)
        except (NetworkError, CommError) as exc:
            return self._device_error(exc, peer=dest, tag=tag)
        status = yield from self._traced("wait", self._wait_impl(req))
        return SUCCESS if status is None else status.error

    def send(self, buf, dest, tag: int = 0, count=None, datatype=None):
        """Generator -> int: blocking standard-mode send (MPI_Send).

        Returns SUCCESS; under ERRORS_RETURN a device failure returns an
        error code instead of raising.
        """
        return (yield from self._traced(
            "send",
            self._blocking_send(buf, dest, tag, count, datatype, MODE_STANDARD),
            peer=dest, tag=tag))

    def bsend(self, buf, dest, tag: int = 0, count=None, datatype=None):
        """Generator -> int: blocking buffered-mode send (MPI_Bsend)."""
        return (yield from self._traced(
            "bsend",
            self._blocking_send(buf, dest, tag, count, datatype, MODE_BUFFERED),
            peer=dest, tag=tag))

    def ssend(self, buf, dest, tag: int = 0, count=None, datatype=None):
        """Generator -> int: blocking synchronous-mode send (MPI_Ssend)."""
        return (yield from self._traced(
            "ssend",
            self._blocking_send(buf, dest, tag, count, datatype, MODE_SYNCHRONOUS),
            peer=dest, tag=tag))

    def rsend(self, buf, dest, tag: int = 0, count=None, datatype=None):
        """Generator -> int: blocking ready-mode send (MPI_Rsend)."""
        return (yield from self._traced(
            "rsend",
            self._blocking_send(buf, dest, tag, count, datatype, MODE_READY),
            peer=dest, tag=tag))

    def issend(self, buf, dest, tag: int = 0, count=None, datatype=None):
        """Generator -> Request: nonblocking synchronous send (MPI_Issend)."""
        return (yield from self.isend(buf, dest, tag, count, datatype, MODE_SYNCHRONOUS))

    def ibsend(self, buf, dest, tag: int = 0, count=None, datatype=None):
        """Generator -> Request: nonblocking buffered send (MPI_Ibsend)."""
        return (yield from self.isend(buf, dest, tag, count, datatype, MODE_BUFFERED))

    def irsend(self, buf, dest, tag: int = 0, count=None, datatype=None):
        """Generator -> Request: nonblocking ready send (MPI_Irsend)."""
        return (yield from self.isend(buf, dest, tag, count, datatype, MODE_READY))

    def recv(
        self,
        source: int = ANY_SOURCE,
        tag: int = ANY_TAG,
        buf=None,
        count: Optional[int] = None,
        datatype: Optional[Datatype] = None,
    ):
        """Generator -> (data, Status): blocking receive (MPI_Recv).

        With a buffer: fills it and returns ``(buf, status)``.  Without:
        returns the received payload as ``bytes``.  Under ERRORS_RETURN
        a device failure returns ``(None, status)`` with ``status.error``
        set instead of raising.
        """
        return (
            yield from self._traced(
                "recv",
                self._recv_impl(source, tag, buf, count, datatype),
                peer=source,
                tag=tag,
            )
        )

    def _recv_impl(self, source, tag, buf, count, datatype):
        try:
            req = yield from self._traced(
                "irecv", self._irecv_impl(source, tag, buf, count, datatype),
                peer=source, tag=tag)
        except (NetworkError, CommError) as exc:
            code = self._device_error(exc, peer=source, tag=tag)
            status = Status(source=source, tag=tag)
            status.error = code
            return None, status
        status = yield from self._traced("wait", self._wait_impl(req))
        if status is not None and status.error != SUCCESS:
            return None, status
        return (req.data if buf is None else buf), status

    def sendrecv(
        self,
        sendbuf,
        dest: int,
        recvbuf=None,
        source: int = ANY_SOURCE,
        sendtag: int = 0,
        recvtag: int = ANY_TAG,
        count=None,
        datatype=None,
    ):
        """Generator -> (data, Status): MPI_Sendrecv (deadlock-free)."""
        return (
            yield from self._traced(
                "sendrecv",
                self._sendrecv_impl(
                    sendbuf, dest, recvbuf, source, sendtag, recvtag, count, datatype
                ),
                peer=dest,
                tag=sendtag,
            )
        )

    def _sendrecv_impl(
        self, sendbuf, dest, recvbuf, source, sendtag, recvtag, count, datatype
    ):
        rreq = yield from self._traced(
            "irecv", self._irecv_impl(source, recvtag, recvbuf, None, None),
            peer=source, tag=recvtag)
        sreq = yield from self._traced(
            "isend", self._isend_impl(sendbuf, dest, sendtag, count, datatype, MODE_STANDARD),
            peer=dest, tag=sendtag)
        yield from self._traced("waitall", self._waitall_impl([sreq, rreq]))
        return (rreq.data if recvbuf is None else recvbuf), rreq.status

    def sendrecv_replace(
        self,
        buf,
        dest: int,
        source: int = ANY_SOURCE,
        sendtag: int = 0,
        recvtag: int = ANY_TAG,
    ):
        """Generator -> Status: MPI_Sendrecv_replace — the received
        message overwrites the send buffer."""
        count, datatype = self._resolve(buf, None, None)
        # stage the outgoing data so the receive can land in *buf*
        staged = datatype.pack(buf, count)
        rreq = yield from self.irecv(source, recvtag, buf, count, datatype)
        sreq = yield from self.isend(staged, dest, sendtag)
        yield from self.waitall([sreq, rreq])
        return rreq.status

    # ---------------------------------------------------------- completion
    @staticmethod
    def _inner(request):
        """Unwrap a persistent request to its in-flight inner Request.

        An inactive persistent handle yields a fresh completed Request
        (MPI: waiting on an inactive handle returns immediately with an
        empty status).
        """
        if isinstance(request, PersistentRequest):
            if request.inner is None:
                dummy = Request("send", None, None, 0, None, PROC_NULL, 0)
                dummy._complete(Status())
                return dummy
            return request.inner
        return request

    @staticmethod
    def _settle(request) -> None:
        """Post-completion bookkeeping: persistent handles go inactive."""
        if isinstance(request, PersistentRequest):
            request._reset()

    def _failed_status(self, inner, exc) -> Status:
        """Status for a device-failed request (ERRORS_RETURN); raises
        CommError instead under ERRORS_ARE_FATAL."""
        code = self._device_error(exc, peer=inner.peer, tag=inner.tag)
        status = Status(source=inner.peer, tag=inner.tag)
        status.error = code
        return status

    def wait(self, request):
        """Generator -> Status: block until *request* completes (MPI_Wait).

        A device failure raises :class:`CommError` under
        ERRORS_ARE_FATAL; under ERRORS_RETURN the wait completes with a
        Status whose ``error`` field holds the code.  MPI semantic
        errors (truncation etc.) raise regardless of the handler.
        """
        return (yield from self._traced("wait", self._wait_impl(request)))

    def _wait_impl(self, request):
        inner = self._inner(request)
        try:
            yield from self.endpoint.wait([inner], mode="all")
            inner.raise_if_failed()
        except (NetworkError, CommError) as exc:
            status = self._failed_status(inner, exc)
            self._settle(request)
            return status
        status = inner.status
        self._settle(request)
        return status

    def test(self, request):
        """Generator -> (bool, Optional[Status]): MPI_Test."""
        inner = self._inner(request)
        done = yield from self.endpoint.test(inner)
        if not done:
            return False, None
        status = inner.status
        self._settle(request)
        return True, status

    def waitall(self, requests: Sequence):
        """Generator -> [Status]: MPI_Waitall.

        On device failure under ERRORS_RETURN, each failed (or
        consequently incomplete) request's Status carries the error
        code; the others report their normal completion.
        """
        return (yield from self._traced("waitall", self._waitall_impl(requests)))

    def _waitall_impl(self, requests: Sequence):
        inners = [self._inner(r) for r in requests]
        try:
            yield from self.endpoint.wait(inners, mode="all")
            for r in inners:
                r.raise_if_failed()
        except (NetworkError, CommError) as exc:
            statuses = []
            for r in inners:
                if r.complete and r.error is None:
                    statuses.append(r.status)
                else:
                    err = (r.error
                           if isinstance(r.error, (NetworkError, CommError))
                           else exc)
                    statuses.append(self._failed_status(r, err))
            for r in requests:
                self._settle(r)
            return statuses
        statuses = [r.status for r in inners]
        for r in requests:
            self._settle(r)
        return statuses

    def waitany(self, requests: Sequence):
        """Generator -> (index, Status): MPI_Waitany."""
        return (yield from self._traced("waitany", self._waitany_impl(requests)))

    def _waitany_impl(self, requests: Sequence):
        requests = list(requests)
        if not requests:
            raise MPIError("waitany of no requests")
        inners = [self._inner(r) for r in requests]
        while True:
            for i, r in enumerate(inners):
                if r.complete:
                    r.raise_if_failed()
                    status = r.status
                    self._settle(requests[i])
                    return i, status
            yield from self.endpoint.wait(inners, mode="any")

    def waitsome(self, requests: Sequence):
        """Generator -> (indices, statuses): MPI_Waitsome — at least one
        completion, returning every request done at that moment."""
        return (yield from self._traced("waitsome", self._waitsome_impl(requests)))

    def _waitsome_impl(self, requests: Sequence):
        requests = list(requests)
        if not requests:
            raise MPIError("waitsome of no requests")
        inners = [self._inner(r) for r in requests]
        while not any(r.complete for r in inners):
            yield from self.endpoint.wait(inners, mode="any")
        indices, statuses = [], []
        for i, r in enumerate(inners):
            if r.complete:
                r.raise_if_failed()
                indices.append(i)
                statuses.append(r.status)
                self._settle(requests[i])
        return indices, statuses

    def testall(self, requests: Sequence):
        """Generator -> (bool, Optional[[Status]]): MPI_Testall."""
        inners = [self._inner(r) for r in requests]
        all_done = True
        for r in inners:
            done = yield from self.endpoint.test(r)
            all_done = all_done and done
        if not all_done:
            return False, None
        for r in inners:
            r.raise_if_failed()
        statuses = [r.status for r in inners]
        for r in requests:
            self._settle(r)
        return True, statuses

    def testany(self, requests: Sequence):
        """Generator -> (bool, index, Optional[Status]): MPI_Testany."""
        requests = list(requests)
        inners = [self._inner(r) for r in requests]
        for i, r in enumerate(inners):
            done = yield from self.endpoint.test(r)
            if done:
                r.raise_if_failed()
                status = r.status
                self._settle(requests[i])
                return True, i, status
        return False, None, None

    def cancel(self, request: Request):
        """Generator -> bool: MPI_Cancel for a not-yet-matched receive.

        Returns True if the receive was withdrawn (its status reports
        ``cancelled``); False if it had already matched.  Cancelling
        sends is not supported (like most real MPIs of the era).
        """
        inner = self._inner(request)
        if inner.kind != "recv":
            raise MPIError("cancelling send requests is not supported")
        if inner.complete:
            return False
        ok = yield from self.endpoint.cancel_recv(inner)
        return ok

    # ---------------------------------------------------- persistent requests
    def send_init(self, buf, dest, tag: int = 0, count=None, datatype=None,
                  mode: str = MODE_STANDARD) -> PersistentRequest:
        """MPI_Send_init: a startable persistent send template."""
        self._check_send_tag(tag)
        if dest != PROC_NULL:
            self._check_rank(dest, "destination")
        count, datatype = self._resolve(buf, count, datatype)
        return PersistentRequest(self, "send", buf, count, datatype, dest, tag, mode)

    def ssend_init(self, buf, dest, tag: int = 0, count=None, datatype=None):
        """MPI_Ssend_init."""
        return self.send_init(buf, dest, tag, count, datatype, MODE_SYNCHRONOUS)

    def bsend_init(self, buf, dest, tag: int = 0, count=None, datatype=None):
        """MPI_Bsend_init."""
        return self.send_init(buf, dest, tag, count, datatype, MODE_BUFFERED)

    def rsend_init(self, buf, dest, tag: int = 0, count=None, datatype=None):
        """MPI_Rsend_init."""
        return self.send_init(buf, dest, tag, count, datatype, MODE_READY)

    def recv_init(self, buf, source: int = ANY_SOURCE, tag: int = ANY_TAG,
                  count=None, datatype=None) -> PersistentRequest:
        """MPI_Recv_init: a startable persistent receive template."""
        if source != ANY_SOURCE and source != PROC_NULL:
            self._check_rank(source, "source")
        count, datatype = self._resolve(buf, count, datatype)
        return PersistentRequest(self, "recv", buf, count, datatype, source, tag)

    def start(self, request: PersistentRequest):
        """Generator: MPI_Start."""
        yield from request.start()
        return request

    def startall(self, requests: Sequence[PersistentRequest]):
        """Generator: MPI_Startall."""
        for r in requests:
            yield from r.start()
        return list(requests)

    # --------------------------------------------------------------- probe
    def probe(self, source: int = ANY_SOURCE, tag: int = ANY_TAG):
        """Generator -> Status: blocking MPI_Probe."""
        if source != ANY_SOURCE and source != PROC_NULL:
            self._check_rank(source, "source")
        return (
            yield from self._traced(
                "probe", self.endpoint.probe(source, tag, self), peer=source, tag=tag
            )
        )

    def iprobe(self, source: int = ANY_SOURCE, tag: int = ANY_TAG):
        """Generator -> (bool, Optional[Status]): MPI_Iprobe."""
        if source != ANY_SOURCE and source != PROC_NULL:
            self._check_rank(source, "source")
        status = yield from self.endpoint.iprobe(source, tag, self)
        return (status is not None), status

    # ----------------------------------------------------------- buffering
    def buffer_attach(self, nbytes: int) -> None:
        """MPI_Buffer_attach (per process, like MPI)."""
        self.endpoint.attach_buffer(nbytes)

    def buffer_detach(self) -> int:
        """MPI_Buffer_detach."""
        return self.endpoint.detach_buffer()

    # ---------------------------------------------------------- collectives
    def _coll_fatal(self, gen):
        """Run a collective body with device failures *raised*.

        Collectives return data, not codes — there is no channel for
        ERRORS_RETURN's error-code contract, and a collective built on
        blocking point-to-point calls that silently return codes would
        half-complete and hand back garbage (or deadlock the peers still
        inside it).  So device failures inside a collective always
        surface as :class:`CommError` / :class:`RankFailed` /
        :class:`CommRevoked`, whatever the installed handler; the
        handler is restored for the point-to-point calls that follow.

        Not a generator itself: on the common path (handler already
        fatal, no FT state, no tracing) the handler swap and the FT
        entry check are both no-ops, so the body generator is returned
        bare — no wrapper frame.  Any other configuration takes the
        original wrapper, which defers the FT entry check to first
        resume (traced failures must fire inside the call bracket).
        """
        if (
            self.errhandler == ERRORS_ARE_FATAL
            and self._ft() is None
            and self.endpoint.sim.obs is None
        ):
            return gen
        return self._coll_fatal_gen(gen)

    def _coll_fatal_gen(self, gen):
        self._ft_check_collective()
        prev = self.errhandler
        self.errhandler = ERRORS_ARE_FATAL
        try:
            result = yield from gen
        finally:
            self.errhandler = prev
        return result

    def _ft_check_collective(self) -> None:
        """Fail fast before entering a collective that cannot complete.

        ULFM semantics: a collective over a communicator with a known
        failed member raises :class:`RankFailed` at every participant
        (the caller shrinks and retries on the survivor communicator).
        Checking at entry keeps the failure deterministic — no rank
        starts a tree exchange its peers will never finish.
        """
        ft = self._ft()
        if ft is None:
            return
        dead = sorted(wr for wr in ft.failed if self.group.contains(wr))
        if dead:
            raise RankFailed(
                f"rank {self.rank}: collective on communicator with failed "
                f"process(es) (world ranks {dead})",
                rank=self.rank, failed=tuple(dead),
            )

    def bcast(self, buf, root: int = 0, count=None, datatype=None, style=None):
        """Generator -> buf: broadcast from *root* (MPI_Bcast).

        Uses the CS/2 hardware broadcast on the low-latency device; a
        binomial tree on MPICH; sequential point-to-point sends on the
        cluster devices (matching the paper's implementations).  Pass
        ``style`` ("hardware", "binomial", "linear") to override the
        device default — all ranks must pass the same value.
        """
        self._check_rank(root, "root")
        count, datatype = self._resolve(buf, count, datatype)
        return self._traced(
            "bcast",
            self._coll_fatal(_coll.bcast(self, buf, root, count, datatype, style=style)),
            peer=root,
        )

    def barrier(self, style=None):
        """Generator: MPI_Barrier ("dissemination" default; "tree" for
        wide communicators per the tuning table)."""
        yield from self._traced("barrier", self._coll_fatal(_coll.barrier(self, style=style)))

    def reduce(self, sendbuf, root: int = 0, op=None, style=None):
        """Generator -> result at root (None elsewhere): MPI_Reduce."""
        self._check_rank(root, "root")
        return (
            yield from self._traced(
                "reduce",
                self._coll_fatal(_coll.reduce(self, sendbuf, root, op or _coll.SUM, style=style)),
                peer=root,
            )
        )

    def allreduce(self, sendbuf, op=None, style=None):
        """Generator -> result everywhere: MPI_Allreduce
        ("reduce_bcast", "ring", or "recursive_doubling")."""
        return (
            yield from self._traced(
                "allreduce",
                self._coll_fatal(_coll.allreduce(self, sendbuf, op or _coll.SUM, style=style)),
            )
        )

    def gather(self, sendbuf, root: int = 0, style=None):
        """Generator -> list of per-rank buffers at root: MPI_Gather."""
        self._check_rank(root, "root")
        return (yield from self._coll_fatal(_coll.gather(self, sendbuf, root, style=style)))

    def scatter(self, chunks, root: int = 0, style=None):
        """Generator -> this rank's chunk: MPI_Scatter."""
        self._check_rank(root, "root")
        return (yield from self._coll_fatal(_coll.scatter(self, chunks, root, style=style)))

    def scan(self, sendbuf, op=None):
        """Generator -> inclusive prefix reduction at this rank: MPI_Scan."""
        return (yield from self._coll_fatal(_coll.scan(self, sendbuf, op or _coll.SUM)))

    def exscan(self, sendbuf, op=None):
        """Generator -> exclusive prefix reduction (None at rank 0): MPI_Exscan."""
        return (yield from self._coll_fatal(_coll.exscan(self, sendbuf, op or _coll.SUM)))

    def reduce_scatter(self, sendbuf, op=None):
        """Generator -> this rank's block of the reduction: MPI_Reduce_scatter_block."""
        return (yield from self._coll_fatal(_coll.reduce_scatter(self, sendbuf, op or _coll.SUM)))

    def allgather(self, sendbuf, style=None):
        """Generator -> list of per-rank buffers: MPI_Allgather
        ("ring" default, "gather_bcast" for wide communicators)."""
        return (yield from self._coll_fatal(_coll.allgather(self, sendbuf, style=style)))

    def alltoall(self, chunks):
        """Generator -> list of received chunks: MPI_Alltoall."""
        return (yield from self._coll_fatal(_coll.alltoall(self, chunks)))

    # ------------------------------------------------- communicator algebra
    def dup(self):
        """Generator -> Communicator: MPI_Comm_dup (collective)."""
        self._creation_counter += 1
        ctx = self.world.allocate_context((self.context_id, self._creation_counter, "dup"))
        yield from self.barrier()
        new = Communicator(self.world, self.group, ctx, self.endpoint)
        new.errhandler = self.errhandler
        return new

    def split(self, color: Optional[int], key: int = 0):
        """Generator -> Optional[Communicator]: MPI_Comm_split (collective).

        ``color=None`` plays MPI_UNDEFINED: the caller gets no new
        communicator.
        """
        self._creation_counter += 1
        counter = self._creation_counter
        pairs = yield from self._coll_fatal(_coll.allgather_obj(self, (color, key)))
        if color is None:
            return None
        members = [
            (k, r) for r, (c, k) in enumerate(pairs) if c == color
        ]
        members.sort()
        ranks = [r for _k, r in members]
        group = Group([self.group.world_rank(r) for r in ranks])
        ctx = self.world.allocate_context((self.context_id, counter, "split", color))
        new = Communicator(self.world, group, ctx, self.endpoint)
        new.errhandler = self.errhandler
        return new

    # ------------------------------------------------- fault tolerance (ULFM)
    def _ft(self):
        return getattr(self.world, "ft", None)

    def _ft_require(self):
        ft = self._ft()
        if ft is None:
            raise MPIError(
                "fault tolerance is not enabled; construct World(..., ft=True)"
            )
        return ft

    def _ft_check_send(self, dest: int, tag: int) -> None:
        """Raise before posting a send the FT layer already knows is doomed."""
        ft = self._ft()
        if ft is None:
            return
        if not self._ft_bypass and ft.is_revoked(self.context_id):
            raise CommRevoked(
                f"rank {self.rank}: communicator revoked (send dest={dest}, tag={tag})",
                rank=self.rank, peer=dest, tag=tag,
            )
        dead = self.group.world_rank(dest)
        if dead in ft.failed:
            raise RankFailed(
                f"rank {self.rank}: send to failed process "
                f"(dest={dest}, world rank {dead}, tag={tag})",
                rank=self.rank, peer=dest, tag=tag, failed=(dead,),
            )

    def _ft_check_recv(self, source: int, tag: int) -> None:
        """Raise before posting a receive the FT layer already knows is doomed.

        ULFM: a named receive from a failed process raises; a wildcard
        receive raises while this rank has *unacknowledged* failures in
        the communicator (after :meth:`failure_ack`, wildcard receives
        are allowed again and simply never match the dead senders).
        """
        ft = self._ft()
        if ft is None:
            return
        if not self._ft_bypass and ft.is_revoked(self.context_id):
            raise CommRevoked(
                f"rank {self.rank}: communicator revoked "
                f"(recv source={source}, tag={tag})",
                rank=self.rank, peer=source, tag=tag,
            )
        if source == ANY_SOURCE:
            unacked = sorted(
                wr for wr in ft.failed
                if self.group.contains(wr) and wr not in self._acked
            )
            if unacked:
                raise RankFailed(
                    f"rank {self.rank}: wildcard receive with unacknowledged "
                    f"process failures (world ranks {unacked}); call "
                    f"failure_ack() to continue",
                    rank=self.rank, peer=source, tag=tag, failed=unacked,
                )
            return
        dead = self.group.world_rank(source)
        if dead in ft.failed:
            raise RankFailed(
                f"rank {self.rank}: receive from failed process "
                f"(source={source}, world rank {dead}, tag={tag})",
                rank=self.rank, peer=source, tag=tag, failed=(dead,),
            )

    def failure_ack(self) -> None:
        """MPIX_Comm_failure_ack: acknowledge all locally-known failures.

        After acknowledgement, wildcard receives are permitted again and
        :meth:`get_acked` reports the acknowledged group.
        """
        ft = self._ft_require()
        self._acked = frozenset(
            wr for wr in ft.failed if self.group.contains(wr)
        )

    def get_acked(self) -> Group:
        """MPIX_Comm_failure_get_acked: group of acknowledged failed ranks
        (ordered as in this communicator's group)."""
        self._ft_require()
        return Group([wr for wr in self.group.world_ranks if wr in self._acked])

    def revoke(self) -> None:
        """MPIX_Comm_revoke: poison this communicator everywhere.

        Local call (not collective).  Every pending and future operation
        on this communicator raises :class:`CommRevoked` at every member
        — except agreement traffic, which must survive revocation.
        """
        ft = self._ft_require()
        ft.revoke(self.context_id, by_rank=self.rank)

    def is_revoked(self) -> bool:
        """Has :meth:`revoke` been called on this communicator (by anyone)?"""
        ft = self._ft()
        return ft is not None and ft.is_revoked(self.context_id)

    def shrink(self):
        """Generator -> Communicator: MPIX_Comm_shrink.

        Collective over the *survivors*: builds a new, un-revoked
        communicator containing every member of this one that has not
        failed, preserving rank order.  Works on a revoked communicator.
        """
        return (yield from self._shrink_impl())

    def _shrink_impl(self):
        ft = self._ft_require()
        self.failure_ack()
        failed = tuple(sorted(
            wr for wr in self.group.world_ranks if wr in ft.failed
        ))
        survivors = [wr for wr in self.group.world_ranks if wr not in failed]
        group = Group(survivors)
        # Every survivor derives the same allocation key from the parent
        # context and the failed set — no counter, so ranks that observed
        # different numbers of earlier shrink attempts still converge.
        ctx = self.world.allocate_context((self.context_id, "shrink", failed))
        new = Communicator(self.world, group, ctx, self.endpoint)
        new.errhandler = self.errhandler
        ft._note("shrink")
        ft._emit("comm.shrink", rank=self.endpoint.world_rank, detail={
            "context": self.context_id,
            "new_context": ctx,
            "survivors": survivors,
            "failed": list(failed),
        })
        yield from new.barrier()
        return new

    def agree(self, flag: bool = True):
        """Generator -> bool: MPIX_Comm_agree (crash-tolerant agreement).

        Returns the logical AND of every live member's *flag*.  Works on
        a revoked communicator and completes despite process failures
        (the coordinator role falls through to the lowest live rank).
        """
        return (yield from self._agree_impl(bool(flag)))

    def _agree_impl(self, flag: bool):
        ft = self._ft_require()
        self.failure_ack()
        # One tag generation per *call* — retries after a coordinator
        # death reuse the same tag, so survivors' _coll_seq counters
        # stay in lock-step no matter how many retries each needed.
        tag = _coll._coll_tag(self, _coll.TAG_AGREE)
        self._ft_bypass = True
        try:
            while True:
                root = self._agree_root(ft)
                try:
                    if self.rank == root:
                        result = flag
                        peers = [r for r in range(self.size) if r != root]
                        for r in peers:
                            if self.group.world_rank(r) in ft.failed:
                                continue
                            try:
                                contrib, _st = yield from self._agree_recv(r, tag)
                                result = result and bool(contrib)
                            except RankFailed:
                                continue  # contributor died: excluded
                        for r in peers:
                            if self.group.world_rank(r) in ft.failed:
                                continue
                            try:
                                yield from self._agree_send(result, r, tag)
                            except RankFailed:
                                continue
                        decided = result
                    else:
                        yield from self._agree_send(flag, root, tag)
                        decided, _st = yield from self._agree_recv(root, tag)
                        decided = bool(decided)
                except RankFailed:
                    # the coordinator (or a peer mid-protocol) died;
                    # recompute the coordinator and retry on the same tag
                    self.failure_ack()
                    continue
                ft._note("agree")
                ft._emit("agree", rank=self.endpoint.world_rank, detail={
                    "context": self.context_id, "result": bool(decided),
                })
                return bool(decided)
        finally:
            self._ft_bypass = False

    def _agree_root(self, ft) -> int:
        for r in range(self.size):
            if self.group.world_rank(r) not in ft.failed:
                return r
        raise MPIError("agree: no live ranks remain in communicator")

    def _agree_send(self, value: bool, dest: int, tag: int):
        """Internal agree send: always raises on device failure
        (errhandler-independent), so the retry loop can catch it."""
        buf = np.array([1 if value else 0], dtype=np.int32)
        req = yield from self.isend(buf, dest, tag)
        yield from self.endpoint.wait([req], mode="all")
        req.raise_if_failed()

    def _agree_recv(self, source: int, tag: int):
        buf = np.zeros(1, dtype=np.int32)
        req = yield from self.irecv(source, tag, buf)
        yield from self.endpoint.wait([req], mode="all")
        req.raise_if_failed()
        return int(buf[0]), req.status

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Communicator ctx={self.context_id} rank={self.rank}/{self.size}>"
