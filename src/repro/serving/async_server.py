"""The C10K front end: one event loop, tens of thousands of sockets.

:class:`AsyncRetrievalServer` serves the exact same wire contract as the
threaded :class:`~repro.serving.server.RetrievalServer` — the same
handshake function (:func:`~repro.serving.codec.answer_hello`), same ops,
same chunked streaming, byte-identical results — but holds its
connections on an :mod:`asyncio` event loop instead of one thread per
socket.  A thread costs ~8 MiB of stack and a scheduler slot;
an idle asyncio connection costs a heap object and an epoll registration,
which is the difference between "thousands" and "the ROADMAP's millions"
of mostly-idle users.

The split of labour per request:

- the **event loop** (one thread) does nothing but byte shuffling —
  reads one length-prefixed frame, later writes the ready response
  frames.  It never touches numpy, never blocks on the coalescers.
- the **dispatch executor** (a small
  :class:`~concurrent.futures.ThreadPoolExecutor`,
  ``ServerConfig.executor_threads`` workers) runs
  :meth:`~repro.serving.server.ServingCore.serve_frames` — decode,
  coalesced dispatch, encode — exactly the blocking span a threaded
  handler runs, bridged with :meth:`loop.run_in_executor`.

The executor threads are what the coalescers feed on: requests that
arrive together block together in the shared micro-batch window / frontier
and ride one engine call, precisely as threaded handler threads would.
``executor_threads`` therefore bounds *concurrent dispatches*, not
connections — 10,000 idle sockets need zero executor slots.

Everything behind the front end is the shared
:class:`~repro.serving.server.ServingCore` — same engine, same
coalescers, same session registry — so the byte-identity contract of
``tests/test_serving_equivalence.py`` holds over either front end.
"""

from __future__ import annotations

import asyncio
import functools
import socket
import threading
from concurrent.futures import ThreadPoolExecutor

from repro.serving.codec import MAX_HELLO_BYTES, answer_hello
from repro.serving.protocol import MAX_FRAME_BYTES, ProtocolError, _HEADER, frame
from repro.serving.server import ServerConfig, ServingCore
from repro.utils.validation import ValidationError

__all__ = ["AsyncRetrievalServer"]

#: Listen backlog.  The C10K shape connects in bursts of thousands; the
#: kernel queue must absorb a burst faster than accept() drains it.
_BACKLOG = 4096


class AsyncRetrievalServer:
    """Serve one shared engine to tens of thousands of connections.

    Drop-in for :class:`~repro.serving.server.RetrievalServer`: same
    constructor shape, same ``start`` / ``close`` / context-manager
    lifecycle, same :meth:`stats`, and the same
    :class:`~repro.serving.client.ServingClient` /
    :class:`~repro.serving.pool.PooledServingClient` on the other end.
    The event loop runs on a dedicated daemon thread, so the calling
    thread's world stays synchronous.
    """

    def __init__(self, engine, config: "ServerConfig | None" = None, *, own_engine: bool = False) -> None:
        self._core = ServingCore(engine, config)
        self._own_engine = bool(own_engine)
        self._executor = ThreadPoolExecutor(
            max_workers=self._core.config.executor_threads,
            thread_name_prefix="repro-serving-dispatch",
        )
        self._loop: "asyncio.AbstractEventLoop | None" = None
        self._thread: "threading.Thread | None" = None
        self._address: "tuple[str, int] | None" = None
        self._startup_error: "BaseException | None" = None
        self._shutdown_event: "asyncio.Event | None" = None
        self._writers: set = set()  # touched only on the loop thread
        self._closed = False

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    @property
    def engine(self):
        """The shared engine behind every connection."""
        return self._core.engine

    @property
    def config(self) -> ServerConfig:
        """The server configuration."""
        return self._core.config

    @property
    def feedback_engine(self):
        """The feedback engine loops and sessions run under."""
        return self._core.feedback

    @property
    def bypass_registry(self):
        """The shared served bypass (``None`` unless ``config.bypass``)."""
        return self._core.bypass

    @property
    def address(self) -> "tuple[str, int]":
        """The bound ``(host, port)`` — call :meth:`start` first."""
        if self._address is None:
            raise ValidationError("the server is not started")
        return self._address

    def start(self) -> "tuple[str, int]":
        """Bind the port and start the event loop (idempotent)."""
        if self._closed:
            raise ValidationError("the server is closed")
        if self._thread is None:
            started = threading.Event()
            self._thread = threading.Thread(
                target=self._run_loop,
                args=(started,),
                name="repro-serving-loop",
                daemon=True,
            )
            self._thread.start()
            started.wait()
            if self._startup_error is not None:
                error, self._startup_error = self._startup_error, None
                self._thread.join(timeout=1.0)
                self._thread = None
                raise error
        return self.address

    def close(self) -> None:
        """Drain and stop the server deterministically (idempotent).

        Same sequence as the threaded front end: stop accepting, let the
        frontier finish admitted loops, wait for in-flight responses to
        leave, then disconnect the remaining clients, drop their sessions
        and — with ``own_engine=True`` — close the engine.
        """
        if self._closed:
            return
        self._closed = True
        loop = self._loop
        if loop is not None and loop.is_running():
            # 1. Stop accepting (the asyncio server closes on the loop).
            asyncio.run_coroutine_threadsafe(self._stop_accepting(), loop).result(timeout=5.0)
        # 2. Drain: no new loops, finish in-flight requests, drop sessions.
        self._core.shutdown(own_engine=False)
        if loop is not None and loop.is_running() and self._shutdown_event is not None:
            # 3. Disconnect lingering clients and let the loop exit.
            loop.call_soon_threadsafe(self._shutdown_event.set)
        if self._thread is not None:
            self._thread.join(timeout=10.0)
        self._executor.shutdown(wait=True)
        if self._own_engine:
            close = getattr(self._core.engine, "close", None)
            if close is not None:
                close()

    def __enter__(self) -> "AsyncRetrievalServer":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def stats(self) -> dict:
        """One aggregated snapshot of every serving-layer counter."""
        return self._core.stats()

    # ------------------------------------------------------------------ #
    # Event loop plumbing
    # ------------------------------------------------------------------ #
    def _run_loop(self, started: threading.Event) -> None:
        try:
            asyncio.run(self._main(started))
        finally:
            started.set()  # unblock start() even on an early crash

    async def _main(self, started: threading.Event) -> None:
        self._loop = asyncio.get_running_loop()
        self._shutdown_event = asyncio.Event()
        config = self._core.config
        try:
            self._server = await asyncio.start_server(
                self._handle_connection, config.host, config.port, backlog=_BACKLOG
            )
        except OSError as error:
            self._startup_error = error
            return
        host, port = self._server.sockets[0].getsockname()[:2]
        self._address = (host, port)
        started.set()
        await self._shutdown_event.wait()
        for writer in list(self._writers):
            writer.close()

    async def _stop_accepting(self) -> None:
        self._server.close()
        await self._server.wait_closed()

    # ------------------------------------------------------------------ #
    # Per-connection protocol
    # ------------------------------------------------------------------ #
    @staticmethod
    async def _read_frame_now(reader: asyncio.StreamReader, max_bytes: int):
        """Read one frame's payload; ``None`` on clean EOF between frames."""
        try:
            header = await reader.readexactly(_HEADER.size)
        except asyncio.IncompleteReadError as error:
            if not error.partial:
                return None  # clean EOF at a frame boundary
            raise ProtocolError(
                f"connection closed mid-header ({len(error.partial)} of {_HEADER.size} bytes read)"
            ) from error
        (length,) = _HEADER.unpack(header)
        if length > max_bytes:
            raise ProtocolError(f"frame of {length} bytes exceeds the limit of {max_bytes}")
        try:
            return await reader.readexactly(length)
        except asyncio.IncompleteReadError as error:
            raise ProtocolError(
                f"connection closed mid-frame ({len(error.partial)} of {length} bytes read)"
            ) from error

    async def _read_frame(
        self,
        reader: asyncio.StreamReader,
        timeout: "float | None",
        max_bytes: int = MAX_FRAME_BYTES,
    ):
        """One frame under one idle-timeout guard (a single wrapper task).

        The timeout spans the whole frame — idle gap *and* payload — which
        is the threaded front end's ``settimeout`` semantics, and wrapping
        once per frame instead of once per read halves the per-request
        task-creation overhead on the loop.
        """
        if timeout is None:
            return await self._read_frame_now(reader, max_bytes)
        return await asyncio.wait_for(self._read_frame_now(reader, max_bytes), timeout)

    @staticmethod
    async def _send_frames(writer: asyncio.StreamWriter, payloads, timeout: "float | None") -> None:
        for payload in payloads:
            writer.write(frame(payload))
        # drain() applies backpressure: a client that stops reading blocks
        # only its own coroutine — and only until the idle timeout.  Below
        # the transport's high-water mark drain returns immediately, so the
        # timeout guard (a wrapper task) is only worth paying when the
        # buffer has actually backed up.
        if timeout is None or writer.transport.get_write_buffer_size() < 65536:
            await writer.drain()
        else:
            await asyncio.wait_for(writer.drain(), timeout)

    async def _handle_connection(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        core = self._core
        timeout = core.config.idle_timeout
        owner = object()  # unique ownership token of this connection
        core.connection_opened()
        self._writers.add(writer)
        try:
            sock = writer.get_extra_info("socket")
            if sock is not None:
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            hello = await self._read_frame(reader, timeout, MAX_HELLO_BYTES)
            if hello is None:
                return
            reply, accepted = answer_hello(hello)
            await self._send_frames(writer, [reply], timeout)
            while accepted:
                payload = await self._read_frame(reader, timeout)
                if payload is None:
                    break
                core.begin_request()
                try:
                    frames = await self._loop.run_in_executor(
                        self._executor,
                        functools.partial(core.serve_frames, payload, owner),
                    )
                    await self._send_frames(writer, frames, timeout)
                finally:
                    core.end_request()
        except (ProtocolError, asyncio.TimeoutError, OSError):
            # Torn-down, timed-out or misbehaving connection; per-connection
            # state is dropped below and the loop keeps serving the rest.
            pass
        finally:
            self._writers.discard(writer)
            core.connection_closed(owner)
            writer.close()
            try:
                await writer.wait_closed()
            except (OSError, asyncio.TimeoutError):  # pragma: no cover
                pass
