"""The coalescing network serving layer.

Many interactive users, one shared engine: this subpackage puts the batched
machinery of the layers below — ``search_batch``, the sharded
multi-worker engines — behind a TCP service whose core is
*request coalescing*:

* :mod:`repro.serving.protocol` — the length-prefixed frame format,
* :mod:`repro.serving.codec` — the wire codec: the versioned handshake
  (one :func:`~repro.serving.codec.answer_hello` for both front ends) and
  the binary codec (exact float64 bit preservation, decodes nothing but
  data),
* :mod:`repro.serving.coalescer` — the shared micro-batch window for k-NN
  queries and feedback-session rounds (:class:`RequestCoalescer`),
* :mod:`repro.serving.bypass_registry` — :class:`BypassRegistry`, the
  shared served bypass: one persistent, multi-tenant Simplex Tree per
  (collection, distance-family), predicting and trained through the
  ``bypass_*`` ops,
* :mod:`repro.serving.sessions` — server-held state of client-driven
  multi-round feedback sessions, the one served feedback loop,
* :mod:`repro.serving.server` — :class:`ServingCore` (the shared
  transport-independent dispatch) and :class:`RetrievalServer`, the
  thread-per-connection front end,
* :mod:`repro.serving.async_server` — :class:`AsyncRetrievalServer`, the
  event-loop front end that holds tens of thousands of connections,
* :mod:`repro.serving.client` — :class:`ServingClient`, the engine contract
  over a socket,
* :mod:`repro.serving.pool` — :class:`PooledServingClient`, a bounded,
  health-checked connection pool with deadline budgets and bounded
  exponential-backoff retry.

The layer's contract is the library-wide one: coalescing changes *who
shares a dispatch*, never results — every answer is byte-identical to
calling the engine (or :meth:`~repro.feedback.engine.FeedbackEngine.run_loop`)
directly, whichever front end carried it.  See
``docs/serving.md`` for the wire protocol and the coalescing semantics.

The event-loop front end and the pool load on first access, so the
threaded server's process never imports ``asyncio`` or ``ssl``.
"""

import importlib

from repro.serving.bypass_registry import DEFAULT_TENANT, BypassRegistry
from repro.serving.client import ServingClient, ServingError
from repro.serving.coalescer import RequestCoalescer
from repro.serving.codec import BinaryCodec, CodecError
from repro.serving.protocol import ConnectionClosed, ProtocolError
from repro.serving.server import RetrievalServer, ServerConfig, ServingCore
from repro.serving.sessions import ServingSession, SessionManager

__all__ = [
    "AsyncRetrievalServer",
    "BinaryCodec",
    "BypassRegistry",
    "CodecError",
    "ConnectionClosed",
    "DEFAULT_TENANT",
    "PoolTimeout",
    "PooledServingClient",
    "ProtocolError",
    "RequestCoalescer",
    "RetrievalServer",
    "ServerConfig",
    "ServingClient",
    "ServingCore",
    "ServingError",
    "ServingSession",
    "SessionManager",
]

_DEFERRED = {
    "AsyncRetrievalServer": "repro.serving.async_server",
    "PooledServingClient": "repro.serving.pool",
    "PoolTimeout": "repro.serving.pool",
}


def __getattr__(name: str):
    """Import a deferred name's module on first access (PEP 562)."""
    if name not in _DEFERRED:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(_DEFERRED[name]), name)
