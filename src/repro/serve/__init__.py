"""``mnt-bench serve`` — the hosted MNT Bench website as a local,
stdlib-only network service.

The paper's headline deliverable is a web platform that serves
pre-generated FCN layouts on demand (Figure 1); its sibling platform
MQT Bench runs the same query/download model as a live service.  This
package turns the fast in-process serving layer (facet-indexed
``query()``, the compressed artifact pack, the columnar analytics
engine) into that system:

* :class:`~repro.serve.app.BenchServer` — a
  :class:`socketserver.ThreadingTCPServer` with its own small HTTP/1.1
  reader: bounded request heads with typed 400/408/414/431/505 errors,
  keep-alive connections with an idle timeout, one handler thread per
  client, and each response's header block sent in one ``sendall``;
* :class:`~repro.serve.handlers.BenchService` — the endpoint logic,
  framework-free and fully unit-testable without sockets;
* snapshot isolation via :class:`repro.core.snapshot.SnapshotManager`:
  every request runs against an immutable epoch, so ``generate``/
  ``optimize`` append concurrently without perturbing live readers;
* serving-grade caching: strong ETags derived from the pack's content
  digests with ``304 Not Modified`` short-circuiting, gzip content
  negotiation behind a bounded compressed-response LRU, and a
  zero-copy ``.fgl`` download path that ships verified ``os.pread``
  pack slices as ``Content-Encoding: deflate`` without parsing or even
  decompressing them.

Endpoints (all ``GET``):

====================  =====================================================
``/v1/query``         facet-filtered record list (Figure 1's form)
``/v1/artifact/<id>`` artifact download (``.fgl``/``.v``; ``format=json``,
                      ``format=sqd``/``qca`` for cell-level compilation)
``/v1/best``          best layout per (suite, function, library), ranked on
                      metrics computed from the artifacts
``/v1/report``        Table-I / Figure-1 aggregates (markdown/CSV/JSON)
``/v1/stats``         health, epoch, cache and request counters
====================  =====================================================
"""

from .app import BenchServer, ServeConfig, make_server, serve
from .handlers import BenchService, Request, Response, best_payload, query_payload

__all__ = [
    "BenchServer",
    "BenchService",
    "Request",
    "Response",
    "ServeConfig",
    "best_payload",
    "make_server",
    "query_payload",
    "serve",
]
