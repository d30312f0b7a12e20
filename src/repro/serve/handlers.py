"""Endpoint logic of the benchmark service.

:class:`BenchService` is deliberately framework-free: it maps a parsed
:class:`Request` to a :class:`Response` using only the snapshot manager
and in-memory caches, so every endpoint, cache interaction and error
mapping is unit-testable without opening a socket
(:mod:`repro.serve.app` adds the actual HTTP plumbing).

Performance model, in request order:

1. **Snapshot pinning** — each request grabs the current immutable
   epoch (:meth:`SnapshotManager.maybe_refresh` is a throttled
   ``os.stat`` sweep), so no lock is held while handling.
2. **ETag short-circuit** — every cacheable response carries a strong
   ETag derived from content digests (the pack's sha256 entries, the
   record-list digest).  ``If-None-Match`` hits return ``304`` before
   any payload work happens — for artifact downloads, before the pack
   is even read.
3. **Zero-copy downloads** — packed ``.fgl`` payloads are zlib streams,
   which is exactly the HTTP ``deflate`` content coding; clients that
   accept it get the verified ``os.pread`` slice byte-for-byte, no
   decompression, no parsing.
4. **Epoch-keyed render caches** — ``/v1/best`` and ``/v1/report`` are
   analytics sweeps; their rendered payloads are cached under the
   snapshot's content digest, so each epoch computes them once.
5. **Gzip LRU** — negotiated gzip bodies are cached by ETag.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass, field

from ..core.selection import AbstractionLevel, Selection
from ..core.snapshot import SnapshotManager
from ..core.store import ArtifactNotFoundError
from ..gatelibs.apply import apply_gate_library
from ..io.qca import cell_layout_to_qca
from ..io.sqd import sidb_layout_to_sqd
from ..layout.coordinates import Topology
from ..optimization.hexagonalization import to_hexagonal
from .http_utils import (
    GzipEncoder,
    LruCache,
    etag_matches,
    parse_accept_encoding,
    strong_etag,
)

#: Rendered-payload LRU bound (best/report/cell-level conversions).
DEFAULT_RENDER_CACHE_SIZE = 64

_CONTENT_TYPES = {
    "fgl": "application/xml; charset=utf-8",
    "v": "text/plain; charset=utf-8",
    "json": "application/json; charset=utf-8",
    "sqd": "application/xml; charset=utf-8",
    "qca": "text/plain; charset=utf-8",
    "markdown": "text/markdown; charset=utf-8",
    "csv": "text/csv; charset=utf-8",
}

_TRUTHY = {"1", "true", "yes", "on"}


@dataclass(frozen=True)
class Request:
    """A parsed request, socket-free."""

    method: str
    path: str
    #: Query parameters, each value a list (repeatable keys).
    params: dict
    #: Headers, keys lowercased.
    headers: dict

    def first(self, key: str, default: str | None = None) -> str | None:
        values = self.params.get(key)
        return values[0] if values else default

    def many(self, key: str) -> list:
        return list(self.params.get(key, ()))

    def flag(self, key: str) -> bool:
        value = self.first(key)
        return value is not None and value.strip().lower() in _TRUTHY


@dataclass
class Response:
    """What the transport writes back."""

    status: int
    body: bytes = b""
    content_type: str | None = None
    etag: str | None = None
    #: Extra headers (Content-Encoding for pre-compressed bodies, …).
    headers: dict = field(default_factory=dict)
    #: True when ``body`` already carries a Content-Encoding — the
    #: negotiation layer must not re-compress it.
    pre_encoded: bool = False


def _json_response(payload, status: int = 200, etag: str | None = None) -> Response:
    body = json.dumps(payload, indent=2, sort_keys=True).encode("utf-8")
    return Response(status, body, _CONTENT_TYPES["json"], etag=etag)


def _error(status: int, message: str) -> Response:
    return _json_response({"error": message, "status": status}, status=status)


def selection_from_params(request: Request) -> Selection:
    """The Figure 1 form, as query parameters (repeatable keys)."""
    return Selection.make(
        abstraction_levels=request.many("level"),
        gate_libraries=request.many("library"),
        clocking_schemes=request.many("scheme"),
        algorithms=request.many("algorithm"),
        optimizations=request.many("optimization"),
        suites=request.many("suite"),
        names=request.many("name"),
        best_only=request.flag("best"),
    )


def _selection_key(selection: Selection) -> str:
    """A canonical cache-key string for one selection."""
    return json.dumps(
        {
            "levels": sorted(level.value for level in selection.abstraction_levels),
            "libraries": sorted(selection.gate_libraries),
            "schemes": sorted(selection.clocking_schemes),
            "algorithms": sorted(selection.algorithms),
            "optimizations": sorted(selection.optimizations),
            "suites": sorted(selection.suites),
            "names": sorted(selection.names),
            "best": selection.best_only,
        },
        sort_keys=True,
    )


# ---------------------------------------------------------------------------
# Shared payload builders
#
# These take any database-like view (a DatabaseSnapshot or a
# BenchmarkDatabase), so the qa ``serve_agreement`` oracle and the
# serving benchmark compare HTTP payloads against the in-process API
# byte for byte.
# ---------------------------------------------------------------------------


def query_payload(view, selection: Selection) -> dict:
    """The ``/v1/query`` payload for ``view``."""
    hits = view.query(selection)
    return {"count": len(hits), "files": [record.to_json() for record in hits]}


def best_payload(view, selection: Selection | None = None) -> dict:
    """The ``/v1/best`` payload: area-best artifact per (suite,
    function, gate library), ranked on computed metrics."""
    from ..analytics.engine import best_database
    from ..analytics.report import _report_row

    pairs = best_database(view, selection)
    return {
        "count": len(pairs),
        "best": [_report_row(record, analysis).to_json() for record, analysis in pairs],
    }


# ---------------------------------------------------------------------------
# The service
# ---------------------------------------------------------------------------


class BenchService:
    """Routes requests against the current database epoch."""

    def __init__(
        self,
        manager: SnapshotManager,
        gzip_cache_size: int | None = None,
        render_cache_size: int = DEFAULT_RENDER_CACHE_SIZE,
    ) -> None:
        self.manager = manager
        self.gzip = (
            GzipEncoder(gzip_cache_size) if gzip_cache_size else GzipEncoder()
        )
        #: (digest, kind, params) → rendered payload bytes.
        self.render_cache = LruCache(render_cache_size)
        self.started = time.time()
        self.counters: dict[str, int] = {}
        self._counter_lock = threading.Lock()
        self._routes = {
            "/v1/query": self._query,
            "/v1/best": self._best,
            "/v1/report": self._report,
            "/v1/stats": self._stats,
        }

    # -- entry point ---------------------------------------------------------

    def handle(self, request: Request) -> Response:
        """Dispatch, then apply conditional-GET and content negotiation."""
        started = time.perf_counter()
        try:
            response = self._dispatch(request)
        except ArtifactNotFoundError as exc:
            self._bump("errors")
            response = _error(404, str(exc))
        except ValueError as exc:
            self._bump("errors")
            response = _error(400, str(exc))
        response = self._finalize(request, response)
        self._bump("requests")
        self._bump("busy_micros", int((time.perf_counter() - started) * 1e6))
        return response

    def _dispatch(self, request: Request) -> Response:
        if request.method not in ("GET", "HEAD"):
            self._bump("errors")
            return _error(405, f"method {request.method} not allowed")
        if request.path.startswith("/v1/artifact/"):
            self._bump("artifact")
            return self._artifact(request, request.path[len("/v1/artifact/") :])
        handler = self._routes.get(request.path.rstrip("/") or "/")
        if handler is None:
            self._bump("errors")
            return _error(404, f"no such endpoint: {request.path}")
        self._bump(request.path.rstrip("/").rsplit("/", 1)[-1])
        return handler(request)

    def _bump(self, key: str, amount: int = 1) -> None:
        with self._counter_lock:
            self.counters[key] = self.counters.get(key, 0) + amount

    # -- conditional GET + content negotiation -------------------------------

    def _finalize(self, request: Request, response: Response) -> Response:
        if response.etag is not None:
            response.headers["ETag"] = response.etag
            if etag_matches(request.headers.get("if-none-match"), response.etag):
                self._bump("not_modified")
                return Response(
                    304, b"", None, etag=response.etag, headers=response.headers
                )
        if response.pre_encoded or response.status != 200:
            return response
        accepted = parse_accept_encoding(request.headers.get("accept-encoding"))
        if self.gzip.worthwhile(response.body, accepted):
            response.body = self.gzip.encode(response.body, response.etag)
            response.headers["Content-Encoding"] = "gzip"
        return response

    # -- endpoints -----------------------------------------------------------

    def _query(self, request: Request) -> Response:
        snapshot = self.manager.maybe_refresh()
        selection = selection_from_params(request)
        etag = strong_etag("query", snapshot.digest, _selection_key(selection))
        if etag_matches(request.headers.get("if-none-match"), etag):
            return Response(200, b"", _CONTENT_TYPES["json"], etag=etag)
        return _json_response(query_payload(snapshot, selection), etag=etag)

    def _best(self, request: Request) -> Response:
        snapshot = self.manager.maybe_refresh()
        selection = selection_from_params(request)
        key = (snapshot.digest, "best", _selection_key(selection))
        etag = strong_etag(*key)
        body = self.render_cache.get(key)
        if body is None:
            body = json.dumps(
                best_payload(snapshot, selection), indent=2, sort_keys=True
            ).encode("utf-8")
            self.render_cache.put(key, body)
        return Response(200, body, _CONTENT_TYPES["json"], etag=etag)

    def _report(self, request: Request) -> Response:
        snapshot = self.manager.maybe_refresh()
        selection = selection_from_params(request)
        fmt = (request.first("format") or "json").strip().lower()
        if fmt == "md":
            fmt = "markdown"
        if fmt not in ("json", "markdown", "csv"):
            return _error(400, f"unknown report format {fmt!r}")
        key = (snapshot.digest, f"report:{fmt}", _selection_key(selection))
        etag = strong_etag(*key)
        body = self.render_cache.get(key)
        if body is None:
            report = snapshot.report(selection)
            body = report.render(fmt).encode("utf-8")
            self.render_cache.put(key, body)
        return Response(200, body, _CONTENT_TYPES[fmt], etag=etag)

    def _stats(self, request: Request) -> Response:
        snapshot = self.manager.current()
        levels: dict[str, int] = {}
        for record in snapshot.records:
            levels[record.abstraction_level.value] = (
                levels.get(record.abstraction_level.value, 0) + 1
            )
        payload = {
            "status": "ok",
            "epoch": snapshot.epoch,
            "digest": snapshot.digest,
            "records": len(snapshot.records),
            "records_by_level": dict(sorted(levels.items())),
            "uptime_seconds": round(time.time() - self.started, 3),
            "epoch_refreshes": self.manager.refreshes,
            "store": snapshot.store.stats(),
            "gzip_cache": self.gzip.cache.stats(),
            "render_cache": self.render_cache.stats(),
            "counters": dict(sorted(self.counters.items())),
            "generation": self._generation_stats(snapshot),
        }
        return _json_response(payload)

    @staticmethod
    def _generation_stats(snapshot) -> dict | None:
        """The last sweep's scheduler accounting, if one ran here.

        ``generate`` persists ``generation_stats.json`` next to the
        index (see :mod:`repro.scheduler.engine`); serving surfaces it
        verbatim so operators can watch an unattended sweep's task
        counters (done/failed/cancelled/stolen, per-flow wall time)
        through the same ``/v1/stats`` endpoint they already poll.
        """
        from ..scheduler.engine import GENERATION_STATS_NAME

        path = snapshot.root / GENERATION_STATS_NAME
        try:
            data = json.loads(path.read_text(encoding="utf-8"))
        except (FileNotFoundError, json.JSONDecodeError, OSError):
            return None
        return data if isinstance(data, dict) else None

    def _artifact(self, request: Request, raw_id: str) -> Response:
        artifact_id = raw_id.strip("/")
        if not artifact_id or ".." in artifact_id.split("/"):
            return _error(400, f"invalid artifact id {raw_id!r}")
        snapshot = self.manager.maybe_refresh()
        record = snapshot.record_for(artifact_id)
        if record is None:
            raise ArtifactNotFoundError(artifact_id)
        fmt = (request.first("format") or "").strip().lower()
        if not fmt:
            fmt = (
                "fgl"
                if record.abstraction_level is AbstractionLevel.GATE_LEVEL
                else "v"
            )
        if fmt not in ("fgl", "v", "json", "sqd", "qca"):
            return _error(400, f"unknown artifact format {fmt!r}")

        entry = snapshot.store.entry(record.path)
        if entry is not None:
            etag = strong_etag("artifact", entry["sha256"], fmt)
        else:
            # Loose/network artifact: the payload bytes are the digest.
            text = snapshot.artifact_text(record)
            etag = strong_etag("artifact", text, fmt)
        if etag_matches(request.headers.get("if-none-match"), etag):
            # Short-circuit before any pack read or conversion.
            return Response(200, b"", _CONTENT_TYPES[fmt], etag=etag)

        if fmt in ("fgl", "v"):
            return self._raw_artifact(request, snapshot, record, entry, fmt, etag)
        if fmt == "json":
            payload = {"record": record.to_json(), "text": snapshot.artifact_text(record)}
            return _json_response(payload, etag=etag)
        return self._cell_level(snapshot, record, entry, fmt, etag)

    def _raw_artifact(self, request, snapshot, record, entry, fmt, etag) -> Response:
        """The canonical payload — zero-copy deflate when possible."""
        accepted = parse_accept_encoding(request.headers.get("accept-encoding"))
        if entry is not None and "deflate" in accepted:
            slice_bytes = snapshot.store.read_compressed(record.path)
            if slice_bytes is not None:
                return Response(
                    200,
                    slice_bytes,
                    _CONTENT_TYPES[fmt],
                    etag=etag,
                    headers={
                        "Content-Encoding": "deflate",
                        "X-MNT-Source": "pack-deflate",
                    },
                    pre_encoded=True,
                )
        body = snapshot.artifact_text(record).encode("utf-8")
        source = "pack" if entry is not None else "loose"
        return Response(
            200,
            body,
            _CONTENT_TYPES[fmt],
            etag=etag,
            headers={"X-MNT-Source": source},
        )

    def _cell_level(self, snapshot, record, entry, fmt, etag) -> Response:
        """``format=sqd``/``qca``: compile the gate-level artifact with
        its gate library; conversions are cached by content digest."""
        if record.abstraction_level is not AbstractionLevel.GATE_LEVEL:
            return _error(400, f"format={fmt} requires a gate-level artifact")
        library = record.gate_library or ""
        wanted = "sqd" if library == "Bestagon" else "qca"
        if fmt != wanted:
            return _error(
                400,
                f"artifact {record.path!r} uses the {library or 'unknown'} "
                f"library; its cell-level format is {wanted!r}, not {fmt!r}",
            )
        key = (entry["sha256"] if entry else etag, fmt)
        body = self.render_cache.get(key)
        if body is None:
            layout = snapshot.store.load_layout(record.path)
            if fmt == "sqd" and layout.topology is Topology.CARTESIAN:
                # Bestagon targets hexagonal grids; a Cartesian 2DDWave
                # artifact maps onto one exactly (the 45° rotation).
                layout = to_hexagonal(layout).layout
            cells = apply_gate_library(layout, library)
            text = (
                sidb_layout_to_sqd(cells) if fmt == "sqd" else cell_layout_to_qca(cells)
            )
            body = text.encode("utf-8")
            self.render_cache.put(key, body)
        return Response(200, body, _CONTENT_TYPES[fmt], etag=etag)
