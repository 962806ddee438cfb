"""In-memory stub image-management server for end-to-end tests and demos.

Serves the three endpoint families the client speaks (store, retrieve,
search) over HTTP/1.1. Instances are keyed by (study, series, sop);
re-storing a key replaces the previous bytes (last writer wins) and keeps
the key's place in store order. State is in-memory; an optional snapshot
directory persists stored files for CLI demos (each replaced atomically,
under the store lock) and reloads them on startup.

A search filtered by StudyInstanceUID, SeriesInstanceUID or
SOPInstanceUID reads only the instances stored under that UID: one index
per UID level maps each UID to its keys in store order. Every filter is
still tested on every candidate, so the index only narrows the set; the
answer is the one a scan of the whole archive gives. Only the records left
after offset/limit are turned into JSON.

Connections are kept alive between requests, one handler thread each. A
connection idle for `IDLE_TIMEOUT_S` seconds is closed and its thread ends.
`stop()` shuts down every live connection and waits for its handler, so a
stopped archive answers nothing more on a kept-alive socket. A request
answered without reading its body (a POST to an unknown path, a bad
Content-Length) closes the connection, so the unread body is never parsed
as the next request. A reply that ends its connection, for that reason or
because the request asked to close, says Connection: close.

Each answered request is logged as one DEBUG record to the
``dicomforge.web`` logger: method, path, status, reply body bytes and
latency, from the request line to the reply head. `StubArchive.stats()`
counts the same requests by status, with request and reply body bytes,
connections accepted and the instances stored.
"""
from __future__ import annotations

import json
import logging
import os
import socket
import threading
from collections import Counter
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from time import perf_counter
from urllib.parse import parse_qsl, urlparse

from ..dataset import DataSet, copy_attributes
from ..derived import sop_reference
from ..errors import DicomforgeError, RejectedInstanceError, ServerStartupError
from ..part10 import read_part10
from ..tags import Tag, resolve_key
from ..uid import is_valid_uid
from .jsonmodel import dataset_to_json
from .multipart import (
    boundary_from_content_type,
    build_multipart,
    content_type_header,
    parse_multipart,
    random_boundary,
)

_LOG = logging.getLogger("dicomforge.web")

# the default cap on a STOW body: a STOW announcing more is answered 413
# unread; 64 frames of 512 x 512 pixels take 2 MB as a binary SEG, 16 MB
# as a fractional one
MAX_BODY_BYTES = 256 * 2**20

# seconds a connection may wait for its next request (or a read or write
# may stall) before its handler closes it and ends
IDLE_TIMEOUT_S = 60.0

_UID_KEYS = ("StudyInstanceUID", "SeriesInstanceUID", "SOPInstanceUID")
_FILTER_TAGS = frozenset(resolve_key(k) for k in ("Modality", "PatientID", *_UID_KEYS))

_STUDY_ATTRS = ("StudyInstanceUID", "PatientID", "PatientName", "StudyDate",
                "AccessionNumber")
_SERIES_ATTRS = _STUDY_ATTRS + ("SeriesInstanceUID", "Modality", "SeriesNumber")
_INSTANCE_ATTRS = _SERIES_ATTRS + ("SOPClassUID", "SOPInstanceUID",
                                   "InstanceNumber")

# search level -> (length of the key prefix a record stands for, its attributes)
_LEVELS = {"studies": (1, _STUDY_ATTRS), "series": (2, _SERIES_ATTRS),
           "instances": (3, _INSTANCE_ATTRS)}


class _StoredInstance:
    __slots__ = ("blob", "meta")

    def __init__(self, blob: bytes, meta: DataSet):
        self.blob = blob
        self.meta = meta


def _uid(ds: DataSet, key: str) -> str:
    """The UID value of `key`; "" when absent or not text."""
    value = ds.value(key)
    return value if isinstance(value, str) else ""


class _Server(ThreadingHTTPServer):
    """A threaded HTTP server that can end its live connections."""

    def __init__(self, address, handler):
        self._live: dict[socket.socket, threading.Thread] = {}
        self._live_lock = threading.Lock()
        super().__init__(address, handler)

    def process_request(self, request, client_address):
        # ThreadingMixIn's, with each connection's thread kept until it ends
        thread = threading.Thread(target=self.process_request_thread,
                                  args=(request, client_address), daemon=True)
        with self._live_lock:
            self._live[request] = thread
        thread.start()

    def shutdown_request(self, request):
        with self._live_lock:
            self._live.pop(request, None)
        super().shutdown_request(request)

    def end_connections(self) -> None:
        """Shut down every live connection, so a handler waiting for the
        next request on it reads EOF and ends, and wait for the handlers."""
        with self._live_lock:
            live = list(self._live.items())
        for request, _ in live:
            try:
                request.shutdown(socket.SHUT_RDWR)
            except OSError:  # its handler closed it meanwhile
                pass
        for _, thread in live:
            thread.join(timeout=5)


class StubArchive:
    """Lifecycle handle around the threaded HTTP server.

    A STOW whose body is longer than `max_body_bytes` is answered 413
    before its body is read.
    """

    def __init__(self, port: int = 0, snapshot_dir=None,
                 max_body_bytes: int = MAX_BODY_BYTES):
        self._requested_port = port
        self._snapshot_dir = Path(snapshot_dir) if snapshot_dir else None
        self.max_body_bytes = max_body_bytes
        self._lock = threading.Lock()
        self._instances: dict[tuple[str, str, str], _StoredInstance] = {}
        # UID tag -> UID -> the keys stored under it, in store order (a dict
        # used as an ordered set); keys are never removed
        self._by_uid: dict[Tag, dict[str, dict[tuple[str, str, str], None]]] = {
            resolve_key(k): {} for k in _UID_KEYS
        }
        self._server: _Server | None = None
        self._thread: threading.Thread | None = None
        self._counts_lock = threading.Lock()
        self._statuses: Counter[int] = Counter()
        self._bytes_in = self._bytes_out = self._connections = 0

    # -- counters -------------------------------------------------------------

    def _count_request(self, status: int, bytes_in: int, bytes_out: int) -> None:
        with self._counts_lock:
            self._statuses[status] += 1
            self._bytes_in += bytes_in
            self._bytes_out += bytes_out

    def _count_connection(self) -> None:
        with self._counts_lock:
            self._connections += 1

    def stats(self) -> dict:
        """Counts since the archive was created: answered requests by status
        (``requests``), request and reply body bytes (``bytes_in``,
        ``bytes_out``), connections accepted (``connections``), and the
        instances stored now (``instances``). A request is counted before
        its reply head is sent."""
        with self._counts_lock:
            counts = {"requests": dict(sorted(self._statuses.items())),
                      "bytes_in": self._bytes_in, "bytes_out": self._bytes_out,
                      "connections": self._connections}
        return {**counts, "instances": len(self)}

    # -- storage ------------------------------------------------------------

    def put(self, blob: bytes) -> tuple[tuple[str, str, str], str]:
        """Store one Part 10 stream; returns its (study, series, sop) key and
        its SOP class UID.

        The key's UIDs also name the snapshot file, so each must be a valid
        UID (digits and dots only); an instance without them raises
        RejectedInstanceError, which carries the SOP UIDs it does have.
        """
        key, sop_class, entry = self._decode(blob)
        self._add(key, entry, snapshot=True)
        return key, sop_class

    def _add(self, key: tuple[str, str, str], entry: _StoredInstance,
             snapshot: bool) -> None:
        """Store `entry` under `key` and index it by its UIDs, writing its
        snapshot file first when `snapshot` is set and there is a directory."""
        with self._lock:
            if snapshot and self._snapshot_dir:
                self._write_snapshot(key[2], entry.blob)
            self._instances[key] = entry
            for tag, index in self._by_uid.items():
                index.setdefault(entry.meta.value(tag, ""), {})[key] = None

    @staticmethod
    def _decode(blob: bytes) -> tuple[tuple[str, str, str], str, _StoredInstance]:
        """Decode `blob` into its key, SOP class UID and stored entry."""
        _, ds = read_part10(blob)
        key = (_uid(ds, "StudyInstanceUID"), _uid(ds, "SeriesInstanceUID"),
               _uid(ds, "SOPInstanceUID"))
        sop_class = _uid(ds, "SOPClassUID")
        if not all(is_valid_uid(uid) for uid in key):
            raise RejectedInstanceError(
                f"instance lacks valid study/series/sop UIDs: {key!r}",
                sop_class, key[2],
            )
        meta = DataSet()
        copy_attributes(ds, meta, _INSTANCE_ATTRS)
        return key, sop_class, _StoredInstance(blob, meta)

    def _write_snapshot(self, sop: str, blob: bytes) -> None:
        """Replace `<sop>.dcm` atomically: readers see the old file or the
        new one, never a torn write. Callers hold `_lock`."""
        self._snapshot_dir.mkdir(parents=True, exist_ok=True)
        path = self._snapshot_dir / f"{sop}.dcm"
        partial = path.with_name(path.name + ".partial")
        try:
            partial.write_bytes(blob)
            os.replace(partial, path)
        finally:
            partial.unlink(missing_ok=True)

    def get(self, study: str, series: str, sop: str) -> bytes | None:
        with self._lock:
            entry = self._instances.get((study, series, sop))
        return entry.blob if entry else None

    def candidates(self, filters: dict[Tag, str]) -> list[tuple[tuple[str, str, str], DataSet]]:
        """(key, metadata) of the instances a search with `filters` must
        test, in store order: those stored under the filter's UID with the
        fewest instances, or all of them when no UID is filtered on."""
        with self._lock:
            hits = [self._by_uid[tag].get(value, {})
                    for tag, value in filters.items() if tag in self._by_uid]
            keys = min(hits, key=len) if hits else self._instances
            return [(key, self._instances[key].meta) for key in keys]

    def __len__(self) -> int:
        with self._lock:
            return len(self._instances)

    def _load_snapshot(self) -> None:
        """Index the snapshot files; they are already on disk, so loading
        leaves them as they are."""
        if not self._snapshot_dir or not self._snapshot_dir.is_dir():
            return
        for path in sorted(self._snapshot_dir.glob("*.dcm")):
            try:
                key, _, entry = self._decode(path.read_bytes())
            except DicomforgeError:
                continue
            self._add(key, entry, snapshot=False)

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "StubArchive":
        self._load_snapshot()
        archive = self
        handler = type("_Handler", (_RequestHandler,), {"archive": archive})
        try:
            self._server = _Server(("127.0.0.1", self._requested_port), handler)
        except (OSError, OverflowError) as exc:  # OverflowError: a port past 65535
            raise ServerStartupError(
                f"cannot bind port {self._requested_port}: {exc}"
            ) from exc
        self._thread = threading.Thread(
            target=self._server.serve_forever,
            kwargs={"poll_interval": 0.05},
            daemon=True,
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        if self._server is not None:
            self._server.shutdown()  # accepts nothing more
            self._server.end_connections()
            self._server.server_close()
            self._server = None
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None

    @property
    def port(self) -> int:
        if self._server is None:
            raise RuntimeError("server is not running")
        return self._server.server_address[1]

    @property
    def base_url(self) -> str:
        return f"http://127.0.0.1:{self.port}"

    def __enter__(self) -> "StubArchive":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()


class _RequestHandler(BaseHTTPRequestHandler):
    archive: StubArchive  # injected by StubArchive.start
    protocol_version = "HTTP/1.1"
    # a reply goes out as two writes, head and body; with Nagle's algorithm
    # the body of a reply on a kept-alive connection could wait for the
    # client's delayed ACK of the head
    disable_nagle_algorithm = True

    def log_message(self, *args):  # end_headers logs each answered request
        pass

    def setup(self):
        self.timeout = IDLE_TIMEOUT_S  # read per connection, at accept
        super().setup()
        self.archive._count_connection()
        self._started, self._bytes_in = None, 0  # reset after each reply

    def parse_request(self) -> bool:
        self._started = perf_counter()  # the request line has arrived
        return super().parse_request()

    # Every reply, _reply's and the base class's own send_error pages (a 501
    # for PUT, a 400 for a request line that does not parse), passes through
    # these three; the record is written before the headers leave, so a
    # client holding a reply always finds its record.

    def send_response_only(self, code, message=None):
        self._status, self._content_length = code, 0
        super().send_response_only(code, message)

    def send_header(self, keyword: str, value: str) -> None:
        if keyword == "Content-Length":
            self._content_length = int(value)
        super().send_header(keyword, value)

    def end_headers(self):
        """Count the request and log one DEBUG record of it to
        ``dicomforge.web``: method, path (``- -`` for a request line that
        did not parse), status, reply body bytes and latency in ms; an
        interim 100 Continue is neither counted nor logged."""
        if self._status >= 200:
            # a request line too long to parse is answered as soon as it is
            # read, without parse_request: its latency reads 0
            latency = perf_counter() - (self._started or perf_counter())
            self.archive._count_request(self._status, self._bytes_in, self._content_length)
            self._started, self._bytes_in = None, 0
            _LOG.debug("%s %s %d %d %.3f ms", self.command or "-",
                       self.path if self.command else "-",
                       self._status, self._content_length, latency * 1e3)
        super().end_headers()

    def _reply(self, status: int, body: bytes = b"",
               content_type: str = "application/dicom+json") -> None:
        """Send a reply with `body`; :meth:`end_headers` logs it."""
        self.send_response(status)
        if self.close_connection:
            self.send_header("Connection", "close")
        if body:
            self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        if body:
            self.wfile.write(body)

    def _reply_json(self, status: int, payload) -> None:
        self._reply(status, json.dumps(payload).encode("utf-8"))

    # -- STOW ----------------------------------------------------------------

    def do_POST(self):
        path = urlparse(self.path).path.rstrip("/")
        if not (path == "/studies" or
                (path.startswith("/studies/") and path.count("/") == 2)):
            self.close_connection = True  # the unread body would follow
            self._reply(404)
            return
        length = self.headers.get("Content-Length", "0").strip()
        if not (length.isascii() and length.isdigit()):
            self.close_connection = True  # the unread body would follow
            self._reply_json(400, {"error": f"bad Content-Length {length!r}"})
            return
        if int(length) > self.archive.max_body_bytes:
            self.close_connection = True  # the unread body would follow
            self._reply_json(413, {"error": f"body of {int(length)} bytes exceeds the "
                                            f"limit of {self.archive.max_body_bytes}"})
            return
        body = self.rfile.read(int(length))
        self._bytes_in = len(body)
        try:
            boundary = boundary_from_content_type(
                self.headers.get("Content-Type", "")
            )
            parts = parse_multipart(body, boundary)
        except DicomforgeError as exc:
            self._reply_json(400, {"error": str(exc)})
            return
        del body  # the parts are copies; free it before they are decoded
        referenced = []
        failed = []
        for _, blob in parts:
            try:
                (study, series, sop), sop_class = self.archive.put(blob)
            except DicomforgeError as exc:
                uids = ((exc.sop_class_uid, exc.sop_instance_uid)
                        if isinstance(exc, RejectedInstanceError) else (None, None))
                failed.append(sop_reference(*uids, FailureReason=272))
                continue
            referenced.append(sop_reference(
                sop_class, sop,
                RetrieveURL=f"/studies/{study}/series/{series}/instances/{sop}",
            ))
        response = DataSet()
        if failed:
            response.put("FailedSOPSequence", tuple(failed))
        if referenced:
            response.put("ReferencedSOPSequence", tuple(referenced))
        if failed and referenced:
            status = 202
        elif failed:
            status = 409
        else:
            status = 200
        self._reply_json(status, dataset_to_json(response))

    # -- WADO / QIDO -----------------------------------------------------------

    def do_GET(self):
        parsed = urlparse(self.path)
        segments = [s for s in parsed.path.split("/") if s]
        if (len(segments) == 6 and segments[0] == "studies"
                and segments[2] == "series" and segments[4] == "instances"):
            self._retrieve(segments[1], segments[3], segments[5])
            return
        if len(segments) == 1 and segments[0] in ("studies", "series", "instances"):
            self._search(segments[0], dict(parse_qsl(parsed.query)))
            return
        self._reply(404)

    def _retrieve(self, study: str, series: str, sop: str) -> None:
        blob = self.archive.get(study, series, sop)
        if blob is None:
            self._reply(404)
            return
        boundary = random_boundary()
        body = build_multipart([blob], boundary)
        self._reply(200, body, content_type=content_type_header(boundary))

    def _search(self, level: str, params: dict[str, str]) -> None:
        try:
            limit = int(params.pop("limit", -1))
            offset = int(params.pop("offset", 0))
        except ValueError:
            self._reply_json(400, {"error": "limit/offset must be integers"})
            return
        filters = {}
        for key, value in params.items():
            try:
                tag = resolve_key(key)
            except (KeyError, TypeError):
                self._reply_json(400, {"error": f"unknown attribute {key!r}"})
                return
            filters[tag] = value
        if not set(filters) <= _FILTER_TAGS:
            self._reply_json(400, {"error": "unsupported search attribute"})
            return

        depth, attrs = _LEVELS[level]
        matches = []
        seen = set()
        for key, meta in self.archive.candidates(filters):
            if any(meta.value(tag, "") != value for tag, value in filters.items()):
                continue
            if key[:depth] in seen:
                continue
            seen.add(key[:depth])
            matches.append(meta)

        matches = matches[offset:]
        if limit >= 0:
            matches = matches[:limit]
        if not matches:
            self._reply(204)
            return
        records = []
        for meta in matches:
            record = DataSet()
            copy_attributes(meta, record, attrs)
            records.append(dataset_to_json(record))
        self._reply_json(200, records)
