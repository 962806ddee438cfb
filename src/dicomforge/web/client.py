"""DICOMweb client: STOW-RS store, WADO-RS retrieve, QIDO-RS search.

Built on `http.client` over kept-alive HTTP/1.1 connections. A request
takes an idle connection from the client's stack, or opens a new one when
none is idle, and puts it back after a complete reply unless the server
said it would close it. Concurrent callers each hold their own
connection, and the stack never holds more than were in use at once.

An idle connection the server has closed is readable (its EOF), so it is
dropped before reuse. If sending a request fails, the reply is read all
the same: a server may answer and close before it has read a large body
(a 413), and that status is kept. If a reused connection fails before any
reply byte arrives, a GET is sent once more on a new connection; a POST
is never sent twice, since the server may have stored it. `close()` (or
leaving a `with` block) closes the idle connections, and so does
collecting the client.

No redirect is followed, no proxy variable or `.netrc` is read, and HTTPS
verifies certificates against the system CA store.
"""
from __future__ import annotations

import json
import select
import threading
import weakref
from base64 import b64encode
from http.client import HTTPConnection, HTTPException, HTTPResponse, HTTPSConnection
from typing import NamedTuple, Sequence
from urllib.parse import quote, urlencode, urlparse

from ..dataset import DataSet
from ..errors import (
    NotASequenceError,
    NotFoundError,
    PartialStoreError,
    ProtocolError,
    TransportError,
    UsageError,
)
from ..part10 import file_meta_for, read_part10, write_part10
from ..tags import resolve_key
from .jsonmodel import dataset_from_json
from .multipart import (
    boundary_from_content_type,
    build_multipart,
    content_type_header,
    parse_multipart,
    random_boundary,
)

SEARCH_LEVELS = ("studies", "series", "instances")


class InstanceRef(NamedTuple):
    """Full address of one stored instance."""

    study_instance_uid: str
    series_instance_uid: str
    sop_instance_uid: str
    sop_class_uid: str


def _status_error(method: str, url: str, status: int, body: bytes) -> TransportError:
    text = body[:200].decode("utf-8", "replace")
    return TransportError(f"{method} {url} returned {status}: {text}", status=status)


def _dropped(connection: HTTPConnection) -> bool:
    """Whether the server closed an idle connection: nothing is due on one,
    so a readable socket holds its EOF (or bytes no request asked for)."""
    if not hasattr(select, "poll"):  # Windows; elsewhere select() stops at FD_SETSIZE
        return bool(select.select([connection.sock], [], [], 0)[0])
    poller = select.poll()
    poller.register(connection.sock, select.POLLIN)
    return bool(poller.poll(0))


def _exchange(connection: HTTPConnection, message: tuple) -> HTTPResponse:
    """Send one request and read its reply head. A server may answer and
    close before reading all of the request (a 413 for a body over its
    limit), so a send that fails still returns the reply if one came; if
    none came, the send's error is raised."""
    try:
        connection.request(*message)
    except (ConnectionResetError, BrokenPipeError) as exc:
        try:
            return connection.getresponse()
        except (OSError, HTTPException):
            raise exc from None
    return connection.getresponse()


def _close_all(connections: list[HTTPConnection], lock: threading.Lock) -> None:
    with lock:
        closing = connections[:]
        connections.clear()
    for connection in closing:
        connection.close()


def _failed_uids(response_ds: DataSet) -> list[str]:
    """The SOP instance UID of each FailedSOPSequence item ("" if absent)."""
    return [
        item.value("ReferencedSOPInstanceUID", "")
        for item in response_ds.items_of("FailedSOPSequence")
    ]


def _store_response(reply: bytes) -> DataSet:
    """The store response in `reply`. Raises ProtocolError unless it is a
    DICOM JSON data set whose ReferencedSOPSequence and FailedSOPSequence,
    where present, are sequences."""
    try:
        response = dataset_from_json(json.loads(reply))
        for keyword in ("ReferencedSOPSequence", "FailedSOPSequence"):
            response.items_of(keyword)
    except (ValueError, NotASequenceError) as exc:
        raise ProtocolError(f"malformed store response: {exc}") from None
    return response


class WebClient:
    """Thin HTTP client for one DICOMweb origin.

    Safe for concurrent requests from multiple threads; each call holds
    its own kept-alive connection for the exchange. A refused connection,
    a timeout, a malformed or cut-off reply and any status outside 2xx
    raise `TransportError` (404: `NotFoundError`). Use it in a `with`
    block, or call `close()`, to close the idle connections; the client
    stays usable after either.
    """

    def __init__(
        self,
        base_url: str,
        token: str | None = None,
        basic: tuple[str, str] | None = None,
        timeout: float = 30.0,
    ):
        parsed = urlparse(base_url)
        if parsed.scheme not in ("http", "https") or not parsed.hostname:
            raise UsageError(f"base URL must be absolute http(s), got {base_url!r}")
        if parsed.username is not None:
            raise UsageError("pass credentials as basic=(user, password), not in the base URL")
        if token is not None and not (token.isascii() and token.isprintable()):
            raise UsageError("the token must be printable ASCII")
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        self._connection = HTTPSConnection if parsed.scheme == "https" else HTTPConnection
        self._address = (parsed.hostname, parsed.port)
        self._path = parsed.path.rstrip("/")
        self._token = token
        self._basic = basic
        self._idle: list[HTTPConnection] = []  # a stack: the last one back goes out first
        self._idle_lock = threading.Lock()
        # the callback holds the stack, not the client, so it can run once
        # the client is unreachable
        weakref.finalize(self, _close_all, self._idle, self._idle_lock)

    def close(self) -> None:
        """Close the idle connections; a later request opens a new one."""
        _close_all(self._idle, self._idle_lock)

    def __enter__(self) -> "WebClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _checkout(self) -> tuple[HTTPConnection, bool]:
        """An idle connection the server has not closed, else a new one;
        and whether it is reused."""
        with self._idle_lock:
            while self._idle:
                connection = self._idle.pop()
                if not _dropped(connection):
                    return connection, True
                connection.close()
        return self._connection(*self._address, timeout=self.timeout), False

    def _headers(self, **headers: str) -> dict[str, str]:
        if self._basic:
            credentials = ":".join(self._basic).encode("latin-1")
            headers["Authorization"] = f"Basic {b64encode(credentials).decode('ascii')}"
        elif self._token:
            headers["Authorization"] = f"Bearer {self._token}"
        return headers

    def _request(self, method: str, path: str, headers: dict[str, str],
                 body: bytes | None = None,
                 allow: tuple[int, ...] = ()) -> tuple[int, str, bytes]:
        """Send one request; returns (status, content type, body).

        `headers` are added to the ones every request sends. Statuses
        outside 2xx raise unless listed in `allow`.
        """
        url = self.base_url + path
        message = (method, self._path + path, body, self._headers(**headers))
        connection, reused = self._checkout()
        keep = False
        try:
            try:
                response = _exchange(connection, message)
            # RemoteDisconnected, a reply that ended before its first byte,
            # is a ConnectionResetError
            except (ConnectionResetError, BrokenPipeError):
                if not (reused and method == "GET"):
                    raise
                # the server closed the reused connection as the request
                # went out; a GET asks again, a POST may have been stored
                connection.close()
                connection = self._connection(*self._address, timeout=self.timeout)
                response = _exchange(connection, message)
            status = response.status
            content_type = response.getheader("Content-Type", "")
            reply = response.read()
            keep = not response.will_close
        except (OSError, HTTPException) as exc:
            raise TransportError(f"{method} {url} failed: {exc}") from exc
        finally:
            if keep:
                with self._idle_lock:
                    self._idle.append(connection)
            else:
                connection.close()
        if status == 404:
            raise NotFoundError(f"{url} not found")
        if not 200 <= status < 300 and status not in allow:
            raise _status_error(method, url, status, reply)
        return status, content_type, reply

    # -- STOW-RS -----------------------------------------------------------

    def store_instances(self, datasets: Sequence[DataSet]) -> list[InstanceRef]:
        """POST the datasets as Part 10 parts; returns one ref per stored
        instance, raising PartialStoreError when the server rejected some."""
        datasets = list(datasets)
        if not datasets:
            raise ValueError("nothing to store: the dataset list is empty")
        parts = [write_part10(file_meta_for(ds), ds) for ds in datasets]
        by_sop = {ds.value("SOPInstanceUID"): ds for ds in datasets}
        response_ds = self.store_parts(parts)
        failed = _failed_uids(response_ds)
        if failed:
            raise PartialStoreError(failed, status=202)
        refs = []
        for item in response_ds.items_of("ReferencedSOPSequence"):
            sop_uid = item.value("ReferencedSOPInstanceUID", "")
            source = by_sop.get(sop_uid)
            refs.append(InstanceRef(
                study_instance_uid=source.value("StudyInstanceUID", "") if source else "",
                series_instance_uid=source.value("SeriesInstanceUID", "") if source else "",
                sop_instance_uid=sop_uid,
                sop_class_uid=item.value("ReferencedSOPClassUID", ""),
            ))
        return refs

    def store_parts(self, parts: Sequence[bytes]) -> DataSet:
        """Low-level store of pre-encoded Part 10 byte streams.

        Returns the store response. When the server rejected every part
        (409 with a store response), raises PartialStoreError with the
        rejected SOP instance UIDs ("" where the server could not read one).
        A 2xx reply that is not a store response raises ProtocolError, and
        a 409 one TransportError.
        """
        boundary = random_boundary()
        body = build_multipart(list(parts), boundary)
        status, _, reply = self._request(
            "POST",
            "/studies",
            {
                "Content-Type": content_type_header(boundary),
                "Accept": "application/dicom+json",
            },
            body,
            allow=(409,),
        )
        if status == 409:
            try:
                failed = _failed_uids(_store_response(reply))
            except ProtocolError:
                failed = []
            if not failed:  # not a store response: a plain HTTP error
                raise _status_error("POST", f"{self.base_url}/studies", status, reply)
            raise PartialStoreError(failed, status=409)
        return _store_response(reply)

    # -- WADO-RS -----------------------------------------------------------

    def retrieve_instance_bytes(self, study: str, series: str, sop: str) -> bytes:
        """The stored Part 10 stream, byte-for-byte."""
        _, content_type, reply = self._request(
            "GET", quote(f"/studies/{study}/series/{series}/instances/{sop}"),
            {"Accept": 'multipart/related; type="application/dicom"'},
        )
        parts = parse_multipart(reply, boundary_from_content_type(content_type))
        if len(parts) != 1:
            raise ProtocolError(
                f"expected one part in instance response, got {len(parts)}"
            )
        return parts[0][1]

    def retrieve_instance(self, study: str, series: str, sop: str) -> DataSet:
        _, ds = read_part10(self.retrieve_instance_bytes(study, series, sop))
        return ds

    # -- QIDO-RS -----------------------------------------------------------

    def search(
        self,
        level: str = "instances",
        query: dict | None = None,
        limit: int | None = None,
        offset: int | None = None,
    ) -> list[DataSet]:
        """Search studies/series/instances with exact-match filters.

        Query keys are attribute keywords or 'GGGGEEEE' tag strings; records
        come back as small metadata datasets exposing the matched and
        default attributes.
        """
        if level not in SEARCH_LEVELS:
            raise UsageError(f"level must be one of {SEARCH_LEVELS}, got {level!r}")
        params = {}
        for key, value in (query or {}).items():
            try:
                resolve_key(key)  # validates keyword/tag form early
            except (KeyError, TypeError):
                raise UsageError(f"unknown search filter key {key!r}") from None
            params[key] = str(value)
        if limit is not None:
            params["limit"] = str(limit)
        if offset is not None:
            params["offset"] = str(offset)
        path = f"/{level}?{urlencode(params)}" if params else f"/{level}"
        status, _, reply = self._request(
            "GET", path, {"Accept": "application/dicom+json"}
        )
        if status == 204 or not reply:
            return []
        try:
            payload = json.loads(reply)
        except ValueError as exc:
            raise ProtocolError(f"search response is not valid JSON: {exc}")
        if not isinstance(payload, list):
            raise ProtocolError("search response is not a JSON array")
        return [dataset_from_json(record) for record in payload]
