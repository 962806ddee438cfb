"""DICOMweb client: STOW-RS store, WADO-RS retrieve, QIDO-RS search."""
from __future__ import annotations

from typing import NamedTuple, Sequence
from urllib.parse import urlparse

import requests

from ..dataset import DataSet
from ..errors import (
    NotFoundError,
    PartialStoreError,
    ProtocolError,
    TransportError,
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


def _status_error(method: str, url: str, response: requests.Response) -> TransportError:
    return TransportError(
        f"{method} {url} returned {response.status_code}: {response.text[:200]}",
        status=response.status_code,
    )


def _failed_uids(response_ds: DataSet) -> list[str]:
    """The SOP instance UID of each FailedSOPSequence item ("" if absent)."""
    return [
        item.value("ReferencedSOPInstanceUID", "")
        for item in response_ds.items_of("FailedSOPSequence")
    ]


class WebClient:
    """Thin HTTP client for one DICOMweb origin.

    Safe for concurrent requests from multiple threads; each call is an
    isolated request/response exchange.
    """

    def __init__(
        self,
        base_url: str,
        token: str | None = None,
        basic: tuple[str, str] | None = None,
        timeout: float = 30.0,
    ):
        parsed = urlparse(base_url)
        if parsed.scheme not in ("http", "https") or not parsed.netloc:
            raise ValueError(f"base URL must be absolute http(s), got {base_url!r}")
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        self._token = token
        self._basic = basic

    def _headers(self, **extra: str) -> dict[str, str]:
        # Each request opens its own connection and closes it after the
        # response, so it asks the server to close too (RFC 9112 §9.3): the
        # server's handler then ends with the response instead of waiting
        # for a next request that never comes.
        headers = {"Connection": "close", **extra}
        if self._token:
            headers["Authorization"] = f"Bearer {self._token}"
        return headers

    def _request(self, method: str, url: str, allow: tuple[int, ...] = (),
                 **kwargs) -> requests.Response:
        """Send one request; statuses >= 400 raise unless listed in `allow`."""
        try:
            response = requests.request(
                method, url, timeout=self.timeout, auth=self._basic, **kwargs
            )
        except requests.RequestException as exc:
            raise TransportError(f"{method} {url} failed: {exc}") from exc
        if response.status_code == 404:
            raise NotFoundError(f"{url} not found")
        if response.status_code >= 400 and response.status_code not in allow:
            raise _status_error(method, url, response)
        return response

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
        """
        boundary = random_boundary()
        body = build_multipart(list(parts), boundary)
        url = f"{self.base_url}/studies"
        response = self._request(
            "POST",
            url,
            allow=(409,),
            data=body,
            headers=self._headers(**{
                "Content-Type": content_type_header(boundary),
                "Accept": "application/dicom+json",
            }),
        )
        if response.status_code == 409:
            try:
                failed = _failed_uids(dataset_from_json(response.json()))
            except (ValueError, ProtocolError):
                failed = []
            if not failed:  # not a store response: a plain HTTP error
                raise _status_error("POST", url, response)
            raise PartialStoreError(failed, status=409)
        try:
            return dataset_from_json(response.json())
        except ValueError as exc:
            raise ProtocolError(f"store response is not valid JSON: {exc}")

    # -- WADO-RS -----------------------------------------------------------

    def retrieve_instance_bytes(self, study: str, series: str, sop: str) -> bytes:
        """The stored Part 10 stream, byte-for-byte."""
        url = f"{self.base_url}/studies/{study}/series/{series}/instances/{sop}"
        response = self._request(
            "GET", url,
            headers=self._headers(
                Accept='multipart/related; type="application/dicom"'
            ),
        )
        boundary = boundary_from_content_type(
            response.headers.get("Content-Type", "")
        )
        parts = parse_multipart(response.content, boundary)
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
            raise ValueError(f"level must be one of {SEARCH_LEVELS}, got {level!r}")
        params = {}
        for key, value in (query or {}).items():
            resolve_key(key)  # validates keyword/tag form early
            params[key] = str(value)
        if limit is not None:
            params["limit"] = str(limit)
        if offset is not None:
            params["offset"] = str(offset)
        response = self._request(
            "GET",
            f"{self.base_url}/{level}",
            params=params,
            headers=self._headers(Accept="application/dicom+json"),
        )
        if response.status_code == 204 or not response.content:
            return []
        try:
            payload = response.json()
        except ValueError as exc:
            raise ProtocolError(f"search response is not valid JSON: {exc}")
        return [dataset_from_json(record) for record in payload]
