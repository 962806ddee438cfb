"""DICOMweb loop tests against the in-repo stub archive."""
import socket
import threading

import numpy as np
import pytest

from conftest import make_ct_series, make_ct_source
from dicomforge.coding import SCT
from dicomforge.errors import (
    NotFoundError,
    PartialStoreError,
    ProtocolError,
    TransportError,
)
from dicomforge.dataset import DataElement, DataSet
from dicomforge.part10 import file_meta_for, write_part10
from dicomforge.seg import SegmentationType, SegmentDescription, create_seg
from dicomforge.sr.items import AlgorithmIdentification
from dicomforge.tags import Tag
from dicomforge.valuerep import VR
from dicomforge.web import StubArchive, WebClient
from dicomforge.web.multipart import (
    build_multipart,
    parse_multipart,
    random_boundary,
)


@pytest.fixture
def archive():
    with StubArchive() as server:
        yield server


@pytest.fixture
def client(archive):
    return WebClient(archive.base_url, timeout=10)


def make_seg(series=None):
    series = series or make_ct_series(2)
    return create_seg(
        series,
        [np.ones((2, 16, 16), np.uint8)],
        [SegmentDescription(
            number=1, label="nodule",
            category=SCT.MorphologicallyAbnormalStructure,
            property_type=SCT.Nodule,
            algorithm=AlgorithmIdentification("segnet", "1"),
        )],
        SegmentationType.binary(),
    )


class TestMultipart:
    def test_round_trip(self):
        boundary = random_boundary()
        parts = [b"\x00\x01\x02", b"DICM" * 10, b""]
        body = build_multipart(parts, boundary)
        parsed = parse_multipart(body, boundary)
        assert [content for _, content in parsed] == parts
        assert parsed[0][0]["content-type"] == "application/dicom"

    def test_malformed_rejected(self):
        with pytest.raises(ProtocolError):
            parse_multipart(b"not multipart at all", "abc123")


class TestStoreRetrieve:
    def test_store_then_retrieve_byte_identical(self, client):
        seg = make_seg()
        blob = write_part10(file_meta_for(seg), seg)
        [ref] = client.store_instances([seg])
        assert ref.sop_instance_uid == seg.value("SOPInstanceUID")
        retrieved = client.retrieve_instance_bytes(
            ref.study_instance_uid, ref.series_instance_uid, ref.sop_instance_uid
        )
        assert retrieved == blob

    def test_retrieve_parses_dataset(self, client):
        seg = make_seg()
        [ref] = client.store_instances([seg])
        ds = client.retrieve_instance(*ref[:3])
        assert ds == seg

    def test_store_empty_list_rejected(self, client):
        with pytest.raises(ValueError):
            client.store_instances([])

    def test_store_across_studies(self, client):
        a = make_ct_source()
        b = make_ct_source()
        c = make_ct_source(study_uid=b.value("StudyInstanceUID"))
        refs = client.store_instances([a, b, c])
        assert len(refs) == 3
        assert len({r.study_instance_uid for r in refs}) == 2

    def test_unknown_sop_is_not_found(self, client):
        seg = make_seg()
        [ref] = client.store_instances([seg])
        with pytest.raises(NotFoundError):
            client.retrieve_instance(ref.study_instance_uid,
                                     ref.series_instance_uid, "1.2.3")

    def test_wrong_series_is_not_found(self, client):
        seg = make_seg()
        [ref] = client.store_instances([seg])
        with pytest.raises(NotFoundError):
            client.retrieve_instance(ref.study_instance_uid, "1.2.3",
                                     ref.sop_instance_uid)

    def test_partial_store_reports_failed_uids(self, client, archive):
        good = make_ct_source()
        bad = DataSet()
        bad.put("SOPClassUID", "1.2.840.10008.5.1.4.1.1.2")
        bad.put("SOPInstanceUID", "1.2.900")
        # no study/series: stub rejects this instance
        good_blob = write_part10(file_meta_for(good), good)
        bad_blob = write_part10(file_meta_for(bad), bad)
        response = client.store_parts([good_blob, bad_blob])
        [failed] = response.items_of("FailedSOPSequence")
        assert failed.value("ReferencedSOPClassUID") == "1.2.840.10008.5.1.4.1.1.2"
        assert failed.value("ReferencedSOPInstanceUID") == "1.2.900"
        with pytest.raises(PartialStoreError) as excinfo:
            client.store_instances([good, bad])
        assert excinfo.value.failed_sop_instance_uids == ["1.2.900"]
        assert len(archive) >= 1

    def test_non_text_study_uid_rejected_with_uids(self, client, archive):
        good, bad = make_ct_source(), make_ct_source()
        bad.add(DataElement(Tag(0x0020, 0x000D), VR.OB, b"1.2.3\x00"))
        response = client.store_parts(
            [write_part10(file_meta_for(ds), ds) for ds in (good, bad)]
        )
        [failed] = response.items_of("FailedSOPSequence")
        assert failed.value("FailureReason") == 272
        assert failed.value("ReferencedSOPInstanceUID") == bad.value("SOPInstanceUID")
        assert len(archive) == 1

    def test_undecodable_part_fails_without_uids(self, client, archive):
        good, cut = make_ct_source(), make_ct_source()
        good_blob = write_part10(file_meta_for(good), good)
        cut_blob = write_part10(file_meta_for(cut), cut)[:-3]
        response = client.store_parts([good_blob, cut_blob])
        [failed] = response.items_of("FailedSOPSequence")
        assert failed.value("FailureReason") == 272
        assert "ReferencedSOPInstanceUID" not in failed

    @pytest.mark.parametrize("length", ["abc", "-5", "1_0", ""])
    def test_bad_content_length_answers_400(self, archive, length):
        request = (
            "POST /studies HTTP/1.1\r\n"
            f"Host: 127.0.0.1:{archive.port}\r\n"
            "Content-Type: multipart/related; type=\"application/dicom\"; boundary=b\r\n"
            f"Content-Length: {length}\r\n\r\n"
        ).encode("ascii")
        with socket.create_connection(("127.0.0.1", archive.port), timeout=10) as sock:
            sock.sendall(request)
            reply = b""
            while chunk := sock.recv(4096):
                reply += chunk
        status_line, _, rest = reply.partition(b"\r\n")
        assert status_line == b"HTTP/1.1 400 Bad Request"
        assert b"Content-Length" in rest

    def test_restore_replaces_not_duplicates(self, client, archive):
        seg = make_seg()
        client.store_instances([seg])
        client.store_instances([seg])
        assert len(archive) == 1

    def test_unknown_path_404(self, client, archive):
        import requests
        response = requests.get(f"{archive.base_url}/nope", timeout=5)
        assert response.status_code == 404

    def test_http_error_raises_transport_error(self, client, archive):
        import requests
        # search with unsupported attribute -> 400 from the stub
        with pytest.raises(TransportError) as excinfo:
            client.search("instances", {"PatientName": "x"})
        assert excinfo.value.status == 400


class TestSearch:
    def test_modality_filter(self, client):
        series = make_ct_series(2)
        seg = make_seg(series)
        client.store_instances([*series, seg])
        records = client.search("instances", {"Modality": "SEG"})
        assert len(records) == 1
        assert records[0].value("SOPInstanceUID") == seg.value("SOPInstanceUID")

    def test_empty_store_empty_list(self, client):
        assert client.search("instances", {"Modality": "SEG"}) == []

    def test_limit_and_offset(self, client):
        sources = make_ct_series(3)
        client.store_instances(sources)
        assert len(client.search("instances", {"Modality": "CT"}, limit=1)) == 1
        rest = client.search("instances", {"Modality": "CT"}, offset=1)
        assert len(rest) == 2

    def test_study_level_dedup(self, client):
        sources = make_ct_series(3)
        client.store_instances(sources)
        assert len(client.search("studies")) == 1
        assert len(client.search("series")) == 1
        assert len(client.search("instances")) == 3

    def test_search_by_patient_id(self, client):
        client.store_instances([make_ct_source(patient_id="A"),
                                make_ct_source(patient_id="B")])
        records = client.search("studies", {"PatientID": "A"})
        assert len(records) == 1
        assert records[0].value("PatientID") == "A"

    def test_hex_tag_query_keys(self, client):
        series = make_ct_series(2)
        seg = make_seg(series)
        client.store_instances([*series, seg])
        records = client.search("instances", {"00080060": "SEG"})
        assert len(records) == 1

    def test_search_consistency(self, client):
        series = make_ct_series(2)
        seg = make_seg(series)
        client.store_instances([*series, seg])
        ct_records = client.search("instances", {"Modality": "CT"})
        seg_records = client.search("instances", {"Modality": "SEG"})
        assert {r.value("SOPInstanceUID") for r in ct_records} == {
            s.value("SOPInstanceUID") for s in series
        }
        assert {r.value("SOPInstanceUID") for r in seg_records} == {
            seg.value("SOPInstanceUID")
        }


class TestConcurrency:
    def test_concurrent_store_all_retrievable(self, archive):
        client = WebClient(archive.base_url, timeout=10)
        sources = [make_ct_source() for _ in range(10)]
        errors = []

        def store(ds):
            try:
                client.store_instances([ds])
            except Exception as exc:  # noqa: BLE001 - collected for assertion
                errors.append(exc)

        threads = [threading.Thread(target=store, args=(ds,)) for ds in sources]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert len(archive) == 10
        for ds in sources:
            out = client.retrieve_instance(
                ds.value("StudyInstanceUID"),
                ds.value("SeriesInstanceUID"),
                ds.value("SOPInstanceUID"),
            )
            assert out == ds


class TestLifecycle:
    def test_snapshot_reload(self, tmp_path):
        source = make_ct_source()
        with StubArchive(snapshot_dir=tmp_path) as server:
            client = WebClient(server.base_url, timeout=10)
            client.store_instances([source])
        with StubArchive(snapshot_dir=tmp_path) as server:
            client = WebClient(server.base_url, timeout=10)
            out = client.retrieve_instance(
                source.value("StudyInstanceUID"),
                source.value("SeriesInstanceUID"),
                source.value("SOPInstanceUID"),
            )
            assert out == source

    @pytest.mark.parametrize("field", ["study_uid", "series_uid", "sop_uid"])
    def test_crafted_uid_rejected_not_written_outside_snapshot(self, tmp_path, field):
        snapshot = tmp_path / "snapshot"
        good = make_ct_source()
        bad = make_ct_source(**{field: "../escaped"})
        with StubArchive(snapshot_dir=snapshot) as server:
            client = WebClient(server.base_url, timeout=10)
            response = client.store_parts(
                [write_part10(file_meta_for(ds), ds) for ds in (good, bad)]
            )
            assert len(server) == 1
        [failed] = response.items_of("FailedSOPSequence")
        assert failed.value("FailureReason") == 272
        [stored] = response.items_of("ReferencedSOPSequence")
        assert stored.value("ReferencedSOPInstanceUID") == good.value("SOPInstanceUID")
        assert {p.name for p in tmp_path.rglob("*")} == {
            "snapshot", f"{good.value('SOPInstanceUID')}.dcm"
        }

    def test_bad_base_url_rejected(self):
        with pytest.raises(ValueError):
            WebClient("ftp://example.org")

    def test_bind_failure(self, archive):
        from dicomforge.errors import ServerStartupError
        with pytest.raises(ServerStartupError):
            StubArchive(port=archive.port).start()
