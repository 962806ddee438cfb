"""Stateful oracle for the stub archive and the web client.

Hypothesis drives one running `StubArchive` through one long-lived
`WebClient` with sequences of STOW, QIDO, WADO and restart calls, and
checks every answer against a model: a dict from (study, series, sop) to
the stored Part 10 bytes, in store order. A restart stops the archive and
starts a new one on the same snapshot directory and the same port, so the
client's next call meets whatever the old archive left behind.
"""
import shutil
import tempfile
from pathlib import Path

from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from conftest import make_ct_source
from dicomforge.errors import NotFoundError, PartialStoreError, TransportError
from dicomforge.part10 import file_meta_for, read_part10, write_part10
from dicomforge.web import StubArchive, WebClient
from dicomforge.web.client import SEARCH_LEVELS

STUDIES = ("2.25.1", "2.25.2")
SERIES = ("2.25.7", "2.25.8", "2.25.9")  # a series UID may recur under both studies
PATIENTS = ("P1", "P2")
MODALITIES = ("CT", "MR")
MISSING = "2.25.404"  # never stored
MAX_BODY = 16384  # a STOW body limit well above every batch but the oversized one
FILTERS = (None, "StudyInstanceUID", "SeriesInstanceUID", "SOPInstanceUID", "Modality")

# attributes compared per search level; each record shows the first stored
# instance of its study or series
RECORD_ATTRS = {
    "studies": ("StudyInstanceUID", "PatientID"),
    "series": ("StudyInstanceUID", "PatientID", "SeriesInstanceUID", "Modality"),
    "instances": ("StudyInstanceUID", "PatientID", "SeriesInstanceUID", "Modality",
                  "SOPInstanceUID"),
}


def encode(ds) -> bytes:
    return write_part10(file_meta_for(ds), ds)


class ArchiveMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.directory = Path(tempfile.mkdtemp(prefix="archive-oracle-"))
        self.archive = StubArchive(snapshot_dir=self.directory,
                                   max_body_bytes=MAX_BODY).start()
        self.client = WebClient(self.archive.base_url, timeout=10)
        self.model: dict[tuple[str, str, str], bytes] = {}
        self.sops = 0

    def teardown(self):
        self.archive.stop()
        shutil.rmtree(self.directory, ignore_errors=True)

    # -- helpers ---------------------------------------------------------------

    def fresh_sop(self) -> str:
        """A SOP instance UID no instance has had: a snapshot file is named
        by its SOP UID alone, so two keys never share one."""
        self.sops += 1
        return f"2.25.100{self.sops}"

    def instance(self, key, patient, modality):
        ds = make_ct_source(study_uid=key[0], series_uid=key[1], sop_uid=key[2],
                            patient_id=patient)
        ds.put("Modality", modality)
        return ds

    def draw_good(self, data, replace: bool):
        """A valid instance: a new key, or a stored key with new contents."""
        if replace:
            key = data.draw(st.sampled_from(sorted(self.model)))
        else:
            key = (data.draw(st.sampled_from(STUDIES)), data.draw(st.sampled_from(SERIES)),
                   self.fresh_sop())
        return self.instance(key, data.draw(st.sampled_from(PATIENTS)),
                             data.draw(st.sampled_from(MODALITIES)))

    def draw_bad(self, data) -> tuple[bytes, str]:
        """A part the archive must reject, with the SOP UID it reports for it:
        a UID that cannot name a snapshot file, or a cut-off stream."""
        sop = self.fresh_sop()
        ds = make_ct_source(study_uid="../escaped", series_uid=SERIES[0], sop_uid=sop)
        if data.draw(st.booleans()):
            return encode(ds), sop
        return encode(ds)[:-3], ""

    def stored(self, datasets) -> None:
        for ds in datasets:
            key = tuple(ds.value(k) for k in
                        ("StudyInstanceUID", "SeriesInstanceUID", "SOPInstanceUID"))
            self.model[key] = encode(ds)  # a replaced key keeps its place

    def snapshot_files(self) -> dict[str, int]:
        return {p.name: p.stat().st_mtime_ns for p in self.directory.iterdir()}

    # -- STOW ------------------------------------------------------------------

    @rule(data=st.data())
    def store_new(self, data):
        ds = self.draw_good(data, replace=False)
        [ref] = self.client.store_instances([ds])
        assert ref.sop_instance_uid == ds.value("SOPInstanceUID")
        self.stored([ds])

    @precondition(lambda self: self.model)
    @rule(data=st.data())
    def store_replacement(self, data):
        ds = self.draw_good(data, replace=True)
        [ref] = self.client.store_instances([ds])
        assert ref.sop_instance_uid == ds.value("SOPInstanceUID")
        self.stored([ds])

    @rule(data=st.data(), count=st.integers(1, 2))
    def store_batch_with_one_bad_part(self, data, count):
        good = [self.draw_good(data, replace=bool(self.model) and data.draw(st.booleans()))
                for _ in range(count)]
        bad, bad_sop = self.draw_bad(data)
        parts = [encode(ds) for ds in good]
        parts.insert(data.draw(st.integers(0, count)), bad)
        if bad_sop:  # both halves of the answer through the typed call too
            try:
                self.client.store_instances([*good, make_ct_source(
                    study_uid="../escaped", series_uid=SERIES[0], sop_uid=bad_sop)])
            except PartialStoreError as exc:
                assert exc.status == 202
                assert exc.failed_sop_instance_uids == [bad_sop]
            else:
                raise AssertionError("a batch with a bad part stored without error")
        response = self.client.store_parts(parts)
        assert [item.value("ReferencedSOPInstanceUID", "")
                for item in response.items_of("FailedSOPSequence")] == [bad_sop]
        assert [item.value("ReferencedSOPInstanceUID")
                for item in response.items_of("ReferencedSOPSequence")] == [
            ds.value("SOPInstanceUID") for ds in good]
        self.stored(good)

    @rule(data=st.data(), count=st.integers(1, 2))
    def store_only_bad_parts(self, data, count):
        bad = [self.draw_bad(data) for _ in range(count)]
        try:
            self.client.store_parts([blob for blob, _ in bad])
        except PartialStoreError as exc:
            assert exc.status == 409
            assert exc.failed_sop_instance_uids == [sop for _, sop in bad]
        else:
            raise AssertionError("a batch of bad parts stored without error")

    @rule(data=st.data())
    def store_oversized_batch(self, data):
        """A body over the limit is refused whole, its valid parts too."""
        good = self.draw_good(data, replace=bool(self.model) and data.draw(st.booleans()))
        try:
            self.client.store_parts([encode(good), b"\0" * MAX_BODY])
        except TransportError as exc:
            assert exc.status == 413
        else:
            raise AssertionError("a body over the limit was stored")

    # -- QIDO ------------------------------------------------------------------

    @rule(data=st.data(), level=st.sampled_from(SEARCH_LEVELS),
          attribute=st.sampled_from(FILTERS),
          offset=st.none() | st.integers(0, 4), limit=st.none() | st.integers(0, 4))
    def search(self, data, level, attribute, offset, limit):
        query = {}
        if attribute == "Modality":
            query[attribute] = data.draw(st.sampled_from(MODALITIES + ("SEG",)))
        elif attribute is not None:
            depth = FILTERS.index(attribute) - 1
            known = sorted({key[depth] for key in self.model})
            pool = (STUDIES, SERIES, ())[depth] + tuple(known) + (MISSING,)
            query[attribute] = data.draw(st.sampled_from(pool))
        depth = SEARCH_LEVELS.index(level) + 1
        expected, seen = [], set()
        for key, blob in self.model.items():
            _, ds = read_part10(blob)
            if any(ds.value(k) != value for k, value in query.items()):
                continue
            if key[:depth] not in seen:
                seen.add(key[:depth])
                expected.append(tuple(ds.value(k) for k in RECORD_ATTRS[level]))
        expected = expected[offset or 0:]
        if limit is not None:
            expected = expected[:limit]
        records = self.client.search(level, query, limit=limit, offset=offset)
        assert [tuple(r.value(k) for k in RECORD_ATTRS[level]) for r in records] == expected

    # -- WADO ------------------------------------------------------------------

    @precondition(lambda self: self.model)
    @rule(data=st.data())
    def retrieve_stored(self, data):
        key = data.draw(st.sampled_from(sorted(self.model)))
        assert self.client.retrieve_instance_bytes(*key) == self.model[key]

    @rule(data=st.data())
    def retrieve_missing(self, data):
        keys = [(STUDIES[0], SERIES[0], MISSING)]
        keys += [(study, MISSING, sop) for study, _, sop in self.model]
        key = data.draw(st.sampled_from(keys))
        try:
            self.client.retrieve_instance_bytes(*key)
        except NotFoundError:
            pass
        else:
            raise AssertionError(f"{key} was found but never stored")

    # -- lifecycle ---------------------------------------------------------------

    @rule()
    def restart(self):
        before = self.snapshot_files()
        port = self.archive.port
        self.archive.stop()
        self.archive = StubArchive(port=port, snapshot_dir=self.directory,
                                   max_body_bytes=MAX_BODY).start()
        assert self.snapshot_files() == before
        # a restart indexes the snapshot files in file-name order
        self.model = dict(sorted(self.model.items(), key=lambda item: f"{item[0][2]}.dcm"))

    # -- invariants --------------------------------------------------------------

    @invariant()
    def archive_holds_the_model(self):
        assert len(self.archive) == len(self.model)
        assert set(self.snapshot_files()) == {f"{sop}.dcm" for _, _, sop in self.model}


ArchiveMachine.TestCase.settings = settings(
    max_examples=15, stateful_step_count=25, deadline=None,
)
TestArchiveOracle = ArchiveMachine.TestCase
