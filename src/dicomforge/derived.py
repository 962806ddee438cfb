"""Helpers shared by all derived-object constructors (SEG and SR).

Derived objects never ask the caller for patient/study context: it is
copied verbatim from the source instances supplied as evidence, and the
sources are recorded in reference sequences grouped by study and series.

This module owns the attributes every derived instance shares:
:func:`derived_instance` writes the identity header of a new SEG or SR
(SOP class and instance, the patient/study copy, modality, series,
instance number, manufacturer). It also owns the SOP reference formats:
:func:`sop_reference` builds every SOP reference item (SEG and SR
references, STOW responses), :func:`reference_sequence` every study/series
hierarchy (SR evidence and predecessors, the SEG root
ReferencedSeriesSequence), and :func:`read_references` reads each
hierarchy back.
"""
from __future__ import annotations

import datetime
from typing import NamedTuple

from .dataset import DataSet, copy_attributes
from .errors import EvidenceError
from .uid import new_uid

# Patient/study (and specimen, when present) attributes copied verbatim
# from evidence into every derived object.
PATIENT_STUDY_KEYS = (
    "PatientName",
    "PatientID",
    "PatientBirthDate",
    "PatientSex",
    "StudyInstanceUID",
    "StudyID",
    "StudyDate",
    "StudyTime",
    "AccessionNumber",
    "ReferringPhysicianName",
    "SpecimenDescriptionSequence",
    "ContainerIdentifier",
)


class EvidenceReference(NamedTuple):
    """(study, series, SOP class, SOP instance) UIDs of one instance."""

    study_instance_uid: str
    series_instance_uid: str
    sop_class_uid: str
    sop_instance_uid: str


def check_evidence(evidence) -> list[DataSet]:
    """Common preconditions: non-empty, identified, single study."""
    evidence = list(evidence)
    if not evidence:
        raise EvidenceError("at least one evidence instance is required")
    studies = set()
    for ds in evidence:
        study = ds.value("StudyInstanceUID")
        if not study:
            raise EvidenceError("evidence instance lacks a StudyInstanceUID")
        if not ds.value("SOPInstanceUID") or not ds.value("SOPClassUID"):
            raise EvidenceError("evidence instance lacks SOP class/instance UIDs")
        studies.add(study)
    if len(studies) > 1:
        raise EvidenceError(
            f"evidence spans {len(studies)} studies; a derived object "
            "references exactly one"
        )
    return evidence


def derived_instance(source: DataSet, sop_class_uid: str, modality: str, *,
                     sop_instance_uid: str | None, series_instance_uid: str | None,
                     series_number: int, instance_number: int, manufacturer: str,
                     series_description: str | None) -> DataSet:
    """A new data set holding the header every derived instance shares, with
    the patient/study attributes of `source`; UIDs not given are generated."""
    ds = DataSet()
    ds.put("SpecificCharacterSet", "ISO_IR 192")
    ds.put("SOPClassUID", sop_class_uid)
    ds.put("SOPInstanceUID", sop_instance_uid or new_uid())
    copy_attributes(source, ds, PATIENT_STUDY_KEYS)
    ds.put("Modality", modality)
    ds.put("SeriesInstanceUID", series_instance_uid or new_uid())
    ds.put("SeriesNumber", series_number)
    ds.put("InstanceNumber", instance_number)
    ds.put("Manufacturer", manufacturer)
    if series_description:
        ds.put("SeriesDescription", series_description)
    return ds


def instance_reference(ds: DataSet) -> EvidenceReference:
    """The reference to the instance `ds`."""
    return EvidenceReference(
        ds.value("StudyInstanceUID"),
        ds.value("SeriesInstanceUID", ""),
        ds.value("SOPClassUID"),
        ds.value("SOPInstanceUID"),
    )


def sop_reference(sop_class_uid, sop_instance_uid, **attributes) -> DataSet:
    """One SOP reference item, plus further attributes by keyword (frame or
    segment numbers, a purpose of reference, a retrieve URL). Attributes
    valued None, the UIDs included, are left out."""
    attributes.update(ReferencedSOPClassUID=sop_class_uid,
                      ReferencedSOPInstanceUID=sop_instance_uid)
    return DataSet.of(**{k: v for k, v in attributes.items() if v is not None})


def reference_sequence(references, sop_sequence: str = "ReferencedSOPSequence",
                       by_study: bool = True) -> tuple[DataSet, ...]:
    """Items of a study/series hierarchy over (study, series, SOP class, SOP
    instance) references, grouped by study and series in first-seen order.

    Each series item lists its SOP references under `sop_sequence`. With
    `by_study` the items are study items (SR evidence and predecessors);
    without, the series items alone (the SEG root ReferencedSeriesSequence).
    """
    tree: dict[str, dict[str, list[DataSet]]] = {}
    for study, series, sop_class, sop_instance in references:
        tree.setdefault(study, {}).setdefault(series, []).append(
            sop_reference(sop_class, sop_instance))
    studies = tuple(
        DataSet.of(StudyInstanceUID=study, ReferencedSeriesSequence=tuple(
            DataSet.of(SeriesInstanceUID=series, **{sop_sequence: tuple(refs)})
            for series, refs in by_series.items()
        ))
        for study, by_series in tree.items()
    )
    if by_study:
        return studies
    return tuple(item for study in studies for item in study.items_of("ReferencedSeriesSequence"))


def read_references(items, sop_sequence: str = "ReferencedSOPSequence",
                    by_study: bool = True) -> tuple[EvidenceReference, ...]:
    """Inverse of :func:`reference_sequence`, in document order. Absent UIDs
    read as ""; so does the study without `by_study`."""
    if not by_study:
        items = (DataSet.of(ReferencedSeriesSequence=tuple(items)),)
    return tuple(
        EvidenceReference(
            study.value("StudyInstanceUID", ""),
            series.value("SeriesInstanceUID", ""),
            sop.value("ReferencedSOPClassUID", ""),
            sop.value("ReferencedSOPInstanceUID", ""),
        )
        for study in items
        for series in study.items_of("ReferencedSeriesSequence")
        for sop in series.items_of(sop_sequence)
    )


def content_timestamp(target: DataSet) -> None:
    now = datetime.datetime.now()
    target.put("ContentDate", now.strftime("%Y%m%d"))
    target.put("ContentTime", now.strftime("%H%M%S"))
