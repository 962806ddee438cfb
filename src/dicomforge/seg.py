"""Segmentation images: creation, parsing, and pixel reconstruction.

A created SEG is a multi-frame object holding one stack of mask frames per
segment. Binary segments are bit-packed least-significant-bit first in
row-major pixel order, all frames concatenated before the final byte-align
padding; fractional segments store one byte per pixel, quantized to
0..max_fractional_value (round half up).

Frames are emitted segment-major (all frames of segment 1 in source order,
then segment 2, ...). With `omit_empty`, all-zero frames are skipped; they
are reconstituted as zero arrays on read because the full source list is
recorded at the root, so omitted frames stay distinguishable from frames
of unknown instances.

Mask stacks may be boolean, integer or floating-point arrays. Each stack
is reduced once per frame in its own dtype, and both the value check and
the empty-frame scan come from that pass, so no float64 copy of the masks
is made; only the kept frames are copied, once, as one stored value per
pixel before packing. On read, frames are unpacked on demand, one at a
time: a binary frame is sliced from the pixel data by its bit offset,
which need not fall on a byte boundary. Labels are read by one loop,
:meth:`Segmentation.label_volume`, for one source frame or many: it
writes each selected segment's stored frames, in ascending segment order
and by an element-wise maximum, into a volume of the smallest unsigned
dtype that holds the largest described segment number, so the highest
number wins where segments overlap.

Each functional group and segment item has one owner that writes and
reads it: a :class:`SegmentDescription` writes and reads its
SegmentSequence item, a source :class:`FrameRecord` writes the per-frame
group of each SEG frame stored for it and a SEG one parses its own (the
items that repeat between frames, a segment's identification and a
source frame's derivation and position, are one object each within a
SEG, so the encoder writes each once and copies its bytes), each
plane-position class its own position item (:func:`plane_position` reads
either kind), and :func:`shared_geometry` reads the shared group of a SEG
or a source. SOP references go through :mod:`dicomforge.derived`.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import ClassVar, Sequence

import numpy as np

from .coding import DCM, CodedConcept, concept_from_items, concept_to_items
from .dataset import DataSet
from .derived import (
    check_evidence,
    content_timestamp,
    derived_instance,
    instance_reference,
    read_references,
    reference_sequence,
    sop_reference,
)
from .errors import (
    GeometryMismatchError,
    MalformedSegError,
    MaskShapeError,
    MaskValueError,
    SegmentNumberingError,
    UnmappedFrameError,
    UsageError,
    WrongSopClassError,
)
from .spatial import PlaneGeometry
from .sr.items import AlgorithmIdentification, TrackingIdentifier
from .tags import KEYWORD_TO_TAG
from .uid import SEGMENTATION_STORAGE, is_valid_uid, new_uid


class FractionalKind(str, enum.Enum):
    PROBABILITY = "PROBABILITY"
    OCCUPANCY = "OCCUPANCY"


@dataclass(frozen=True)
class SegmentationType:
    """BINARY, or FRACTIONAL with a kind and a maximum stored value."""

    kind: str
    fractional_kind: FractionalKind | None = None
    max_fractional_value: int | None = None

    def __post_init__(self):
        if self.kind not in ("BINARY", "FRACTIONAL"):
            raise UsageError("segmentation type is BINARY or FRACTIONAL")
        if self.kind == "FRACTIONAL":
            if self.fractional_kind is None:
                raise UsageError("fractional segmentations need a fractional kind")
            if not 1 <= (self.max_fractional_value or 0) <= 255:
                raise UsageError("max fractional value must be within 1..255")
        elif self.fractional_kind is not None or self.max_fractional_value is not None:
            raise UsageError("BINARY segmentations carry no fractional fields")

    @classmethod
    def binary(cls) -> "SegmentationType":
        return cls("BINARY")

    @classmethod
    def fractional(
        cls,
        fractional_kind: FractionalKind | str = FractionalKind.PROBABILITY,
        max_fractional_value: int = 255,
    ) -> "SegmentationType":
        return cls("FRACTIONAL", FractionalKind(fractional_kind),
                   int(max_fractional_value))

    @property
    def is_binary(self) -> bool:
        return self.kind == "BINARY"


class AlgorithmType(str, enum.Enum):
    AUTOMATIC = "AUTOMATIC"
    SEMIAUTOMATIC = "SEMIAUTOMATIC"
    MANUAL = "MANUAL"


@dataclass(frozen=True)
class SegmentDescription:
    """Identity and meaning of one segment."""

    number: int
    label: str
    category: CodedConcept
    property_type: CodedConcept
    algorithm_type: AlgorithmType = AlgorithmType.AUTOMATIC
    algorithm: AlgorithmIdentification | None = None
    anatomic_site: CodedConcept | None = None
    tracking: TrackingIdentifier | None = None

    def __post_init__(self):
        object.__setattr__(self, "algorithm_type", AlgorithmType(self.algorithm_type))
        if self.number < 1:
            raise SegmentNumberingError("segment numbers start at 1")
        if self.algorithm_type is not AlgorithmType.MANUAL and self.algorithm is None:
            raise ValueError(
                f"{self.algorithm_type.value} segments need an algorithm identification"
            )

    def to_item(self) -> DataSet:
        """This segment's SegmentSequence item. Of the algorithm only the
        name is written, as SegmentAlgorithmName."""
        item = DataSet()
        item.put("SegmentNumber", self.number)
        item.put("SegmentLabel", self.label)
        item.put("SegmentAlgorithmType", self.algorithm_type.value)
        if self.algorithm is not None:
            item.put("SegmentAlgorithmName", self.algorithm.name)
        item.put("SegmentedPropertyCategoryCodeSequence", (concept_to_items(self.category),))
        item.put("SegmentedPropertyTypeCodeSequence", (concept_to_items(self.property_type),))
        if self.anatomic_site is not None:
            item.put("AnatomicRegionSequence", (concept_to_items(self.anatomic_site),))
        if self.tracking is not None:
            if self.tracking.identifier:
                item.put("TrackingID", self.tracking.identifier)
            item.put("TrackingUID", self.tracking.uid)
        return item

    @classmethod
    def from_item(cls, item: DataSet, index: int) -> "SegmentDescription":
        """Inverse of :meth:`to_item` for item `index` (from 0) of a
        SegmentSequence; an item without a SegmentNumber raises
        MalformedSegError. A missing category or property type reads as an
        "unknown" code, a missing algorithm type as MANUAL. Since a SEG
        keeps only the algorithm's name, its version reads as "unknown" and
        its parameters as ()."""
        number = item.value("SegmentNumber")
        if number is None:
            raise MalformedSegError(f"segment item {index + 1} lacks a SegmentNumber")
        name = item.value("SegmentAlgorithmName")
        uid = item.value("TrackingUID")
        category = item.items_of("SegmentedPropertyCategoryCodeSequence")
        property_type = item.items_of("SegmentedPropertyTypeCodeSequence")
        site = item.items_of("AnatomicRegionSequence")
        unknown = CodedConcept("unknown", "99UNKNOWN", "unknown")
        return cls(
            number=int(number),
            label=item.value("SegmentLabel", ""),
            category=concept_from_items(category[0]) if category else unknown,
            property_type=concept_from_items(property_type[0]) if property_type else unknown,
            algorithm_type=item.value("SegmentAlgorithmType", "MANUAL"),
            algorithm=AlgorithmIdentification(name, "unknown") if name else None,
            anatomic_site=concept_from_items(site[0]) if site else None,
            tracking=TrackingIdentifier(uid, item.value("TrackingID")) if uid else None,
        )


def _numbers(values) -> bool:
    """True when every one of `values` reads as a finite number."""
    try:
        return all(math.isfinite(float(v)) for v in values)
    except (TypeError, ValueError):
        return False


def _coordinates(values) -> tuple[str, str, str] | None:
    """`values` as the three DS strings of a position; None unless they are
    three finite numbers."""
    return tuple(values) if len(values) == 3 and _numbers(values) else None


@dataclass(frozen=True)
class PlanePositionPatient:
    """Patient-frame position of a frame's top-left pixel center (DS strings)."""

    # the per-frame functional group holding the position, and the attribute
    # that indexes frames by position in the dimension organization
    sequence: ClassVar[str] = "PlanePositionSequence"
    index_pointer: ClassVar[str] = "ImagePositionPatient"

    coordinates: tuple[str, str, str]

    @property
    def xyz(self) -> tuple[float, float, float]:
        return tuple(float(c) for c in self.coordinates)

    def to_item(self) -> DataSet:
        return DataSet.of(ImagePositionPatient=list(self.coordinates))

    @classmethod
    def from_item(cls, item: DataSet) -> "PlanePositionPatient | None":
        """The position in `item`; None unless it holds three numbers."""
        coordinates = _coordinates(item.values("ImagePositionPatient"))
        return None if coordinates is None else cls(coordinates)


@dataclass(frozen=True)
class PlanePositionSlide:
    """Slide-frame position: mm offsets plus total-pixel-matrix indices."""

    sequence: ClassVar[str] = "PlanePositionSlideSequence"
    index_pointer: ClassVar[str] = "XOffsetInSlideCoordinateSystem"

    coordinates: tuple[str, str, str]
    matrix_row: int
    matrix_column: int

    @property
    def xyz(self) -> tuple[float, float, float]:
        return tuple(float(c) for c in self.coordinates)

    def to_item(self) -> DataSet:
        x, y, z = self.coordinates
        return DataSet.of(
            XOffsetInSlideCoordinateSystem=x,
            YOffsetInSlideCoordinateSystem=y,
            ZOffsetInSlideCoordinateSystem=z,
            RowPositionInTotalImagePixelMatrix=self.matrix_row,
            ColumnPositionInTotalImagePixelMatrix=self.matrix_column,
        )

    @classmethod
    def from_item(cls, item: DataSet) -> "PlanePositionSlide | None":
        """The position in `item`, absent offsets read as 0; None unless
        the offsets are numbers."""
        coordinates = _coordinates([
            item.value(f"{axis}OffsetInSlideCoordinateSystem", "0") for axis in "XYZ"
        ])
        if coordinates is None:
            return None
        return cls(
            coordinates=coordinates,
            matrix_row=int(item.value("RowPositionInTotalImagePixelMatrix", 1)),
            matrix_column=int(item.value("ColumnPositionInTotalImagePixelMatrix", 1)),
        )


def plane_position(group: DataSet) -> PlanePositionPatient | PlanePositionSlide | None:
    """The plane position in a per-frame functional group, of either kind;
    None for a group with neither or with a position that is not three
    numbers."""
    for kind in (PlanePositionSlide, PlanePositionPatient):
        items = group.items_of(kind.sequence)
        if items:
            return kind.from_item(items[0])
    return None


def shared_geometry(ds: DataSet) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """(orientation, pixel spacing) DS strings from the shared functional
    group; without a plane orientation there, the root ImageOrientationSlide
    (slide-based images)."""
    shared = ds.items_of("SharedFunctionalGroupsSequence")
    group = shared[0] if shared else DataSet()
    measures = group.items_of("PixelMeasuresSequence")
    plane = group.items_of("PlaneOrientationSequence")
    spacing = measures[0].values("PixelSpacing") if measures else ()
    orientation = plane[0].values("ImageOrientationPatient") if plane else ()
    return orientation or ds.values("ImageOrientationSlide"), spacing


@dataclass(frozen=True)
class FrameRecord:
    """One frame of a source image or of a SEG.

    A SEG frame records its segment and the source frame it was derived
    from; a source frame, not yet assigned a segment, has segment number 0.
    `index` counts from 0 within the image.
    """

    index: int
    segment_number: int
    source_sop_class_uid: str
    source_sop_instance_uid: str
    source_frame_number: int
    position: PlanePositionPatient | PlanePositionSlide

    def to_group(self, segment_number: int, frame_number: bool, repeated: dict) -> DataSet:
        """The per-frame functional group of the SEG frame that segment
        `segment_number` stores for this source frame; `frame_number`
        references the source frame by number (multi-frame sources).

        `repeated` holds the items that repeat between the frames of one
        SEG, each built on first use: a segment's identification item,
        keyed by its number, and a source frame's derivation and
        plane-position items. Only the frame content item is the frame's
        own.
        """
        source = (self.source_sop_class_uid, self.source_sop_instance_uid,
                  self.source_frame_number, self.position)
        if source not in repeated:
            reference = sop_reference(
                self.source_sop_class_uid,
                self.source_sop_instance_uid,
                ReferencedFrameNumber=self.source_frame_number if frame_number else None,
                PurposeOfReferenceCodeSequence=(
                    concept_to_items(DCM.SourceImageForImageProcessingOperation),
                ),
            )
            repeated[source] = (DataSet.of(
                SourceImageSequence=(reference,),
                DerivationCodeSequence=(concept_to_items(DCM.Segmentation),),
            ),), (self.position.to_item(),)
        if segment_number not in repeated:
            repeated[segment_number] = (DataSet.of(ReferencedSegmentNumber=segment_number),)
        derivation, position = repeated[source]
        return DataSet.of(
            FrameContentSequence=(DataSet.of(
                DimensionIndexValues=[segment_number, self.source_frame_number]
            ),),
            SegmentIdentificationSequence=repeated[segment_number],
            DerivationImageSequence=derivation,
            **{self.position.sequence: position},
        )

    @classmethod
    def from_group(cls, index: int, group: DataSet, positioned: bool) -> "FrameRecord":
        """Inverse of :meth:`to_group`; a frame without a segment number, or
        without a plane position of three numbers when `positioned` (the SEG
        has a frame of reference), raises MalformedSegError. An unpositioned
        frame reads as the patient-frame origin otherwise."""
        ident = group.items_of("SegmentIdentificationSequence")
        segment = ident[0].value("ReferencedSegmentNumber") if ident else None
        if segment is None:
            raise MalformedSegError(f"frame {index + 1} lacks a segment identification")
        position = plane_position(group)
        if position is None:
            if positioned:
                raise MalformedSegError(
                    f"frame {index + 1} lacks a plane position of three numbers")
            position = PlanePositionPatient(("0", "0", "0"))
        derivation = group.items_of("DerivationImageSequence")
        sources = derivation[0].items_of("SourceImageSequence") if derivation else ()
        source = sources[0] if sources else DataSet()
        return cls(
            index=index,
            segment_number=int(segment),
            source_sop_class_uid=source.value("ReferencedSOPClassUID", ""),
            source_sop_instance_uid=source.value("ReferencedSOPInstanceUID", ""),
            source_frame_number=int(source.value("ReferencedFrameNumber", 1)),
            position=position,
        )


# -- bit packing --------------------------------------------------------------


def pack_bits(frames: np.ndarray) -> bytes:
    """Pack {0,1} pixels LSB-first, frames concatenated before end padding."""
    bits = np.ascontiguousarray(frames, dtype=np.uint8).ravel()
    if bits.size == 0:
        return b""
    return np.packbits(bits, bitorder="little").tobytes()


def unpack_bits(data: bytes, count: int) -> np.ndarray:
    """Inverse of :func:`pack_bits`: the first `count` bits as a uint8 array."""
    if count == 0:
        return np.zeros(0, dtype=np.uint8)
    available = len(data) * 8
    if count > available:
        raise MalformedSegError(
            f"pixel data holds {available} bits, {count} needed"
        )
    return np.unpackbits(np.frombuffer(data, dtype=np.uint8),
                         count=count, bitorder="little")


def quantize_fraction(values: np.ndarray, max_value: int) -> np.ndarray:
    """[0, 1] floats -> stored integers 0..max_value, rounding half up."""
    return np.floor(np.asarray(values, dtype=np.float64) * max_value + 0.5).astype(np.uint8)


# -- source-frame resolution ---------------------------------------------------


def _resolve_sources(sources: Sequence[DataSet]):
    """Flatten sources into source-frame records plus shared geometry.

    Sources must agree on shape, orientation, and pixel spacing; mismatched
    geometry is rejected rather than resampled.
    """
    first = sources[0]
    rows = first.value("Rows")
    cols = first.value("Columns")
    slide_based = first.value("Modality") == "SM"

    if slide_based:
        if len(sources) != 1:
            raise GeometryMismatchError(
                "slide-based segmentation expects a single multi-frame source"
            )
        orientation, spacing = shared_geometry(first)
        per_frame = first.items_of("PerFrameFunctionalGroupsSequence")
        if not per_frame:
            raise GeometryMismatchError(
                "slide-based source lacks per-frame plane positions"
            )
        positions = [plane_position(item) for item in per_frame]
        for number, position in enumerate(positions, start=1):
            if not isinstance(position, PlanePositionSlide):
                raise MalformedSegError(
                    f"slide-based source frame {number} lacks PlanePositionSlideSequence"
                )
        sources = [first] * len(per_frame)
    else:
        orientation = first.values("ImageOrientationPatient")
        spacing = first.values("PixelSpacing")
        positions = []
        for ds in sources:
            if int(ds.value("NumberOfFrames", 1)) != 1:
                raise GeometryMismatchError(
                    "multi-frame patient sources are not supported; pass the "
                    "frames as individual instances"
                )
            if (ds.value("Rows"), ds.value("Columns")) != (rows, cols):
                raise GeometryMismatchError("sources disagree on Rows/Columns")
            if ds.values("ImageOrientationPatient") != orientation:
                raise GeometryMismatchError("sources disagree on orientation")
            if ds.values("PixelSpacing") != spacing:
                raise GeometryMismatchError("sources disagree on pixel spacing")
            position = PlanePositionPatient.from_item(ds)
            if position is None:
                raise GeometryMismatchError("source lacks a numeric ImagePositionPatient")
            positions.append(position)
    frames = [
        FrameRecord(
            index=i,
            segment_number=0,
            source_sop_class_uid=ds.value("SOPClassUID"),
            source_sop_instance_uid=ds.value("SOPInstanceUID"),
            source_frame_number=i + 1 if slide_based else 1,
            position=position,
        )
        for i, (ds, position) in enumerate(zip(sources, positions))
    ]
    return frames, rows, cols, orientation, spacing, slide_based


def _mask_stacks(masks, n_segments: int, n_frames: int, rows, cols,
                 seg_type: SegmentationType) -> list[tuple[np.ndarray, np.ndarray]]:
    """One validated ``(frames, rows, cols)`` array per segment, each kept in
    the dtype it was given, with the indices of its non-empty frames.

    Each stack is reduced once per frame, and both the value check and the
    empty-frame scan come from that pass: the per-frame maximum shows that
    no value lies above 1 and which frames hold a value above 0; signed and
    float stacks add the minimum. Binary float stacks are also compared
    with 0 and 1, since a value between them is not a binary value.
    """
    stacks = [np.asarray(stack) for stack in masks]
    if len(stacks) != n_segments:
        raise MaskShapeError(
            f"{len(stacks)} mask stacks supplied for {n_segments} segments"
        )
    out = []
    for number, stack in enumerate(stacks, start=1):
        if stack.ndim == 2:
            stack = stack[np.newaxis]
        if stack.shape != (n_frames, rows, cols):
            raise MaskShapeError(
                f"segment {number} mask stack has shape {stack.shape}, "
                f"expected {(n_frames, rows, cols)}"
            )
        kind = stack.dtype.kind
        if kind not in "biuf":
            raise MaskValueError(
                f"segment {number} mask has dtype {stack.dtype}; masks are "
                "boolean, integer or floating-point arrays"
            )
        flat = stack.reshape(n_frames, -1)
        # NaN propagates through max/min and fails every comparison.
        # `initial` keeps frames of zero pixels valid and empty.
        top = flat.max(axis=1, initial=0)
        if seg_type.is_binary and kind == "f":
            valid = ((flat == 0) | (flat == 1)).all()
        else:
            valid = top.max() <= 1 and (kind in "bu" or flat.min(initial=0) >= 0)
        if not valid:
            raise MaskValueError(
                f"segment {number}: binary masks may only contain 0 and 1"
                if seg_type.is_binary else
                f"segment {number}: fractional masks must lie within [0, 1]"
            )
        # every value lies in [0, 1]: a frame is empty when its maximum is 0
        out.append((stack, np.flatnonzero(top)))
    return out


def create_seg(
    sources: Sequence[DataSet],
    masks,
    descriptions: Sequence[SegmentDescription],
    seg_type: SegmentationType,
    omit_empty: bool = True,
    *,
    series_instance_uid: str | None = None,
    sop_instance_uid: str | None = None,
    series_number: int = 1,
    instance_number: int = 1,
    manufacturer: str = "dicomforge",
    series_description: str | None = None,
) -> DataSet:
    """Encode per-segment mask stacks as a Segmentation instance.

    `masks` holds one stack per description, each aligned to the source
    frames (shape ``(frames, rows, cols)``; a bare 2D array is accepted for
    a single source frame). Binary masks must be 0/1 valued, fractional
    masks must lie in [0, 1].
    """
    sources = check_evidence(sources)
    descriptions = list(descriptions)
    if [d.number for d in descriptions] != list(range(1, len(descriptions) + 1)):
        raise SegmentNumberingError(
            "segment descriptions must be numbered consecutively from 1"
        )
    source_frames, rows, cols, orientation, spacing, slide_based = \
        _resolve_sources(sources)
    n_frames = len(source_frames)
    stacks = _mask_stacks(masks, len(descriptions), n_frames, rows, cols, seg_type)
    if not omit_empty:
        stacks = [(stack, range(n_frames)) for stack, _ in stacks]

    # The kept frames are copied once, as one stored value per pixel.
    stored = np.empty((sum(len(kept) for _, kept in stacks), rows, cols), np.uint8)
    groups: list[DataSet] = []
    repeated: dict = {}
    for description, (stack, frame_numbers) in zip(descriptions, stacks):
        for f in frame_numbers:
            stored[len(groups)] = (
                stack[f] if seg_type.is_binary
                else quantize_fraction(stack[f], seg_type.max_fractional_value)
            )
            groups.append(source_frames[f].to_group(description.number, slide_based, repeated))

    if seg_type.is_binary:
        pixel_data = pack_bits(stored)
        bits_allocated = 1
    else:
        pixel_data = stored.tobytes()
        bits_allocated = 8

    ds = derived_instance(
        sources[0], SEGMENTATION_STORAGE, "SEG", sop_instance_uid=sop_instance_uid,
        series_instance_uid=series_instance_uid, series_number=series_number,
        instance_number=instance_number, manufacturer=manufacturer,
        series_description=series_description,
    )
    ds.put("ImageType", ["DERIVED", "PRIMARY"])
    content_timestamp(ds)
    ds.put("ContentLabel", "SEGMENTATION")
    frame_of_reference = sources[0].value("FrameOfReferenceUID")
    if frame_of_reference:
        ds.put("FrameOfReferenceUID", frame_of_reference)
    ds.put("PositionReferenceIndicator", "")

    ds.put("SamplesPerPixel", 1)
    ds.put("PhotometricInterpretation", "MONOCHROME2")
    ds.put("Rows", rows)
    ds.put("Columns", cols)
    ds.put("BitsAllocated", bits_allocated)
    ds.put("BitsStored", bits_allocated)
    ds.put("HighBit", bits_allocated - 1)
    ds.put("PixelRepresentation", 0)
    ds.put("LossyImageCompression", "00")
    ds.put("SegmentationType", seg_type.kind)
    if not seg_type.is_binary:
        ds.put("SegmentationFractionalType", seg_type.fractional_kind.value)
        ds.put("MaximumFractionalValue", seg_type.max_fractional_value)
    ds.put("NumberOfFrames", len(groups))

    ds.put("SegmentSequence", tuple(d.to_item() for d in descriptions))

    organization_uid = new_uid()
    ds.put("DimensionOrganizationSequence",
           (DataSet.of(DimensionOrganizationUID=organization_uid),))
    position = type(source_frames[0].position)
    ds.put("DimensionIndexSequence", tuple(
        DataSet.of(
            DimensionOrganizationUID=organization_uid,
            DimensionIndexPointer=[KEYWORD_TO_TAG[pointer]],
            FunctionalGroupPointer=[KEYWORD_TO_TAG[group]],
        )
        for pointer, group in (
            ("ReferencedSegmentNumber", "SegmentIdentificationSequence"),
            (position.index_pointer, position.sequence),
        )
    ))

    shared = DataSet()
    if spacing:
        shared.put("PixelMeasuresSequence", (DataSet.of(PixelSpacing=list(spacing)),))
    if not slide_based:
        shared.put("PlaneOrientationSequence",
                   (DataSet.of(ImageOrientationPatient=list(orientation)),))
    elif orientation:
        ds.put("ImageOrientationSlide", list(orientation))
    ds.put("SharedFunctionalGroupsSequence", (shared,))

    ds.put("PerFrameFunctionalGroupsSequence", tuple(groups))
    ds.put("ReferencedSeriesSequence", reference_sequence(
        map(instance_reference, sources), "ReferencedInstanceSequence", by_study=False
    ))
    ds.put("PixelData", pixel_data)
    return ds


# -- parsing -------------------------------------------------------------------


class Segmentation:
    """Read-only view over a SEG dataset."""

    def __init__(self, dataset: DataSet):
        if dataset.value("SOPClassUID") != SEGMENTATION_STORAGE:
            raise WrongSopClassError(
                f"not a Segmentation instance: {dataset.value('SOPClassUID')!r}"
            )
        self.dataset = dataset
        self.rows = int(dataset.value("Rows", 0))
        self.columns = int(dataset.value("Columns", 0))
        self.number_of_frames = int(dataset.value("NumberOfFrames", 0))
        self.sop_instance_uid = dataset.value("SOPInstanceUID", "")
        kind = dataset.value("SegmentationType", "")
        if kind not in ("BINARY", "FRACTIONAL"):
            raise MalformedSegError(f"unknown segmentation type {kind!r}")
        try:  # unknown enumerated values and invalid UIDs
            self.seg_type = (
                SegmentationType.binary() if kind == "BINARY"
                else SegmentationType.fractional(
                    dataset.value("SegmentationFractionalType", "PROBABILITY"),
                    int(dataset.value("MaximumFractionalValue", 255)),
                )
            )
            self.descriptions = tuple(
                SegmentDescription.from_item(item, i)
                for i, item in enumerate(dataset.items_of("SegmentSequence"))
            )
        except ValueError as exc:
            raise MalformedSegError(f"malformed segmentation: {exc}") from exc
        self._described = frozenset(d.number for d in self.descriptions)
        frame_of_reference = dataset.value("FrameOfReferenceUID")
        if frame_of_reference and not is_valid_uid(str(frame_of_reference)):
            raise MalformedSegError(
                f"FrameOfReferenceUID {frame_of_reference!r} is not a well-formed UID")
        self._orientation, self._spacing = shared_geometry(dataset)
        for name, values in (("orientation", self._orientation),
                             ("pixel spacing", self._spacing)):
            if not _numbers(values):
                raise MalformedSegError(f"shared {name} {list(values)} is not all numbers")
        positioned = bool(frame_of_reference)
        self.frames = tuple(
            FrameRecord.from_group(i, group, positioned)
            for i, group in enumerate(dataset.items_of("PerFrameFunctionalGroupsSequence"))
        )
        if len(self.frames) != self.number_of_frames:
            raise MalformedSegError(
                f"per-frame groups ({len(self.frames)}) disagree with "
                f"NumberOfFrames ({self.number_of_frames})"
            )
        element = dataset.element("PixelData")
        self._pixel_data = element.raw if element is not None else b""
        self._check_pixel_length()
        # (segment, source instance, source frame) -> stored frame index
        self._frame_index = {}
        for r in self.frames:
            if r.segment_number not in self._described:
                raise MalformedSegError(
                    f"frame {r.index + 1} names segment {r.segment_number}, "
                    "which no segment item describes"
                )
            self._frame_index[
                (r.segment_number, r.source_sop_instance_uid, r.source_frame_number)
            ] = r.index
        self._source_uids = [
            ref.sop_instance_uid for ref in read_references(
                dataset.items_of("ReferencedSeriesSequence"),
                "ReferencedInstanceSequence", by_study=False,
            )
        ]
        self._referenced_instances = set(self._source_uids)

    def _check_pixel_length(self) -> None:
        actual = len(self._pixel_data)
        pixels = self.number_of_frames * self.rows * self.columns
        if self.seg_type.is_binary:
            expected = math.ceil(pixels / 8)
        else:
            expected = pixels
        if actual not in (expected, expected + (expected % 2)):
            raise MalformedSegError(
                f"pixel data is {actual} bytes; {expected} expected for "
                f"{self.number_of_frames} frame(s) of {self.rows}x{self.columns}"
            )

    # -- queries ---------------------------------------------------------

    def stored_frame(self, index: int) -> np.ndarray:
        """Raw stored values of one emitted frame (no rescaling).

        Only this frame is unpacked. Binary frames start at bit
        ``index * rows * cols``, which need not fall on a byte boundary.
        """
        index = range(self.number_of_frames)[index]
        pixels = self.rows * self.columns
        if self.seg_type.is_binary:
            start, skip = divmod(index * pixels, 8)
            end = start + math.ceil((skip + pixels) / 8)
            flat = unpack_bits(memoryview(self._pixel_data)[start:end],
                               skip + pixels)[skip:]
        else:
            flat = np.frombuffer(self._pixel_data, dtype=np.uint8,
                                 count=pixels, offset=index * pixels)
        return flat.reshape(self.rows, self.columns)

    def find_segments(
        self,
        label: str | None = None,
        category: CodedConcept | None = None,
        property_type: CodedConcept | None = None,
        tracking_uid: str | None = None,
    ) -> list[int]:
        """Segment numbers matching every supplied filter, ascending."""
        out = []
        for d in self.descriptions:
            if label is not None and d.label != label:
                continue
            if category is not None and d.category != category:
                continue
            if property_type is not None and d.property_type != property_type:
                continue
            if tracking_uid is not None and (
                d.tracking is None or d.tracking.uid != tracking_uid
            ):
                continue
            out.append(d.number)
        return sorted(out)

    def _stored_indices(self, segments: Sequence[int],
                        source_frames: Sequence) -> list[list[int | None]]:
        """For each of `segments`, the index of the frame stored for it on
        each source frame, None where it was omitted as empty. Each source
        frame key is parsed once. An undescribed segment raises
        UnmappedFrameError, and then so does an unreferenced instance."""
        for segment in segments:
            if segment not in self._described:
                raise UnmappedFrameError(f"no segment number {segment}")
        keys = []
        for source_frame in source_frames:
            uid, number = source_frame if isinstance(source_frame, tuple) else (source_frame, 1)
            keys.append((str(uid), int(number)))
        out = []
        for segment in segments:
            indices = []
            for uid, number in keys:
                index = self._frame_index.get((segment, uid, number))
                if index is None and uid not in self._referenced_instances:
                    raise UnmappedFrameError(
                        f"source frame ({uid}, {number}) is not referenced by "
                        "this segmentation"
                    )
                indices.append(index)
            out.append(indices)
        return out

    def segment_pixels(self, segment: int, source_frames: Sequence) -> np.ndarray:
        """Masks of one segment aligned to the requested source frames.

        Source frames are addressed by SOP instance UID (single-frame
        sources) or by an (instance UID, frame number) pair. Frames omitted
        as empty come back as zero arrays; unknown instances raise.
        Binary values are 0/1 (uint8); fractional values are rescaled to
        [0, 1] (float64).
        """
        [indices] = self._stored_indices((segment,), source_frames)
        out = np.zeros((len(indices), self.rows, self.columns), dtype=np.uint8)
        for i, index in enumerate(indices):
            if index is not None:
                out[i] = self.stored_frame(index)
        if self.seg_type.is_binary:
            return out
        return out / self.seg_type.max_fractional_value

    def label_volume(self, source_frames: Sequence | None = None,
                     segments: Sequence[int] | None = None) -> np.ndarray:
        """Per-pixel segment numbers, ``(frames, rows, cols)``, for the
        requested source frames (BINARY only); None means every referenced
        source frame, in :meth:`source_frame_keys` order.

        The dtype is the smallest unsigned one that holds the largest
        described segment number: uint8 up to 255, else uint16. Each output
        frame is written once per selected stored frame of its source
        frame, in ascending segment order: the first as its 0/1 bits times
        its segment number, each later one by an element-wise maximum; a
        frame with none is zero. So where several selected segments
        overlap, the highest segment number wins, whatever the order of
        `segments`. Fractional segmentations must be thresholded into
        masks first.
        """
        if not self.seg_type.is_binary:
            raise TypeError(
                "label maps require a BINARY segmentation; threshold the "
                "fractional frames into binary masks first"
            )
        if source_frames is None:
            source_frames = self.source_frame_keys()
        dtype = np.min_scalar_type(max(self._described, default=0))
        # (number, stored index) per requested source frame, ascending
        stored: list[list[tuple[np.integer, int]]] = [[] for _ in source_frames]
        numbers = sorted(set(self._described if segments is None else segments))
        for number, indices in zip(numbers, self._stored_indices(numbers, source_frames)):
            value = dtype.type(number)  # a plain int past 255 overflows uint8 bits
            for frame_stored, index in zip(stored, indices):
                if index is not None:
                    frame_stored.append((value, index))
        out = np.empty((len(source_frames), self.rows, self.columns), dtype)
        for frame, frame_stored in zip(out, stored):
            if not frame_stored:
                frame.fill(0)
                continue
            (value, index), *later = frame_stored
            np.multiply(self.stored_frame(index), value, out=frame)
            for value, index in later:
                np.maximum(frame, self.stored_frame(index) * value, out=frame)
        return out

    def label_map(self, source_frame, segments: Sequence[int] | None = None) -> np.ndarray:
        """Per-pixel segment numbers for one source frame: the one-frame
        case of :meth:`label_volume`."""
        return self.label_volume((source_frame,), segments)[0]

    def source_frame_keys(self) -> list[tuple[str, int]]:
        """Referenced source frames as ordered (instance UID, frame) keys.

        Single-frame sources appear in root reference order with frame 1;
        a multi-frame source expands to frames 1..max frame referenced.
        """
        max_frame = max((r.source_frame_number for r in self.frames), default=1)
        if len(self._source_uids) == 1 and max_frame > 1:
            return [(self._source_uids[0], n) for n in range(1, max_frame + 1)]
        return [(uid, 1) for uid in self._source_uids]

    def plane_geometry(self, record: FrameRecord) -> PlaneGeometry:
        """Plane geometry of one frame (for pixel <-> mm conversion)."""
        if len(self._orientation) != 6 or len(self._spacing) != 2:
            raise MalformedSegError("segmentation lacks orientation/spacing")
        return PlaneGeometry(position=record.position.xyz,
                             orientation=self._orientation, spacing=self._spacing)


def open_seg(dataset: DataSet) -> Segmentation:
    """View an existing SEG dataset."""
    return Segmentation(dataset)
