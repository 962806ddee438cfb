"""Hypothesis strategies for valid SEG input.

`seg_cases` draws everything `create_seg` takes, together with what the
SEG should read back as: patient sources (one to four single-frame CT
headers) or a slide source (one multi-frame SM source with a
PlanePositionSlideSequence per frame); a frame size whose pixel count is
not a multiple of 8, so every binary frame after the first starts inside
a byte; one to four segments whose masks overlap, some frames left empty,
given as bool, int or float stacks; a binary or fractional type;
`omit_empty` on or off; and descriptions with registry and made-up codes,
an optional anatomic site, an algorithm and optional tracking (whose
identifier may be empty). Every
value is one that a Part 10 round trip keeps.
"""
from __future__ import annotations

from typing import NamedTuple

import numpy as np
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from conftest import make_ct_source
from dicomforge.dataset import DataSet
from dicomforge.seg import (
    AlgorithmType,
    FractionalKind,
    PlanePositionPatient,
    PlanePositionSlide,
    SegmentDescription,
    SegmentationType,
)
from dicomforge.sr.items import AlgorithmIdentification, TrackingIdentifier
from sr_strategies import CODES, UIDS, text

SLIDE_SOP_CLASS = "1.2.840.10008.5.1.4.1.1.77.1.6"  # VL Whole Slide Microscopy
SOURCE_UIDS = {"study_uid": "2.25.10", "series_uid": "2.25.20",
               "frame_of_reference_uid": "2.25.30"}


class Case(NamedTuple):
    """The arguments of one `create_seg` call and the source frames."""

    sources: list[DataSet]
    masks: list[np.ndarray]  # one stack per segment, as passed
    descriptions: list[SegmentDescription]
    seg_type: SegmentationType
    omit_empty: bool
    keys: list[tuple[str, int]]  # (instance UID, frame number) per source frame
    positions: list  # the plane position written for each source frame


# DS strings a decoder gives back as written
OFFSETS = st.integers(-10 ** 4, 10 ** 4).map(lambda n: str(n / 4))
# at most 30 characters of at most two UTF-8 bytes fit an LO value
LONG_STRINGS = text(30)
ALGORITHMS = st.builds(AlgorithmIdentification, LONG_STRINGS, LONG_STRINGS,
                       st.lists(LONG_STRINGS, max_size=2))
TRACKING = st.none() | st.builds(TrackingIdentifier, UIDS,
                                 st.none() | st.just("") | LONG_STRINGS)


def slide_source(rows: int, cols: int, tiles) -> DataSet:
    """A slide-microscopy source of one frame per ``(x, y, row, column)``
    tile, each with its PlanePositionSlideSequence."""
    ds = make_ct_source(sop_uid="2.25.100", rows=rows, cols=cols, **SOURCE_UIDS)
    ds.put("Modality", "SM")
    ds.put("SOPClassUID", SLIDE_SOP_CLASS)
    ds.put("NumberOfFrames", len(tiles))
    for keyword in ("ImageOrientationPatient", "ImagePositionPatient", "PixelSpacing"):
        ds.remove(keyword)
    ds.put("ImageOrientationSlide", ["0", "-1", "0", "-1", "0", "0"])
    ds.put("SharedFunctionalGroupsSequence", (DataSet.of(
        PixelMeasuresSequence=(DataSet.of(PixelSpacing=["0.25", "0.25"]),)),))
    ds.put("PerFrameFunctionalGroupsSequence", tuple(
        DataSet.of(PlanePositionSlideSequence=(
            PlanePositionSlide((x, y, "0"), row, column).to_item(),))
        for x, y, row, column in tiles
    ))
    return ds


@st.composite
def patient_sources(draw, rows: int, cols: int):
    """One to four single-frame CT sources of one series, and their
    positions."""
    positions = draw(st.lists(st.tuples(OFFSETS, OFFSETS, OFFSETS), min_size=1, max_size=4))
    sources = [make_ct_source(sop_uid=f"2.25.{100 + i}", rows=rows, cols=cols,
                              position=position, instance_number=i + 1, **SOURCE_UIDS)
               for i, position in enumerate(positions)]
    keys = [(ds.value("SOPInstanceUID"), 1) for ds in sources]
    return sources, keys, [PlanePositionPatient(position) for position in positions]


@st.composite
def slide_sources(draw, rows: int, cols: int):
    """One SM source of one to four tiles, and the tile positions."""
    tiles = draw(st.lists(st.tuples(OFFSETS, OFFSETS, st.integers(1, 10 ** 5),
                                    st.integers(1, 10 ** 5)), min_size=1, max_size=4))
    source = slide_source(rows, cols, tiles)
    keys = [(source.value("SOPInstanceUID"), n) for n in range(1, len(tiles) + 1)]
    return [source], keys, [PlanePositionSlide((x, y, "0"), row, column)
                            for x, y, row, column in tiles]


@st.composite
def mask_stacks(draw, shape, binary: bool):
    """One segment's mask stack: random bits with some frames cleared,
    as bool, int or (fractional only: any values in [0, 1]) float."""
    bits = draw(hnp.arrays(bool, shape))
    bits[draw(st.lists(st.booleans(), min_size=shape[0], max_size=shape[0]))] = False
    dtype = draw(st.sampled_from([bool, np.uint8, np.int64, np.float32, np.float64]))
    if binary or np.dtype(dtype).kind != "f" or draw(st.booleans()):
        return bits.astype(dtype)
    width = 32 if dtype is np.float32 else 64
    values = draw(hnp.arrays(dtype, shape, elements=st.floats(0, 1, width=width)))
    return values * bits


@st.composite
def descriptions(draw, number: int):
    algorithm_type = draw(st.sampled_from(AlgorithmType))
    algorithm = ALGORITHMS if algorithm_type is not AlgorithmType.MANUAL else (
        st.none() | ALGORITHMS)
    return SegmentDescription(
        number=number, label=draw(LONG_STRINGS), category=draw(CODES),
        property_type=draw(CODES), algorithm_type=algorithm_type,
        algorithm=draw(algorithm), anatomic_site=draw(st.none() | CODES),
        tracking=draw(TRACKING))


@st.composite
def seg_cases(draw):
    rows, cols = draw(st.tuples(st.integers(1, 9), st.integers(1, 9)).filter(
        lambda size: size[0] * size[1] % 8))
    sources, keys, positions = draw(st.one_of(patient_sources(rows, cols),
                                              slide_sources(rows, cols)))
    seg_type = draw(st.just(SegmentationType.binary()) | st.builds(
        SegmentationType.fractional, st.sampled_from(FractionalKind), st.integers(1, 255)))
    shape = (len(keys), rows, cols)
    masks = draw(st.lists(mask_stacks(shape, seg_type.is_binary), min_size=1, max_size=4))
    if len(keys) == 1 and draw(st.booleans()):
        masks = [stack[0] for stack in masks]  # one source frame takes bare 2D masks
    return Case(sources, masks, [draw(descriptions(n)) for n in range(1, len(masks) + 1)],
                seg_type, draw(st.booleans()), keys, positions)
