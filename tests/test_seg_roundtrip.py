"""Generated SEGs through the whole round trip.

Each example draws the input of one `create_seg` call
(`seg_strategies.seg_cases`), runs `create_seg` -> `write_part10` ->
`read_part10` -> `open_seg`, and checks the pixels (stored frames,
`segment_pixels`, `label_volume`), the frames and their sources, the
segment descriptions, and that the decoded data set encodes to the same
bytes.
"""
from dataclasses import replace

import numpy as np
from hypothesis import given, settings

from dicomforge.part10 import file_meta_for, read_part10, write_part10
from dicomforge.seg import create_seg, open_seg, quantize_fraction
from dicomforge.sr.items import AlgorithmIdentification
from seg_strategies import seg_cases

ROUND_TRIPS = settings(max_examples=200, deadline=None)


def round_trip(case):
    """The Part 10 bytes of the SEG built from `case`, the data set read
    from them, and the SEG opened on it."""
    ds = create_seg(case.sources, case.masks, case.descriptions, case.seg_type,
                    case.omit_empty)
    data = write_part10(file_meta_for(ds), ds)
    _, decoded = read_part10(data)
    return data, decoded, open_seg(decoded)


def stacks(case) -> list[np.ndarray]:
    """Each segment's masks as ``(frames, rows, cols)``."""
    return [np.reshape(stack, (len(case.keys), *np.shape(stack)[-2:])) for stack in case.masks]


def stored_frames(case) -> list[tuple[int, int]]:
    """(segment number, source frame index) of each stored frame:
    segment-major, in source order, empty frames left out with
    `omit_empty`."""
    return [(number, f) for number, stack in enumerate(stacks(case), start=1)
            for f in range(len(case.keys)) if not case.omit_empty or np.any(stack[f])]


def stored_form(description):
    """A description as a SEG keeps it: of the algorithm only the name."""
    algorithm = description.algorithm
    if algorithm is not None:
        algorithm = AlgorithmIdentification(algorithm.name, "unknown")
    return replace(description, algorithm=algorithm)


@ROUND_TRIPS
@given(seg_cases())
def test_pixels_read_back(case):
    _, _, seg = round_trip(case)
    binary = case.seg_type.is_binary
    top = case.seg_type.max_fractional_value
    masks = stacks(case)
    for index, (number, f) in enumerate(stored_frames(case)):
        frame = masks[number - 1][f]
        expected = frame != 0 if binary else quantize_fraction(frame, top)
        assert np.array_equal(seg.stored_frame(index), expected)
    for number, stack in enumerate(masks, start=1):
        pixels = seg.segment_pixels(number, case.keys)
        if binary:
            assert pixels.dtype == np.uint8 and np.array_equal(pixels, stack != 0)
        else:
            assert np.array_equal(pixels, quantize_fraction(stack, top) / top)
    if binary:
        expected = np.zeros((len(case.keys), *masks[0].shape[1:]), np.uint8)
        for number, stack in enumerate(masks, start=1):
            expected[stack != 0] = number  # ascending, so the highest number wins
        volume = seg.label_volume(case.keys)
        assert volume.dtype == np.uint8 and np.array_equal(volume, expected)
        assert np.array_equal(seg.label_volume(), expected[:len(seg.source_frame_keys())])


@ROUND_TRIPS
@given(seg_cases())
def test_structure_reads_back(case):
    data, ds, seg = round_trip(case)
    frames = stored_frames(case)
    assert seg.number_of_frames == len(seg.frames) == len(frames)
    for record, (number, f) in zip(seg.frames, frames):
        assert record.segment_number == number
        assert (record.source_sop_instance_uid, record.source_frame_number) == case.keys[f]
        assert record.position == case.positions[f]
    # single-frame sources are all listed; the frames of a multi-frame
    # source are listed up to the last one a stored frame references
    slide = case.sources[0].value("Modality") == "SM"
    last = max((f + 1 for _, f in frames), default=1) if slide else len(case.keys)
    assert seg.source_frame_keys() == case.keys[:last]
    assert seg.descriptions == tuple(map(stored_form, case.descriptions))
    assert write_part10(file_meta_for(ds), ds) == data
