"""Seeded input generators for the benchmark workloads.

Everything here is a pure function of ``(seed, item index)``: the same seed
gives the same arrays, headers and UIDs, so the bytes the program encodes
repeat from run to run. The program under test only ever sees what these
functions return.
"""
from __future__ import annotations

import hashlib
import random

import numpy as np

CT_IMAGE_STORAGE = "1.2.840.10008.5.1.4.1.1.2"
SPACING = 0.75  # mm between pixel centres of the generated CT slices
SLICE_GAP = 2.5  # mm between slices
SPECKLE_EVERY = 5  # every fifth probability map carries salt speckle
SPECKLE_PIXELS = 250


def uid(seed: int, *path) -> str:
    """A ``2.25.`` UID derived from the seed and a naming path."""
    text = "/".join(str(p) for p in (seed, *path)).encode("ascii")
    value = int.from_bytes(hashlib.sha256(text).digest()[:16], "big")
    return f"2.25.{value}"


def rng(seed: int, *path) -> np.random.Generator:
    text = "/".join(str(p) for p in (seed, *path)).encode("ascii")
    return np.random.default_rng(int.from_bytes(hashlib.sha256(text).digest()[:8], "big"))


def pyrng(seed: int, *path) -> random.Random:
    text = "/".join(str(p) for p in (seed, *path)).encode("ascii")
    return random.Random(int.from_bytes(hashlib.sha256(text).digest()[:8], "big"))


def ct_header(df, *, study, series, sop, frame_of_reference, patient_id,
              rows, cols, position, spacing, instance_number,
              pixel_data: bytes | None = None):
    """One single-frame CT instance header, optionally with 16-bit pixels."""
    ds = df.DataSet()
    ds.put("SpecificCharacterSet", "ISO_IR 192")
    ds.put("SOPClassUID", CT_IMAGE_STORAGE)
    ds.put("SOPInstanceUID", sop)
    ds.put("Modality", "CT")
    ds.put("StudyDate", "20240102")
    ds.put("StudyTime", "101500")
    ds.put("AccessionNumber", f"ACC{patient_id[-4:]}")
    ds.put("ReferringPhysicianName", "Ref^Phys")
    ds.put("PatientName", f"Bench^{patient_id}")
    ds.put("PatientID", patient_id)
    ds.put("PatientBirthDate", "19700101")
    ds.put("PatientSex", "F")
    ds.put("StudyInstanceUID", study)
    ds.put("SeriesInstanceUID", series)
    ds.put("StudyID", "S1")
    ds.put("SeriesNumber", 1)
    ds.put("InstanceNumber", instance_number)
    ds.put("FrameOfReferenceUID", frame_of_reference)
    ds.put("Rows", rows)
    ds.put("Columns", cols)
    ds.put("PixelSpacing", [f"{spacing[0]:g}", f"{spacing[1]:g}"])
    ds.put("ImagePositionPatient", [f"{c:.2f}" for c in position])
    ds.put("ImageOrientationPatient", ["1", "0", "0", "0", "1", "0"])
    if pixel_data is not None:
        ds.put("SamplesPerPixel", 1)
        ds.put("PhotometricInterpretation", "MONOCHROME2")
        ds.put("BitsAllocated", 16)
        ds.put("BitsStored", 16)
        ds.put("HighBit", 15)
        ds.put("PixelRepresentation", 0)
        ds.put("PixelData", pixel_data)
    return ds


def ct_series(df, seed: int, item: int, slot: int, n_slices: int, size: int):
    """Headers of one CT series (no pixels: SEG and SR read headers only).

    The study and patient come from `slot`, everything else from `item`, so
    objects derived from items of one slot share a study."""
    study = uid(seed, "study", slot)
    series = uid(seed, "series", item)
    frame_of_reference = uid(seed, "for", item)
    origin = rng(seed, "origin", item).uniform(-200.0, 200.0, 3).round(2)
    return [
        ct_header(
            df, study=study, series=series, sop=uid(seed, "ct", item, k),
            frame_of_reference=frame_of_reference,
            patient_id=f"PAT{slot:04d}", rows=size, cols=size,
            position=(origin[0], origin[1], origin[2] + SLICE_GAP * k),
            spacing=(SPACING, SPACING), instance_number=k + 1,
        )
        for k in range(n_slices)
    ]


# -- seg-volume ----------------------------------------------------------------


def _ellipsoid(masks: np.ndarray, center, radii) -> None:
    """Set an axis-aligned ellipsoid to 1 in a (frames, rows, cols) stack."""
    frames, rows, cols = masks.shape
    cz, cy, cx = center
    rz, ry, rx = radii
    for z in range(max(0, int(np.ceil(cz - rz))), min(frames, int(np.floor(cz + rz)) + 1)):
        scale = 1.0 - ((z - cz) / rz) ** 2
        if scale <= 0:
            continue
        ay, ax = ry * np.sqrt(scale), rx * np.sqrt(scale)
        y0, y1 = max(0, int(np.ceil(cy - ay))), min(rows, int(np.floor(cy + ay)) + 1)
        x0, x1 = max(0, int(np.ceil(cx - ax))), min(cols, int(np.floor(cx + ax)) + 1)
        if y0 >= y1 or x0 >= x1:
            continue
        yy = (np.arange(y0, y1)[:, None] - cy) / ay
        xx = (np.arange(x0, x1)[None, :] - cx) / ax
        masks[z, y0:y1, x0:x1] |= (yy * yy + xx * xx <= 1.0)


def seg_volume_masks(seed: int, item: int, n_slices: int, size: int):
    """Four binary segment stacks: one organ spanning most slices and three
    small lesions spanning a few slices each, plus the expected label map
    (highest segment number wins where they overlap)."""
    g = rng(seed, "segvol", item)
    organ = np.zeros((n_slices, size, size), dtype=np.uint8)
    _ellipsoid(organ,
               center=(n_slices / 2 + g.uniform(-2, 2),
                       size / 2 + g.uniform(-size / 16, size / 16),
                       size / 2 + g.uniform(-size / 16, size / 16)),
               radii=(n_slices * g.uniform(0.40, 0.46),
                      size * g.uniform(0.22, 0.30),
                      size * g.uniform(0.26, 0.34)))
    stacks = [organ]
    for _ in range(3):
        lesion = np.zeros_like(organ)
        _ellipsoid(lesion,
                   center=(g.uniform(0.2, 0.8) * n_slices,
                           g.uniform(0.3, 0.7) * size,
                           g.uniform(0.3, 0.7) * size),
                   radii=(g.uniform(1.0, 2.5),
                          size * g.uniform(0.015, 0.04),
                          size * g.uniform(0.015, 0.04)))
        stacks.append(lesion)
    expected = np.zeros_like(organ)
    for number, stack in enumerate(stacks, start=1):
        expected[stack == 1] = number
    return stacks, expected


# -- roi-sr ----------------------------------------------------------------------


def probability_map(seed: int, item: int, size: int, max_blobs: int):
    """A model-output probability map: Gaussian blobs over sub-threshold
    noise. Every `SPECKLE_EVERY`-th item also carries salt speckle above the
    threshold, i.e. hundreds of one-pixel components.

    The blob count is stratified over consecutive items (each run of ten
    items draws once from each tenth of the range), so the mix of small and
    large maps a run sees hardly depends on the seed.
    """
    g = rng(seed, "prob", item)
    prob = g.uniform(0.0, 0.45, (size, size))
    low = max(1, max_blobs * 2 // 5)
    stratum = (item * 3) % 10
    n_blobs = int(low + (stratum + g.uniform()) / 10 * (max_blobs - low))
    yy = np.arange(size, dtype=np.float64)[:, None]
    xx = np.arange(size, dtype=np.float64)[None, :]
    for _ in range(n_blobs):
        cy, cx = g.uniform(0, size, 2)
        sigma = g.uniform(1.5, 5.0)
        amplitude = g.uniform(0.6, 1.0)
        half = int(np.ceil(4 * sigma))
        y0, y1 = max(0, int(cy) - half), min(size, int(cy) + half + 1)
        x0, x1 = max(0, int(cx) - half), min(size, int(cx) + half + 1)
        blob = amplitude * np.exp(
            -((yy[y0:y1] - cy) ** 2 + (xx[:, x0:x1] - cx) ** 2) / (2 * sigma * sigma)
        )
        np.maximum(prob[y0:y1, x0:x1], blob, out=prob[y0:y1, x0:x1])
    if item % SPECKLE_EVERY == SPECKLE_EVERY - 1:
        ys = g.integers(0, size, SPECKLE_PIXELS)
        xs = g.integers(0, size, SPECKLE_PIXELS)
        prob[ys, xs] = g.uniform(0.5, 1.0, SPECKLE_PIXELS)
    return prob


# -- archive-mix -----------------------------------------------------------------


def mix_study_uid(seed: int, study_index: int) -> str:
    return uid(seed, "mix-study", study_index)


def mix_series_uid(seed: int, study_index: int, series_index: int) -> str:
    return uid(seed, "mix-series", study_index, series_index)


def mix_patient_id(study_index: int) -> str:
    """Two studies per patient."""
    return f"MIX{study_index // 2:04d}"


def small_instance(df, seed: int, study_index: int, series_index: int,
                   instance_number: int, size: int = 16):
    """A small CT instance with 16-bit pixels, addressed by archive layout."""
    g = rng(seed, "px", study_index, series_index, instance_number)
    pixels = g.integers(0, 4096, (size, size), dtype=np.uint16).tobytes()
    return ct_header(
        df,
        study=mix_study_uid(seed, study_index),
        series=mix_series_uid(seed, study_index, series_index),
        sop=uid(seed, "mix-sop", study_index, series_index, instance_number),
        frame_of_reference=uid(seed, "mix-for", study_index),
        patient_id=mix_patient_id(study_index),
        rows=size, cols=size, position=(0.0, 0.0, 2.5 * instance_number),
        spacing=(0.8, 0.8), instance_number=instance_number + 1,
        pixel_data=pixels,
    )
