"""The benchmark's three workloads, driving dicomforge's public API.

Each workload builds an item's inputs from ``(seed, item index)`` before the
item, runs the item's calls inside one ``item`` span (one child span per
public call), and checks the outputs afterwards. A check that fails raises
`CheckFailed`; the runner counts it, like any other exception, as a failed
item and moves on.

Stored SEG and SR objects take their study, series and SOP UIDs from a
slot, ``index % SLOTS``, and the archive replaces an instance stored under
the same UIDs, so it holds the preload and at most `SLOTS` of them however
many items a run finishes. Likewise archive-mix STOWs cycle over `ArchiveMix.POOL` batches.
Store, search and memory then see an archive of the same size at any
throughput.

Item timings are returned as lists of seconds under ``"store"``,
``"search"`` and ``"retrieve"`` (only the phases the item ran; one entry
per read-back) plus ``"item"``, the seconds of the whole item span.
"""
from __future__ import annotations

import time

import numpy as np

import dicomforge as df
from dicomforge import sr
from dicomforge.errors import DicomforgeError

import gen

SLOTS = 4
# A derived object is written once and read more often. seg-volume and
# roi-sr locate and read back each stored object READS times, and each read
# is one sample of search and retrieve time: single reads left too few
# samples per run for a steady median, as their time varies from item to item.
READS = 2
ALGORITHM = sr.AlgorithmIdentification("perfbench-model", "1.0")
SEGMENT_PROPERTIES = (
    ("organ", df.SCT.MorphologicallyAbnormalStructure, df.SCT.Lung),
    ("lesion 1", df.SCT.MorphologicallyAbnormalStructure, df.SCT.Nodule),
    ("lesion 2", df.SCT.MorphologicallyAbnormalStructure, df.SCT.Nodule),
    ("lesion 3", df.SCT.MorphologicallyAbnormalStructure, df.SCT.Nodule),
)


class CheckFailed(Exception):
    """An output of the program differs from what the benchmark expects."""


def check(condition, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


class Workload:
    """Shared plumbing: the client, the tracer, the web-call wrapper and the
    preloaded archive.

    Every workload preloads the same archive of ``studies x series x
    instances`` small CT instances, so QIDO scans a realistic archive and
    costs more than the hand-off of a request between client and handler
    threads, which varies from run to run. The benchmark keeps its own
    index of what it stored, so WADO and QIDO answers can be checked exactly.
    """

    def __init__(self, client, tracer, seed: int, preload=(40, 5, 10)):
        self.client = client
        self.tracer = tracer
        self.seed = seed
        self.studies, self.series_per_study, self.instances = preload
        self.untimed_s = 0.0  # set-up time spent building inputs, not in the program
        self.blobs: dict[tuple[str, str, str], bytes] = {}
        self.keys: list[tuple[str, str, str]] = []
        self.series_sops: dict[str, set[str]] = {}

    def _record(self, ds, blob: bytes) -> None:
        key = (ds.value("StudyInstanceUID"), ds.value("SeriesInstanceUID"),
               ds.value("SOPInstanceUID"))
        if key not in self.blobs:
            self.keys.append(key)
        self.blobs[key] = blob
        self.series_sops.setdefault(key[1], set()).add(key[2])

    def setup(self) -> None:
        """Preload studies x series x instances, one STOW per study."""
        for s in range(self.studies):
            started = time.perf_counter()
            batch = [
                gen.small_instance(df, self.seed, s, j, k)
                for j in range(self.series_per_study) for k in range(self.instances)
            ]
            self.untimed_s += time.perf_counter() - started
            blobs = [df.write_part10(df.file_meta_for(ds), ds) for ds in batch]
            self.store(blobs)
            started = time.perf_counter()
            for ds, blob in zip(batch, blobs):
                self._record(ds, blob)
            self.untimed_s += time.perf_counter() - started

    def web(self, name: str, method, *args, **kwargs):
        """One DICOMweb request inside a span, counted as a request and, if
        it raises, as a failed request."""
        tracer = self.tracer
        tracer.count("web.requests")
        with tracer.span(name):
            try:
                return method(*args, **kwargs)
            except DicomforgeError:
                tracer.count("web.failed")
                raise

    def store(self, blobs) -> None:
        """STOW the blobs and require every one of them to be acknowledged."""
        self.tracer.count("web.bytes_sent", sum(len(b) for b in blobs))
        response = self.web("web.store_parts", self.client.store_parts, blobs)
        check(not response.items_of("FailedSOPSequence"),
              "STOW response carries a FailedSOPSequence")
        check(len(response.items_of("ReferencedSOPSequence")) == len(blobs),
              "STOW acknowledged fewer instances than were sent")

    def retrieve(self, study, series, sop) -> bytes:
        data = self.web("web.retrieve_instance_bytes",
                        self.client.retrieve_instance_bytes, study, series, sop)
        self.tracer.count("web.bytes_received", len(data))
        return data

    def write_part10(self, ds) -> bytes:
        with self.tracer.span("part10.write_part10"):
            blob = df.write_part10(df.file_meta_for(ds), ds)
        self.tracer.count("part10.bytes_written", len(blob))
        return blob

    def read_part10(self, data: bytes):
        with self.tracer.span("part10.read_part10"):
            _, ds = df.read_part10(data)
        self.tracer.count("part10.bytes_read", len(data))
        return ds

    def read_back(self, study, series, sop, decode):
        """Locate the stored object with a QIDO, retrieve it with a WADO and
        `decode` it, `READS` times. Returns the search and retrieve times,
        and per read the QIDO answer, the bytes and what `decode` returned."""
        search_s, retrieve_s, reads = [], [], []
        for _ in range(READS):
            t0 = time.perf_counter()
            records = self.web("web.search", self.client.search, "instances",
                               {"SeriesInstanceUID": series})
            found = [r.value("SOPInstanceUID") for r in records]
            t1 = time.perf_counter()
            data = self.retrieve(study, series, sop)
            result = decode(self.read_part10(data))
            t2 = time.perf_counter()
            search_s.append(t1 - t0)
            retrieve_s.append(t2 - t1)
            reads.append((found, data, result))
        return search_s, retrieve_s, reads

    def check_reads(self, reads, sop: str, blob: bytes, kind: str) -> None:
        for found, data, _ in reads:
            check(found == [sop], "QIDO did not find exactly the stored instance")
            check(data == blob, f"WADO bytes differ from the stored {kind}")


class SegVolume(Workload):
    """A CT volume's segment masks -> SEG -> STOW -> (QIDO -> WADO -> label maps) x READS."""

    def __init__(self, client, tracer, seed, slices: int = 64, size: int = 512, **preload):
        super().__init__(client, tracer, seed, **preload)
        self.slices = slices
        self.size = size

    def run_item(self, index: int) -> dict:
        seed, tracer = self.seed, self.tracer
        slot = index % SLOTS
        sources = gen.ct_series(df, seed, index, slot, self.slices, self.size)
        stacks, expected = gen.seg_volume_masks(seed, index, self.slices, self.size)
        descriptions = [
            df.SegmentDescription(
                number=n, label=label, category=category, property_type=prop,
                algorithm=ALGORITHM,
                tracking=sr.TrackingIdentifier(gen.uid(seed, "seg-track", index, n), label),
            )
            for n, (label, category, prop) in enumerate(SEGMENT_PROPERTIES, start=1)
        ]
        study = sources[0].value("StudyInstanceUID")
        series = gen.uid(seed, "seg-series", slot)
        sop = gen.uid(seed, "seg-sop", slot)
        source_uids = [s.value("SOPInstanceUID") for s in sources]

        def label_maps(ds):
            with tracer.span("seg.open_seg"):
                view = df.open_seg(ds)
            maps = []
            for uid in source_uids:
                with tracer.span("seg.label_map"):
                    maps.append(view.label_map(uid))
            return maps

        with tracer.span("item", item=index):
            t0 = time.perf_counter()
            with tracer.traced_memory("seg.create_seg.peak_mb"), tracer.span("seg.create_seg"):
                seg = df.create_seg(
                    sources, stacks, descriptions, df.SegmentationType.binary(),
                    series_instance_uid=series, sop_instance_uid=sop,
                )
            blob = self.write_part10(seg)
            self.store([blob])
            t1 = time.perf_counter()
            search_s, retrieve_s, reads = self.read_back(study, series, sop, label_maps)
            t2 = time.perf_counter()

        frames = int(seg.value("NumberOfFrames"))
        tracer.count("seg.frames_emitted", frames)
        tracer.count("seg.frames_possible", len(stacks) * self.slices)
        tracer.count("seg.label_map.calls", sum(len(maps) for _, _, maps in reads))
        self.check_reads(reads, sop, blob, "SEG")
        for _, _, maps in reads:
            check(len(maps) == self.slices, "label map count differs from the slice count")
            for k, label_map in enumerate(maps):
                check(np.array_equal(label_map, expected[k]),
                      f"label map of slice {k + 1} differs from the generated masks")
        return {"store": [t1 - t0], "search": search_s, "retrieve": retrieve_s,
                "item": t2 - t0}


def scipy_labels(mask: np.ndarray) -> tuple[np.ndarray, int]:
    """Reference 8-connected labelling, relabelled to raster first-encounter
    order (the order `connected_components` documents)."""
    from scipy import ndimage  # checking only; not a package dependency

    labels, count = ndimage.label(mask, structure=np.ones((3, 3), dtype=int))
    found, first = np.unique(labels.ravel(), return_index=True)
    order = found[found > 0][np.argsort(first[found > 0])]
    remap = np.zeros(count + 1, dtype=np.int32)
    remap[order] = np.arange(1, len(order) + 1, dtype=np.int32)
    return remap[labels], count


class RoiSr(Workload):
    """A probability map -> ROIs -> TID 1500 SR -> STOW -> (QIDO -> WADO -> groups) x READS."""

    THRESHOLD = 0.5

    def __init__(self, client, tracer, seed, size: int = 512, max_blobs: int = 200,
                 **preload):
        super().__init__(client, tracer, seed, **preload)
        self.size = size
        self.max_blobs = max_blobs
        self.observer = sr.ObserverContext.device(
            name="perfbench-model", uid=gen.uid(seed, "device"), version="1.0")

    def run_item(self, index: int) -> dict:
        seed, tracer = self.seed, self.tracer
        prob = gen.probability_map(seed, index, self.size, self.max_blobs)
        slot = index % SLOTS
        (source,) = gen.ct_series(df, seed, index, slot, 1, self.size)
        study = source.value("StudyInstanceUID")
        frame_of_reference = source.value("FrameOfReferenceUID")
        position = tuple(float(v) for v in source.values("ImagePositionPatient"))
        series = gen.uid(seed, "sr-series", slot)
        sop = gen.uid(seed, "sr-sop", slot)
        meta = sr.SRMeta(series_instance_uid=series, sop_instance_uid=sop)
        pixel_area = gen.SPACING * gen.SPACING
        regions = []

        def groups_with_geometry(ds):
            with tracer.span("sr.open_sr"):
                doc = sr.open_sr(ds)
            with tracer.span("sr.measurement_groups"):
                views = doc.measurement_groups()
                return views, [view.geometry() for view in views]

        with tracer.span("item", item=index):
            t0 = time.perf_counter()
            with tracer.span("roi.threshold"):
                mask = df.threshold(prob, self.THRESHOLD)
            with tracer.span("roi.connected_components"):
                components = df.connected_components(mask)
            with tracer.span("roi.bounding_boxes"):
                boxes = df.bounding_boxes(components)
            with tracer.span("roi.trace_contours"):
                contours = df.trace_contours(components)
            mapper = df.mapper_from_geometry(df.PlaneGeometry(
                position=position, orientation=(1, 0, 0, 0, 1, 0),
                spacing=(gen.SPACING, gen.SPACING)))
            areas = np.bincount(components.labels.ravel()) * pixel_area
            with tracer.span("sr.build_groups"):
                groups = []
                for box, contour in zip(boxes, contours):
                    vertices = contour.vertices
                    if len(vertices) < 4:
                        corners = box.corner_points()
                        vertices = np.vstack([corners, corners[:1]])
                    regions.append(vertices)
                    with tracer.span("spatial.pixel_to_reference"):
                        points = df.pixel_to_reference(mapper, vertices)
                    groups.append(sr.planar_roi_group(
                        sr.TrackingIdentifier(gen.uid(seed, "roi", index, box.label),
                                              f"ROI {box.label}"),
                        sr.Scoord3DItem(None, "POLYGON", points, frame_of_reference),
                        df.SCT.Nodule,
                        measurements=[sr.NumItem(df.SCT.Area, float(areas[box.label]),
                                                 df.UCUM.mm2)],
                    ))
                tree = sr.measurement_report(self.observer, df.SCT.ImagingProcedure, groups)
            with tracer.span("sr.create_sr"):
                report = sr.create_sr(sr.SRKind.COMPREHENSIVE_3D, [source], tree, meta)
            blob = self.write_part10(report)
            self.store([blob])
            t1 = time.perf_counter()
            search_s, retrieve_s, reads = self.read_back(
                study, series, sop, groups_with_geometry)
            t2 = time.perf_counter()

        tracer.count("roi.components", components.count)
        tracer.count("roi.foreground_px", int(mask.sum()))
        tracer.count("spatial.pixel_to_reference.calls", len(regions))
        tracer.count("sr.groups", len(groups))
        self.check_reads(reads, sop, blob, "SR")
        self._check_rois(mask, components, boxes, contours)
        for _, _, (views, geometries) in reads:
            self._check_groups(regions, views, geometries, areas, position, index)
        return {"store": [t1 - t0], "search": search_s, "retrieve": retrieve_s,
                "item": t2 - t0}

    def _check_rois(self, mask, components, boxes, contours) -> None:
        expected_labels, count = scipy_labels(mask)
        check(components.count == count, "component count differs from scipy")
        check(np.array_equal(components.labels, expected_labels),
              "component labels differ from scipy (first-encounter order)")
        check(len(boxes) == len(contours) == count, "one box and one contour per component")
        labels = components.labels
        for contour, box in zip(contours, boxes):
            cols, rows = contour.vertices[:, 0].astype(int), contour.vertices[:, 1].astype(int)
            check(np.all(labels[rows, cols] == contour.label),
                  f"contour {contour.label} leaves its component")
            check((box.min_col <= cols).all() and (cols <= box.max_col).all()
                  and (box.min_row <= rows).all() and (rows <= box.max_row).all(),
                  f"contour {contour.label} leaves its bounding box")

    def _check_groups(self, regions, views, geometries, areas, position, index) -> None:
        check(len(views) == len(geometries) == len(regions),
              "SR group count differs from the component count")
        origin = np.asarray(position)
        for label, (vertices, view, geometry) in enumerate(
                zip(regions, views, geometries), start=1):
            expected = origin + np.column_stack([
                vertices[:, 0] * gen.SPACING, vertices[:, 1] * gen.SPACING,
                np.zeros(len(vertices)),
            ])
            (polygon,) = geometry.polygons
            ulp = np.spacing(np.abs(expected).astype(np.float32)).astype(np.float64)
            check(polygon.shape == expected.shape
                  and np.all(np.abs(polygon - expected) <= ulp),
                  f"group {label} polygon differs from the mapped vertices")
            check(view.tracking.uid == gen.uid(self.seed, "roi", index, label),
                  f"group {label} tracking UID differs")
            (_, value, _), = view.measurements
            check(abs(float(value) - areas[label]) <= 1e-6 * max(1.0, areas[label]),
                  f"group {label} area differs")


class ArchiveMix(Workload):
    """Seeded STOW / WADO / QIDO mix against the preloaded archive."""

    STOW_SHARE, WADO_SHARE = 0.2, 0.5
    BATCH = 8
    POOL = 64  # the n-th STOW stores batch n % POOL: the archive grows by at most POOL * BATCH

    def __init__(self, client, tracer, seed, **preload):
        super().__init__(client, tracer, seed, **preload)
        self.stows = 0

    def run_item(self, index: int) -> dict:
        g = gen.pyrng(self.seed, "op", index)
        draw = g.random()
        if draw < self.STOW_SHARE:
            return self._stow(index)
        if draw < self.STOW_SHARE + self.WADO_SHARE:
            return self._wado(index, g)
        return self._qido(index, g)

    def _stow(self, index: int) -> dict:
        slot = self.stows % self.POOL
        self.stows += 1
        g = gen.pyrng(self.seed, "stow", slot)
        s, j = g.randrange(self.studies), g.randrange(self.series_per_study)
        batch = [gen.small_instance(df, self.seed, s, j, 1000 + self.BATCH * slot + k)
                 for k in range(self.BATCH)]
        with self.tracer.span("item", item=index):
            t0 = time.perf_counter()
            blobs = [self.write_part10(ds) for ds in batch]
            self.store(blobs)
            t1 = time.perf_counter()
        for ds, blob in zip(batch, blobs):
            self._record(ds, blob)
        return {"store": [t1 - t0], "item": t1 - t0}

    def _wado(self, index: int, g) -> dict:
        key = self.keys[g.randrange(len(self.keys))]
        with self.tracer.span("item", item=index):
            t0 = time.perf_counter()
            data = self.retrieve(*key)
            ds = self.read_part10(data)
            t1 = time.perf_counter()
        check(data == self.blobs[key], "WADO bytes differ from the stored bytes")
        check(ds.value("SOPInstanceUID") == key[2], "WADO returned another instance")
        return {"retrieve": [t1 - t0], "item": t1 - t0}

    def _qido(self, index: int, g) -> dict:
        s = g.randrange(self.studies)
        kind = g.randrange(3)
        if kind == 0:
            series = gen.mix_series_uid(self.seed, s, g.randrange(self.series_per_study))
            level, query, attribute = "instances", {"SeriesInstanceUID": series}, "SOPInstanceUID"
            expected = self.series_sops[series]
        elif kind == 1:
            study = gen.mix_study_uid(self.seed, s)
            level, query, attribute = "series", {"StudyInstanceUID": study}, "SeriesInstanceUID"
            expected = {key[1] for key in self.keys if key[0] == study}
        else:
            patient = gen.mix_patient_id(s)
            level, query, attribute = "studies", {"PatientID": patient}, "StudyInstanceUID"
            expected = {gen.mix_study_uid(self.seed, t) for t in range(self.studies)
                        if gen.mix_patient_id(t) == patient}
        with self.tracer.span("item", item=index):
            t0 = time.perf_counter()
            records = self.web("web.search", self.client.search, level, query)
            t1 = time.perf_counter()
        found = [r.value(attribute) for r in records]
        check(len(found) == len(expected) and set(found) == expected,
              f"QIDO {level} answer differs from the benchmark's index")
        return {"search": [t1 - t0], "item": t1 - t0}


WORKLOADS = {"seg-volume": SegVolume, "roi-sr": RoiSr, "archive-mix": ArchiveMix}
