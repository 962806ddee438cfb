"""Tiny-size runs of every workload: metric names and units, trace
bookkeeping, and failure counting on deliberately corrupted outputs.

Run from the repository root with ``python -m pytest perfbench/tests``.
"""
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import run  # noqa: E402
import workloads  # noqa: E402
from dicomforge.seg import Segmentation  # noqa: E402
from dicomforge.sr.document import StructuredReport  # noqa: E402
from dicomforge.web import WebClient  # noqa: E402

PRELOAD = (4, 2, 3)
TINY = {
    "seg-volume": lambda client, tracer: workloads.SegVolume(
        client, tracer, 7, slices=6, size=32, preload=PRELOAD),
    "roi-sr": lambda client, tracer: workloads.RoiSr(
        client, tracer, 7, size=48, max_blobs=12, preload=PRELOAD),
    "archive-mix": lambda client, tracer: workloads.ArchiveMix(
        client, tracer, 7, preload=PRELOAD),
}
SECONDS = 0.6


def benchmark_spec():
    return json.loads((BENCH.parent / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("name", sorted(TINY))
def test_untraced_run_emits_every_end_to_end_metric(name):
    result, details, tracer = run.measure(TINY[name], SECONDS, trace=False)
    spec = {m["name"]: m["unit"] for m in benchmark_spec()["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == spec
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] > 1
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert tracer is None
    for phase in run.PHASES:
        p50 = result["metrics"][f"{phase}_ms.p50"]["value"]
        assert details[f"{phase}_ms.tail"]["value"] >= p50
        assert details[f"{phase}_ms.tail"]["samples"] >= 1


LAYERS_USED = {
    "seg-volume": ("seg.create_seg", "seg.open_seg", "seg.label_map"),
    "roi-sr": ("roi.threshold", "roi.connected_components", "roi.bounding_boxes",
               "roi.trace_contours", "spatial.pixel_to_reference", "sr.build_groups",
               "sr.create_sr", "sr.open_sr", "sr.measurement_groups"),
    "archive-mix": (),
}


@pytest.mark.parametrize("name", sorted(TINY))
def test_traced_run_emits_every_per_layer_metric(name):
    result, _, tracer = run.measure(TINY[name], SECONDS, trace=True)
    spec = {m["name"]: m["unit"] for m in benchmark_spec()["per_layer"]}
    metrics = result["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == spec
    assert result["correct"]
    for span in LAYERS_USED[name] + ("part10.write_part10", "web.store_parts"):
        assert metrics[f"{span}.self_s"]["value"] > 0, span
    assert metrics["web.requests"]["value"] >= 1
    for tail_name in run.TAILS:
        assert metrics[tail_name]["value"] > 0, tail_name
    assert metrics["trace.overhead_ratio"]["value"] > 0
    assert metrics["failed_ratio"]["value"] == 0
    # every call span hangs under a span of its own item
    spans = tracer.spans
    for span_name, start, end, parent, item in spans:
        assert end >= start
        assert (parent is None) == (span_name == "item")
        if parent is not None:
            assert spans[parent][4] == item


@pytest.mark.parametrize("name", sorted(TINY))
def test_archive_size_is_bounded(name):
    """Stored objects reuse a bounded set of UIDs, so the archive size, and
    with it search cost and memory, does not depend on how many items ran."""
    from dicomforge.web import StubArchive
    from spans import Tracer

    archive = StubArchive().start()
    try:
        workload = TINY[name](WebClient(archive.base_url), Tracer(False))
        workload.setup()
        preloaded = len(archive)
        index = 0
        if name == "archive-mix":
            limit = preloaded + workloads.ArchiveMix.POOL * workloads.ArchiveMix.BATCH
            while workload.stows <= workloads.ArchiveMix.POOL:
                workload.run_item(index)
                index += 1
                assert len(archive) <= limit
            assert len(archive) == limit
        else:
            for index in range(3 * workloads.SLOTS):
                workload.run_item(index)
            assert len(archive) == preloaded + workloads.SLOTS
    finally:
        archive.stop()


def test_self_time_subtracts_children():
    from spans import Tracer

    tracer = Tracer(True)
    tracer.spans = [
        ["item", 0.0, 10.0, None, 1],
        ["a", 1.0, 4.0, 0, 1],
        ["b", 5.0, 9.0, 0, 1],
        ["c", 6.0, 7.0, 2, 1],
    ]
    assert tracer.self_times() == {"item": 3.0, "a": 3.0, "b": 3.0, "c": 1.0}


def test_scipy_reference_uses_first_encounter_order():
    mask = np.array([
        [0, 0, 1],
        [1, 0, 1],
        [0, 0, 0],
        [1, 1, 0],
    ], dtype=np.uint8)
    labels, count = workloads.scipy_labels(mask)
    assert count == 3
    assert labels.tolist() == [[0, 0, 1], [2, 0, 1], [0, 0, 0], [3, 3, 0]]


def flip_first_pixel(original):
    def label_map(self, *args, **kwargs):
        out = original(self, *args, **kwargs)
        out[0, 0] ^= 1
        return out
    return label_map


def drop_last(original):
    def method(self, *args, **kwargs):
        return original(self, *args, **kwargs)[:-1]
    return method


CORRUPTIONS = {
    "seg-volume": (Segmentation, "label_map", flip_first_pixel),
    "roi-sr": (StructuredReport, "measurement_groups", drop_last),
    "archive-mix": (WebClient, "search", drop_last),
}


@pytest.mark.parametrize("name", sorted(TINY))
def test_corrupted_output_counts_as_failed(name, monkeypatch):
    owner, attribute, corrupt = CORRUPTIONS[name]
    monkeypatch.setattr(owner, attribute, corrupt(getattr(owner, attribute)))
    result, _, _ = run.measure(TINY[name], SECONDS, trace=True)
    assert not result["correct"]
    assert result["failed"] > 0
    assert result["metrics"]["failed_ratio"]["value"] == pytest.approx(
        result["failed"] / result["attempted"])


def test_wado_byte_mismatch_counts_as_failed(monkeypatch):
    original = WebClient.retrieve_instance_bytes

    def truncated(self, *args):
        return original(self, *args)[:-1]

    monkeypatch.setattr(WebClient, "retrieve_instance_bytes", truncated)
    result, _, _ = run.measure(TINY["archive-mix"], SECONDS, trace=False)
    assert result["failed"] > 0 and not result["correct"]


def test_same_seed_gives_same_inputs():
    import dicomforge as df
    import gen

    a = gen.probability_map(3, 5, 64, 20)
    b = gen.probability_map(3, 5, 64, 20)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, gen.probability_map(4, 5, 64, 20))
    first = [df.write_part10(df.file_meta_for(ds), ds) for ds in gen.ct_series(df, 3, 1, 0, 2, 16)]
    again = [df.write_part10(df.file_meta_for(ds), ds) for ds in gen.ct_series(df, 3, 1, 0, 2, 16)]
    assert first == again
    masks, expected = gen.seg_volume_masks(3, 1, 8, 64)
    assert all(np.array_equal(m, n) for m, n in zip(masks, gen.seg_volume_masks(3, 1, 8, 64)[0]))
    assert expected.max() >= 1


def test_refuses_to_run_without_the_program(tmp_path):
    """With only the benchmark present (no src/), the command fails fast
    and prints no result line."""
    copy = tmp_path / "perfbench"
    copy.mkdir()
    for path in BENCH.glob("*.py"):
        (copy / path.name).write_bytes(path.read_bytes())
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "roi-sr", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
