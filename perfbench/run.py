#!/usr/bin/env python3
"""Round-trip benchmark for dicomforge.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload seg-volume --seed 1 --seconds 20 --trace 0

One process, one client in a closed loop against an in-process
`StubArchive`: each item starts only after the previous one completed.
Inputs come from ``(seed, item index)``. ``setup_s`` runs from process
start to the first timed item: imports, archive start, preload and a warm-up
item, less the benchmark's own work in between (building inputs, checking
the warm-up item's outputs).

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` runs every
item twice, untraced and traced, and reports the per-layer metrics (self time
and counts per item, from spans around each public call) plus the tracing
overhead. The last line of standard output is one JSON object; the full
result and, for traced runs, the spans are written under ``perfbench/out``.
"""
import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
TAIL_CAP = 95.0

END_TO_END = {
    "setup_s": "s",
    "store_ms.p50": "ms", "retrieve_ms.p50": "ms", "search_ms.p50": "ms",
    "items_per_s": "1/s",
    "peak_rss_mb": "MB",
}
PHASES = ("store", "retrieve", "search")
# Tails spread more between runs on a shared machine than an end-to-end bound
# allows, so they are reported with the per-layer metrics, which are not gated.
TAILS = tuple(f"{phase}_ms.tail" for phase in PHASES)
# span name -> per-layer metric "<span>.self_s"
SELF_TIMES = (
    "roi.threshold", "roi.connected_components", "roi.bounding_boxes",
    "roi.trace_contours", "spatial.pixel_to_reference", "sr.build_groups",
    "sr.create_sr", "sr.open_sr", "sr.measurement_groups", "seg.create_seg",
    "seg.open_seg", "seg.label_map", "part10.write_part10", "part10.read_part10",
    "web.store_parts", "web.retrieve_instance_bytes", "web.search",
)
COUNTS = {
    "roi.components": "count/item", "roi.foreground_px": "count/item",
    "spatial.pixel_to_reference.calls": "count/item", "sr.groups": "count/item",
    "seg.label_map.calls": "count/item", "seg.frames_emitted": "count/item",
    "part10.bytes_written": "B/item", "part10.bytes_read": "B/item",
    "web.requests": "count/item", "web.failed": "count/item",
    "web.bytes_sent": "B/item", "web.bytes_received": "B/item",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("seg-volume", "roi-sr", "archive-mix"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def load_program():
    """Import dicomforge from this checkout's ``src`` and nowhere else."""
    if not (SRC / "dicomforge" / "__init__.py").is_file():
        raise SystemExit(f"error: no dicomforge sources under {SRC}")
    sys.path[:0] = [str(SRC), str(HERE)]
    import dicomforge

    if Path(dicomforge.__file__).resolve().parent != SRC / "dicomforge":
        raise SystemExit(f"error: imported dicomforge from {dicomforge.__file__}")


def tail(values):
    """(value, percentile): p95, or, below 200 samples, the highest
    percentile with ten samples beyond it, 100 * (1 - 10 / n); the maximum
    below 20 samples, where that percentile would fall under the median.

    Capping at p95 keeps a tail from resting on the handful of rarest
    events (collector pauses, a neighbour's burst), which differ from run
    to run."""
    n = len(values)
    if n < 20:
        return max(values), 100.0
    p = min(TAIL_CAP, 100 * (1 - 10 / n))
    return percentile(values, p), p


def percentile(values, p):
    ordered = sorted(values)
    rank = (len(ordered) - 1) * p / 100
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


class Loop:
    """Closed-loop driver: items run one after another until time is up."""

    def __init__(self, workload):
        self.workload = workload
        self.samples = defaultdict(list)
        self.attempted = 0
        self.failed = 0
        self.next_index = 0
        self.untimed_s = 0.0  # benchmark work around the item spans: inputs, checks

    def run_one(self, index: int | None = None) -> None:
        if index is None:
            index = self.next_index
            self.next_index += 1
        self.attempted += 1
        # Every item starts from the same collector state, so the collections
        # that fall inside it depend on its own allocations, not on how much
        # garbage the items before it left.
        gc.collect()
        started = time.perf_counter()
        try:
            timings = self.workload.run_item(index)
        except Exception:  # every failure is counted, none ends the run
            self.failed += 1
            if self.failed <= 3:
                print(f"item {index} failed:", file=sys.stderr)
                traceback.print_exc(file=sys.stderr)
            return
        item_s = timings.pop("item")
        self.untimed_s += time.perf_counter() - started - item_s
        self.samples["item"].append(item_s)
        for phase, seconds in timings.items():
            self.samples[phase].extend(seconds)

    def run_for(self, seconds: float) -> None:
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline:
            self.run_one()


def end_to_end(loop, setup_s):
    metrics = {"setup_s": setup_s}
    for phase in PHASES:
        if loop.samples[phase]:
            metrics[f"{phase}_ms.p50"] = 1000 * percentile(loop.samples[phase], 50)
    items = loop.samples["item"]
    metrics["items_per_s"] = len(items) / sum(items) if items else 0.0
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return metrics


def tails(loop):
    """Each phase's tail (ms) with its percentile and sample count."""
    found = {}
    for phase in PHASES:
        if loop.samples[phase]:
            value, p = tail(loop.samples[phase])
            found[f"{phase}_ms.tail"] = {"value": 1000 * value, "unit": "ms",
                                         "percentile": p, "samples": len(loop.samples[phase])}
    return found


def per_layer(loop, tracer, untraced_item_s):
    items = max(loop.attempted, 1)
    self_times = tracer.self_times()
    metrics = {f"{name}.self_s": self_times.get(name, 0.0) / items for name in SELF_TIMES}
    metrics.update({name: tracer.counts.get(name, 0.0) / items for name in COUNTS})
    metrics["seg.create_seg.peak_mb"] = tracer.maxima.get("seg.create_seg.peak_mb", 0.0)
    possible = tracer.counts.get("seg.frames_possible", 0.0)
    metrics["seg.frames_emitted_ratio"] = (
        tracer.counts.get("seg.frames_emitted", 0.0) / possible if possible else 0.0)
    metrics["bench.unattributed_s"] = self_times.get("item", 0.0) / items
    traced = statistics.fmean(loop.samples["item"]) if loop.samples["item"] else 0.0
    metrics["trace.overhead_ratio"] = traced / untraced_item_s if untraced_item_s else 0.0
    return metrics


def per_layer_unit(name):
    if name.endswith(".self_s") or name == "bench.unattributed_s":
        return "s/item"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("peak_mb"):
        return "MB"
    if name in TAILS:
        return "ms"
    return COUNTS[name]


def measure(make_workload, seconds: float, trace: bool, started: float | None = None):
    """Set up (start an archive, preload it, run the warm-up item 0), run
    the timed loop, and return the result object, the tails of the
    untraced items (see `tails`) and the tracer. Set-up time counts from
    `started` (default: now)."""
    from dicomforge.web import StubArchive, WebClient
    from spans import Tracer

    if started is None:
        started = time.perf_counter()
    archive = StubArchive().start()
    tracer = None
    try:
        loop = Loop(make_workload(WebClient(archive.base_url), Tracer(False)))
        loop.workload.setup()
        # The preloaded archive index is the server's long-lived heap, which
        # in a deployment lives in another process; frozen, it is left out of
        # the client-side work's full collections.
        gc.collect()
        gc.freeze()
        loop.run_one()
        setup_s = (time.perf_counter() - started
                   - loop.workload.untimed_s - loop.untimed_s)
        loop.samples.clear()  # the warm-up counts toward set-up, not the loop
        loops = [loop]
        if trace:
            # every item runs twice back to back, untraced and traced, on the
            # same archive state; alternating which goes first keeps the
            # second run's warm caches out of the overhead ratio
            tracer = Tracer(True)
            traced = Loop(loop.workload)
            loops.append(traced)
            pair = ((loop, loop.workload.tracer), (traced, tracer))
            deadline = time.perf_counter() + seconds
            while time.perf_counter() < deadline:
                index = loop.next_index
                loop.next_index += 1
                for runner, active in (pair if index % 2 else pair[::-1]):
                    loop.workload.tracer = active
                    runner.run_one(index)
            untraced_item_s = statistics.fmean(loop.samples["item"] or [0.0])
            metrics = per_layer(traced, tracer, untraced_item_s)
            details = tails(loop)
            metrics.update({name: details.get(name, {"value": 0.0})["value"] for name in TAILS})
        else:
            loop.run_for(seconds)
            metrics = end_to_end(loop, setup_s)
            details = tails(loop)
    finally:
        archive.stop()
        gc.unfreeze()

    # the warm-up item counts as attempted too, so a failing warm-up shows
    attempted = sum(each.attempted for each in loops)
    failed = sum(each.failed for each in loops)
    if trace:
        metrics["failed_ratio"] = failed / attempted
        units = {name: per_layer_unit(name) for name in metrics}
    else:
        units = END_TO_END
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics.get(name, 0.0), "unit": unit}
                    for name, unit in units.items()},
    }
    return result, details, tracer


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        raise SystemExit("error: --seconds must be positive")
    load_program()
    import workloads

    factory = workloads.WORKLOADS[args.workload]
    result, details, tracer = measure(
        lambda client, tracer: factory(client, tracer, args.seed),
        args.seconds, bool(args.trace), _STARTED)

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(OUT / f"{stem}.json", "w", encoding="utf-8") as handle:
        json.dump({**result, "details": details}, handle, indent=1)
    if tracer is not None:
        tracer.write(OUT / f"{stem}.spans.json")
    for name, entry in {**result["metrics"], **details}.items():
        extra = details.get(name)
        note = f"  (p{extra['percentile']:g} of {extra['samples']})" if extra else ""
        print(f"{name:40s} {entry['value']:14.6g} {entry['unit']}{note}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
