"""Command-line surface: validate, inspect, create, convert, exchange.

Each command only parses its arguments, hands them to the library and
prints the outcome: `mk-sr` reads the annotation spec with
:func:`dicomforge.sr.report_from_spec` or boxes a SEG's regions with
:func:`dicomforge.sr.report_from_segmentation`.

Exit codes: 0 success, 1 validation failure (any other DicomforgeError: a
bad file, spec or geometry value), 2 usage error (argparse or a
UsageError), 3 I/O error (OSError), 4 network error (TransportError,
ProtocolError: a malformed reply, ServerStartupError). Failures print one
machine-parsable line to stderr: ``ERROR <category>: <detail>``. Any other
exception is a bug and propagates.
"""
from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import __version__
from .coding import parse_code
from .errors import (
    DicomforgeError,
    PartialStoreError,
    ProtocolError,
    ServerStartupError,
    TransportError,
    UsageError,
)
from .part10 import read_part10_file, write_part10_file
from .pgm import read_pgm, write_pgm
from .seg import (
    AlgorithmType,
    SegmentDescription,
    SegmentationType,
    create_seg,
    open_seg,
)
from .spatial import DEFAULT_TOLERANCE_MM, PlaneGeometry, mapper_from_geometry
from .sr import SRKind, open_sr, report_from_segmentation, report_from_spec
from .sr.items import AlgorithmIdentification
from .uid import COMPREHENSIVE_3D_SR_STORAGE, COMPREHENSIVE_SR_STORAGE, SEGMENTATION_STORAGE
from .web import StubArchive, WebClient
from .web.client import _failed_uids
from .web.jsonmodel import dataset_to_json

TOKEN_ENV_VAR = "DICOMFORGE_TOKEN"
# The stderr category and exit code of each error class, the first match
# winning; any other exception is a bug and propagates.
EXIT_CODES = (
    (UsageError, "usage", 2),
    ((TransportError, ProtocolError, ServerStartupError), "network", 4),
    (DicomforgeError, "validation", 1),
    (OSError, "io", 3),
)
SR_KINDS = {"comprehensive": SRKind.COMPREHENSIVE, "comprehensive3d": SRKind.COMPREHENSIVE_3D}


# -- validate ------------------------------------------------------------------


def cmd_validate(args) -> int:
    _, ds = read_part10_file(args.file)
    sop_class = ds.value("SOPClassUID", "")
    if not sop_class or not ds.value("SOPInstanceUID"):
        raise DicomforgeError("dataset lacks SOP class/instance UIDs")
    if sop_class == SEGMENTATION_STORAGE:
        seg = open_seg(ds)
        kind = f"SEG ({seg.seg_type.kind}, {len(seg.descriptions)} segment(s))"
    elif sop_class in (COMPREHENSIVE_SR_STORAGE, COMPREHENSIVE_3D_SR_STORAGE):
        doc = open_sr(ds)
        kind = f"SR ({doc.kind.name}, {len(doc.measurement_groups())} group(s))"
    else:
        kind = ds.value("Modality", "unknown modality")
    print(f"OK {args.file}: {kind}")
    return 0


# -- dump-sr -------------------------------------------------------------------


def _dump_item(item, depth: int) -> None:
    indent = "  " * depth
    rel = f"{item.relationship.value} " if item.relationship else ""
    name = item.name.meaning if item.name else "(unnamed)"
    print(f"{indent}{rel}{item.value_type.value} {name}: {item.summary()}")
    for child in item.children:
        _dump_item(child, depth + 1)


def cmd_dump_sr(args) -> int:
    _, ds = read_part10_file(args.file)
    doc = open_sr(ds)
    _dump_item(doc.tree, 0)
    return 0


# -- mk-seg --------------------------------------------------------------------


def cmd_mk_seg(args) -> int:
    sources = [read_part10_file(path)[1] for path in args.source]
    masks = [read_pgm(path) for path in args.mask]
    if len(masks) != len(sources) or len({mask.shape for mask in masks}) > 1:
        raise DicomforgeError(f"{len(masks)} mask(s) for {len(sources)} source frame(s); "
                              "pass one --mask per source, all of one size")
    stack = np.stack(masks)
    if args.fractional:
        seg_type = SegmentationType.fractional(
            max_fractional_value=args.max_fractional
        )
        stack = stack / 255.0
    else:
        seg_type = SegmentationType.binary()
    name, _, version = (args.algorithm or f"dicomforge-cli:{__version__}").partition(":")
    description = SegmentDescription(
        number=1,
        label=args.label,
        category=parse_code(args.category),
        property_type=parse_code(args.type),
        algorithm_type=AlgorithmType.AUTOMATIC,
        algorithm=AlgorithmIdentification(name, version or "unknown"),
    )
    ds = create_seg(sources, [stack], [description], seg_type,
                    omit_empty=args.omit_empty)
    write_part10_file(args.output, ds)
    print(f"wrote {args.output}: {ds.value('NumberOfFrames')} frame(s)")
    return 0


# -- parse-seg -----------------------------------------------------------------


def cmd_parse_seg(args) -> int:
    _, ds = read_part10_file(args.file)
    seg = open_seg(ds)
    if not seg.seg_type.is_binary:
        raise DicomforgeError("label maps need a BINARY segmentation, not a FRACTIONAL one")
    keys = seg.source_frame_keys()
    if not 1 <= args.frame <= len(keys):
        raise DicomforgeError(
            f"frame {args.frame} out of range 1..{len(keys)}"
        )
    label_map = seg.label_map(keys[args.frame - 1], segments=args.segments)
    if label_map.dtype != np.uint8:
        raise DicomforgeError(
            "segmentation describes segment numbers above 255; PGM cannot hold them")
    write_pgm(args.output, label_map)
    print(f"wrote {args.output}")
    return 0


# -- mk-sr ---------------------------------------------------------------------


def cmd_mk_sr(args) -> int:
    if args.spec:
        try:
            with open(args.spec, "r", encoding="utf-8") as handle:
                spec = json.load(handle)
        except ValueError as exc:  # JSON or UTF-8
            raise DicomforgeError(f"annotation spec is not valid JSON: {exc}")
        ds = report_from_spec(spec, SR_KINDS[args.kind])
    else:
        ds = report_from_segmentation(open_seg(read_part10_file(args.from_seg)[1]),
                                      args.threshold)
    write_part10_file(args.output, ds)
    print(f"wrote {args.output}: {len(open_sr(ds).measurement_groups())} group(s)")
    return 0


# -- coords --------------------------------------------------------------------


def _geometry_from_file(path) -> PlaneGeometry:
    values: dict[str, list[float]] = {}
    # undecodable bytes become U+FFFD, which no key or number holds
    with open(path, "r", encoding="utf-8", errors="replace") as handle:
        for line in handle:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, _, value = line.partition("=")
            try:
                values[key.strip()] = [float(v) for v in value.split(",")]
            except ValueError:  # no "=", or a value that is not a number
                raise DicomforgeError(
                    f"bad geometry line {line!r}; use key=v1,v2,... (numbers)") from None
    # a missing key reads as no values, which PlaneGeometry rejects
    return PlaneGeometry(values.get("position", ()), values.get("orientation", ()),
                         values.get("spacing", ()))


def cmd_coords(args) -> int:
    geometry = _geometry_from_file(args.geometry)
    mapper = mapper_from_geometry(geometry)
    if args.to_ref:
        x, y, z = mapper.pixel_to_reference(args.to_ref)
        print(f"{x:.9g},{y:.9g},{z:.9g}")
    else:
        column, row = mapper.reference_to_pixel(args.to_pixel, tolerance=args.tolerance)
        print(f"{column:.9g},{row:.9g}")
    return 0


# -- DICOMweb ------------------------------------------------------------------


def _client(args) -> WebClient:
    token = args.token or os.environ.get(TOKEN_ENV_VAR)
    return WebClient(args.url, token=token)


def cmd_store(args) -> int:
    blobs = []
    for path in args.file:
        with open(path, "rb") as handle:
            blobs.append(handle.read())
    with _client(args) as client:
        response = client.store_parts(blobs)
    for item in response.items_of("ReferencedSOPSequence"):
        print(f"stored {item.value('ReferencedSOPInstanceUID')}")
    failed = _failed_uids(response)
    if failed:
        raise PartialStoreError(failed, status=202)
    return 0


def cmd_retrieve(args) -> int:
    with _client(args) as client:
        blob = client.retrieve_instance_bytes(args.study, args.series, args.sop)
    with open(args.output, "wb") as handle:
        handle.write(blob)
    print(f"wrote {args.output}: {len(blob)} bytes")
    return 0


def cmd_search(args) -> int:
    query = {}
    for item in args.filter or []:
        if "=" not in item:
            raise DicomforgeError(f"filters are KEY=VALUE, got {item!r}")
        key, _, value = item.partition("=")
        query[key] = value
    with _client(args) as client:
        records = client.search(args.level, query, limit=args.limit, offset=args.offset)
    for record in records:
        print(json.dumps(dataset_to_json(record), sort_keys=True))
    return 0


def cmd_serve(args) -> int:
    archive = StubArchive(port=args.port, snapshot_dir=args.dir).start()
    print(f"stub archive listening on {archive.base_url}")
    try:
        import threading
        threading.Event().wait()
    except KeyboardInterrupt:
        pass
    finally:
        archive.stop()
    return 0


# -- plumbing ------------------------------------------------------------------


def _comma_separated(convert):
    """An argparse type: comma-separated values, each read by `convert`."""
    def numbers(text):  # argparse names it: "invalid numbers value"
        return [convert(v) for v in text.split(",")]
    return numbers


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dicomforge",
        description="Encode, decode and exchange derived DICOM objects.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a file's structure")
    p.add_argument("file")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("dump-sr", help="print an SR content tree")
    p.add_argument("file")
    p.set_defaults(func=cmd_dump_sr)

    p = sub.add_parser("mk-seg", help="build a SEG from PGM masks")
    p.add_argument("--source", action="append", required=True,
                   help="source instance file (repeat per frame)")
    p.add_argument("--mask", action="append", required=True,
                   help="P5 PGM mask, one per source frame")
    p.add_argument("--label", required=True)
    p.add_argument("--category", required=True, metavar="SCHEME:CODE[:MEANING]")
    p.add_argument("--type", required=True, metavar="SCHEME:CODE[:MEANING]")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--binary", action="store_true", default=True)
    group.add_argument("--fractional", action="store_true")
    p.add_argument("--max-fractional", type=int, default=255)
    p.add_argument("--omit-empty", action="store_true")
    p.add_argument("--algorithm", metavar="NAME:VERSION",
                   help="the algorithm that made the masks; the SEG keeps only NAME")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_mk_seg)

    p = sub.add_parser("parse-seg", help="write a label map PGM for one frame")
    p.add_argument("file")
    p.add_argument("--frame", type=int, required=True,
                   help="1-based source frame index")
    p.add_argument("--segments", type=_comma_separated(int),
                   help="comma-separated subset of segment numbers")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_parse_seg)

    p = sub.add_parser("mk-sr", help="build an SR from a JSON spec or a SEG")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--spec", help="annotation spec (JSON)")
    group.add_argument("--from-seg", help="derive bounding-box SR from a SEG file")
    p.add_argument("--threshold", type=float, default=0.5,
                   help="probability threshold for fractional SEGs")
    p.add_argument("--kind", choices=SR_KINDS, default="comprehensive3d")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_mk_sr)

    p = sub.add_parser("coords", help="convert pixel <-> reference coordinates")
    p.add_argument("--geometry", required=True,
                   help="text file: position=..., orientation=..., spacing=...")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--to-ref", metavar="COL,ROW", type=_comma_separated(float))
    group.add_argument("--to-pixel", metavar="X,Y,Z", type=_comma_separated(float))
    p.add_argument("--tolerance", type=float, default=DEFAULT_TOLERANCE_MM)
    p.set_defaults(func=cmd_coords)

    p = sub.add_parser("store", help="STOW-RS store files")
    p.add_argument("--url", required=True)
    p.add_argument("--token")
    p.add_argument("file", nargs="+")
    p.set_defaults(func=cmd_store)

    p = sub.add_parser("retrieve", help="WADO-RS retrieve one instance")
    p.add_argument("--url", required=True)
    p.add_argument("--token")
    p.add_argument("study")
    p.add_argument("series")
    p.add_argument("sop")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_retrieve)

    p = sub.add_parser("search", help="QIDO-RS search")
    p.add_argument("--url", required=True)
    p.add_argument("--token")
    p.add_argument("--level", choices=["studies", "series", "instances"],
                   default="instances")
    p.add_argument("--filter", action="append", metavar="KEY=VALUE")
    p.add_argument("--limit", type=int)
    p.add_argument("--offset", type=int)
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("serve", help="run the in-memory stub archive")
    p.add_argument("--port", type=int, default=8042)
    p.add_argument("--dir", help="snapshot directory for stored instances")
    p.set_defaults(func=cmd_serve)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        if exc.code in (0, None):
            return 0
        print("ERROR usage: invalid arguments", file=sys.stderr)
        return 2
    try:
        return args.func(args)
    except (DicomforgeError, OSError) as exc:
        category, code = next((category, code) for classes, category, code in EXIT_CODES
                              if isinstance(exc, classes))
        print(f"ERROR {category}: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
