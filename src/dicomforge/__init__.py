"""dicomforge: encode, decode, and exchange derived DICOM objects.

Layers, bottom up: a self-contained data-set model and Part 10 codec;
coded concepts with small built-in terminologies; SR content items and
measurement-report templates; Segmentation images; pixel <-> reference
affine transforms; mask post-processing (components, contours, boxes);
and a DICOMweb client plus in-repo stub archive. The `dicomforge` CLI
exposes the workflow end to end.
"""

import logging

__version__ = "0.1.0"

# Library records go to the "dicomforge" logger tree; they print only where
# the application configures logging.
logging.getLogger("dicomforge").addHandler(logging.NullHandler())

from .dataset import DataElement, DataSet
from .tags import Tag
from .valuerep import VR
from .codec import decode_dataset, encode_dataset
from .part10 import (
    FileMeta,
    file_meta_for,
    read_part10,
    read_part10_file,
    write_part10,
    write_part10_file,
)
from .coding import (
    CADSR,
    CodedConcept,
    CodeRegistry,
    DCM,
    ICD10CM,
    ICDO3,
    REGISTRIES,
    SCT,
    UCUM,
    concept_equals,
    concept_from_items,
    concept_to_items,
    lookup,
)
from .spatial import (
    AffineMapper,
    PlaneGeometry,
    mapper_from_geometry,
    pixel_to_reference,
    reference_to_pixel,
)
from .roi import (
    BoundingBox,
    Contour,
    LabeledComponents,
    bounding_boxes,
    connected_components,
    threshold,
    trace_contours,
)
from .seg import (
    AlgorithmType,
    FractionalKind,
    FrameRecord,
    SegmentDescription,
    Segmentation,
    SegmentationType,
    create_seg,
    open_seg,
)
from . import sr
from . import web
from .uid import new_uid

__all__ = [
    "__version__",
    "DataElement",
    "DataSet",
    "Tag",
    "VR",
    "decode_dataset",
    "encode_dataset",
    "FileMeta",
    "file_meta_for",
    "read_part10",
    "read_part10_file",
    "write_part10",
    "write_part10_file",
    "CADSR",
    "CodedConcept",
    "CodeRegistry",
    "DCM",
    "ICD10CM",
    "ICDO3",
    "REGISTRIES",
    "SCT",
    "UCUM",
    "concept_equals",
    "concept_from_items",
    "concept_to_items",
    "lookup",
    "AffineMapper",
    "PlaneGeometry",
    "mapper_from_geometry",
    "pixel_to_reference",
    "reference_to_pixel",
    "BoundingBox",
    "Contour",
    "LabeledComponents",
    "bounding_boxes",
    "connected_components",
    "threshold",
    "trace_contours",
    "AlgorithmType",
    "FractionalKind",
    "FrameRecord",
    "SegmentDescription",
    "Segmentation",
    "SegmentationType",
    "create_seg",
    "open_seg",
    "sr",
    "web",
    "new_uid",
]
