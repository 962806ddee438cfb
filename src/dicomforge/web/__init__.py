"""DICOMweb RESTful exchange: client and in-repo stub archive."""

from .client import InstanceRef, WebClient
from .jsonmodel import dataset_from_json, dataset_to_json
from .multipart import build_multipart, parse_multipart, random_boundary
from .server import StubArchive

__all__ = [
    "InstanceRef",
    "WebClient",
    "dataset_from_json",
    "dataset_to_json",
    "build_multipart",
    "parse_multipart",
    "random_boundary",
    "StubArchive",
]
