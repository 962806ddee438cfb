"""DICOM Part 10 file format: 128-byte preamble, 'DICM', file meta, data set."""
from __future__ import annotations

from dataclasses import dataclass

from .codec import decode_file_body, encode_dataset
from .dataset import DataElement, DataSet
from .errors import NotADicomFileError, UnsupportedTransferSyntaxError
from .tags import Tag
from .uid import (
    EXPLICIT_VR_LITTLE_ENDIAN,
    IMPLEMENTATION_CLASS_UID,
    IMPLEMENTATION_VERSION_NAME,
    WRITE_TRANSFER_SYNTAXES,
)
from .valuerep import VR

MAGIC = b"DICM"
PREAMBLE = b"\x00" * 128


@dataclass(frozen=True)
class FileMeta:
    """Group-0002 file meta information."""

    media_storage_sop_class_uid: str
    media_storage_sop_instance_uid: str
    transfer_syntax_uid: str = EXPLICIT_VR_LITTLE_ENDIAN
    implementation_class_uid: str = IMPLEMENTATION_CLASS_UID
    implementation_version_name: str = IMPLEMENTATION_VERSION_NAME


def file_meta_for(ds: DataSet) -> FileMeta:
    """Derive file meta for a dataset carrying SOPClassUID/SOPInstanceUID."""
    sop_class = ds.value("SOPClassUID")
    sop_instance = ds.value("SOPInstanceUID")
    if not sop_class or not sop_instance:
        raise ValueError("dataset lacks SOPClassUID/SOPInstanceUID")
    return FileMeta(sop_class, sop_instance)


def _meta_elements(meta: FileMeta) -> list[DataElement]:
    return [
        DataElement(Tag(0x0002, 0x0001), VR.OB, b"\x00\x01"),
        DataElement(Tag(0x0002, 0x0002), VR.UI, meta.media_storage_sop_class_uid),
        DataElement(Tag(0x0002, 0x0003), VR.UI, meta.media_storage_sop_instance_uid),
        DataElement(Tag(0x0002, 0x0010), VR.UI, meta.transfer_syntax_uid),
        DataElement(Tag(0x0002, 0x0012), VR.UI, meta.implementation_class_uid),
        DataElement(Tag(0x0002, 0x0013), VR.SH, meta.implementation_version_name),
    ]


def write_part10(meta: FileMeta, ds: DataSet) -> bytes:
    """Serialize to Part 10 bytes: preamble, magic, file meta, data set.

    The file meta group is always explicit VR little endian; the main data
    set is written in the transfer syntax named by `meta`, which must be a
    supported write syntax.
    """
    if meta.transfer_syntax_uid not in WRITE_TRANSFER_SYNTAXES:
        raise UnsupportedTransferSyntaxError(
            f"cannot write transfer syntax {meta.transfer_syntax_uid}; "
            "explicit VR little endian is the only write syntax"
        )
    meta_ds = DataSet(_meta_elements(meta))
    meta_bytes = encode_dataset(meta_ds)
    group_length = DataElement(Tag(0x0002, 0x0000), VR.UL, len(meta_bytes))
    head = DataSet([group_length])
    return b"".join((PREAMBLE, MAGIC, encode_dataset(head), meta_bytes,
                     encode_dataset(ds, meta.transfer_syntax_uid)))


def read_part10(data: bytes) -> tuple[FileMeta, DataSet]:
    """Parse Part 10 bytes into (FileMeta, DataSet).

    Raises NotADicomFileError when the 'DICM' magic is absent and
    UnsupportedTransferSyntaxError when the declared syntax is outside the
    supported read set (the message names the UID).
    """
    if len(data) < 132 or data[128:132] != MAGIC:
        raise NotADicomFileError("missing 'DICM' magic at offset 128")
    meta_ds, ds = decode_file_body(data, 132)
    meta = FileMeta(
        media_storage_sop_class_uid=meta_ds.value("MediaStorageSOPClassUID", ""),
        media_storage_sop_instance_uid=meta_ds.value("MediaStorageSOPInstanceUID", ""),
        transfer_syntax_uid=meta_ds.value("TransferSyntaxUID"),
        implementation_class_uid=meta_ds.value("ImplementationClassUID", ""),
        implementation_version_name=meta_ds.value("ImplementationVersionName", ""),
    )
    return meta, ds


def write_part10_file(path, ds: DataSet, meta: FileMeta | None = None) -> None:
    if meta is None:
        meta = file_meta_for(ds)
    with open(path, "wb") as handle:
        handle.write(write_part10(meta, ds))


def read_part10_file(path) -> tuple[FileMeta, DataSet]:
    with open(path, "rb") as handle:
        return read_part10(handle.read())
