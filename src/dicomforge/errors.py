"""Exception types raised across the package.

Every error raised by dicomforge derives from :class:`DicomforgeError` so
callers can catch broadly; the CLI maps subclasses onto exit-code
categories: UsageError is a usage error, the network errors (TransportError,
ProtocolError, ServerStartupError) are network errors, and any other
DicomforgeError is a validation failure.
"""


class DicomforgeError(Exception):
    """Base class for all errors raised by this package."""


class UsageError(DicomforgeError, ValueError):
    """An argument outside what the call accepts (a threshold outside
    [0, 1], an unknown search level, ...). Also a ValueError, which callers
    that check arguments already catch; the CLI exits 2 on it."""


# --- dataset / codec ---

class DecodeError(DicomforgeError):
    """Malformed element stream. Carries the byte offset where decoding failed."""

    def __init__(self, message: str, offset: int | None = None):
        if offset is not None:
            message = f"{message} (at byte offset {offset})"
        super().__init__(message)
        self.offset = offset


class NotASequenceError(DicomforgeError, TypeError):
    """An attribute read as a sequence was written with another VR. Also a
    TypeError, which readers that wrap bad values already catch."""


class EncodeError(DicomforgeError):
    """A value cannot be encoded under its VR rules."""


class NotADicomFileError(DicomforgeError):
    """Stream lacks the 128-byte preamble + 'DICM' magic."""


class UnsupportedTransferSyntaxError(DicomforgeError):
    """Transfer syntax outside the supported read/write set."""


# --- coding ---

class UnknownSchemeError(DicomforgeError):
    """Coding scheme has no built-in registry."""


class UnknownCodeError(DicomforgeError):
    """Key matches neither keyword nor code value within the scheme."""


class MalformedCodeError(DicomforgeError):
    """Code item dataset lacks a code value or scheme designator."""


# --- SR content / templates ---

class InvalidGraphicError(DicomforgeError):
    """Graphic data violates the arity/closure rules of its graphic type."""


class InvalidUnitError(DicomforgeError):
    """Measurement unit is not a UCUM-coded concept."""


class TemplateViolationError(DicomforgeError):
    """A mandatory template item is missing or malformed."""


class MissingReferenceError(DicomforgeError):
    """A 2D image region was supplied without its source-image reference."""


# --- SR documents ---

class EvidenceError(DicomforgeError):
    """Evidence list is empty, spans studies, or misses a referenced instance."""


class ValueTypeForbiddenError(DicomforgeError):
    """Content tree uses a value type the document kind forbids."""


class MissingContentError(DicomforgeError):
    """SR dataset lacks the content sequence needed to iterate items."""


class WrongSopClassError(DicomforgeError):
    """Dataset's SOP class is not handled by the requested reader."""


class NoGeometryError(DicomforgeError):
    """Measurement group has no region to return geometry for."""


# --- segmentation ---

class MaskShapeError(DicomforgeError):
    """Mask dimensions disagree with the source Rows x Columns or frame count."""


class MaskValueError(DicomforgeError):
    """Mask pixel values outside the domain of the segmentation type."""


class SegmentNumberingError(DicomforgeError):
    """Segment descriptions are not numbered consecutively from 1."""


class MalformedSegError(DicomforgeError):
    """SEG attributes are inconsistent (e.g. pixel data length vs frame count)."""


class UnmappedFrameError(DicomforgeError):
    """Requested source frame is neither referenced nor reconstructible."""


class GeometryMismatchError(DicomforgeError):
    """Source instances disagree on orientation/spacing/shape; not resampled."""


# --- spatial ---

class GeometryError(DicomforgeError):
    """Plane orientation is not orthonormal or spacing is not positive."""


class OffPlaneError(DicomforgeError):
    """Point lies further from the plane than the allowed tolerance."""

    def __init__(self, distance: float, tolerance: float):
        super().__init__(
            f"point is {distance:.6g} mm from the plane "
            f"(tolerance {tolerance:.6g} mm)"
        )
        self.distance = distance
        self.tolerance = tolerance


# --- DICOMweb ---

class TransportError(DicomforgeError):
    """HTTP-level failure. Carries status code and a body excerpt."""

    def __init__(self, message: str, status: int | None = None):
        super().__init__(message)
        self.status = status


class NotFoundError(TransportError):
    """Server answered 404 for the requested resource."""

    def __init__(self, message: str):
        super().__init__(message, status=404)


class PartialStoreError(TransportError):
    """Store accepted some instances but rejected others."""

    def __init__(self, failed_sop_instance_uids: list[str], status: int):
        super().__init__(
            "store failed for instances: "
            + ", ".join(failed_sop_instance_uids),
            status=status,
        )
        self.failed_sop_instance_uids = list(failed_sop_instance_uids)


class RejectedInstanceError(DicomforgeError):
    """The archive decoded an instance but refused to store it. Carries the
    SOP class and instance UIDs it read ("" when absent)."""

    def __init__(self, message: str, sop_class_uid: str, sop_instance_uid: str):
        super().__init__(message)
        self.sop_class_uid = sop_class_uid
        self.sop_instance_uid = sop_instance_uid


class ProtocolError(DicomforgeError):
    """Response violates the DICOMweb wire format (e.g. bad multipart)."""


class ServerStartupError(DicomforgeError):
    """The stub server could not bind its port."""
