"""Value representations and their byte-level encoding rules (PS3.5 subset)."""
import enum
import re
import struct


class VR(str, enum.Enum):
    """Supported value representations."""

    AE = "AE"
    AS = "AS"
    AT = "AT"
    CS = "CS"
    DA = "DA"
    DS = "DS"
    DT = "DT"
    FD = "FD"
    FL = "FL"
    IS = "IS"
    LO = "LO"
    LT = "LT"
    OB = "OB"
    OD = "OD"
    OF = "OF"
    OW = "OW"
    PN = "PN"
    SH = "SH"
    SL = "SL"
    SQ = "SQ"
    SS = "SS"
    ST = "ST"
    TM = "TM"
    UC = "UC"
    UI = "UI"
    UL = "UL"
    UN = "UN"
    UR = "UR"
    US = "US"
    UT = "UT"

    def __str__(self) -> str:  # so f"{vr}" gives "LO", not "VR.LO"
        return self.value


# VRs written with the 12-byte explicit header (2-byte VR + 2 reserved +
# 4-byte length); everything else uses the 8-byte header with 2-byte length.
LONG_FORM_VRS = frozenset({
    VR.OB, VR.OD, VR.OF, VR.OW, VR.SQ, VR.UC, VR.UN, VR.UR, VR.UT,
})

# Multi-valued string VRs: components joined by backslash on encode.
TEXT_MULTI_VRS = frozenset({
    VR.AE, VR.AS, VR.CS, VR.DA, VR.DS, VR.DT, VR.LO, VR.PN, VR.SH, VR.TM,
    VR.UC, VR.UI,
})
# Single-valued text VRs: backslash is ordinary content, never a separator.
TEXT_SINGLE_VRS = frozenset({VR.LT, VR.ST, VR.UR, VR.UT})
TEXT_VRS = TEXT_MULTI_VRS | TEXT_SINGLE_VRS

BYTES_VRS = frozenset({VR.OB, VR.OD, VR.OF, VR.OW, VR.UN})

# Binary integer VRs (the codec's `_NUMERIC` holds their formats).
INT_VRS = frozenset({VR.US, VR.SS, VR.UL, VR.SL})

# Maximum encoded length of a single value, in bytes. None = unrestricted.
MAX_VALUE_LENGTH: dict[VR, int | None] = {
    VR.AE: 16, VR.AS: 4, VR.CS: 16, VR.DA: 18, VR.DS: 16, VR.DT: 54,
    VR.IS: 12, VR.LO: 64, VR.LT: 10240, VR.PN: 324, VR.SH: 16, VR.ST: 1024,
    VR.TM: 28, VR.UI: 64, VR.UC: None, VR.UR: None, VR.UT: None,
}


def padding_byte(vr: VR) -> bytes:
    """Trailing pad used to even out the value length for `vr`."""
    if vr is VR.UI or vr in BYTES_VRS:
        return b"\x00"
    return b" "


_DS_RE = re.compile(r"^[+-]?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?$")


def is_valid_ds(value: str) -> bool:
    """True if `value` is a decimal string acceptable for VR DS (<=16 chars)."""
    return 0 < len(value) <= 16 and _DS_RE.match(value) is not None


def format_ds(value: float | int) -> str:
    """Render a number as a decimal string of at most 16 characters."""
    if isinstance(value, bool):
        raise ValueError("booleans are not decimal values")
    if isinstance(value, int):
        text = str(value)
        if len(text) > 16:
            raise ValueError(f"integer {value} does not fit in 16 characters")
        return text
    if value != value or value in (float("inf"), float("-inf")):
        raise ValueError("decimal strings must be finite")
    for precision in range(15, 0, -1):
        text = f"{value:.{precision}g}"
        # the shortened decimal must also parse back to a finite float
        # (rounding near DBL_MAX can otherwise overflow)
        if len(text) <= 16 and abs(float(text)) != float("inf"):
            return text
    raise ValueError(f"cannot represent {value!r} in 16 characters")


def float32_round_trip(values: tuple[float, ...]) -> tuple[float, ...]:
    """Quantize each value to the nearest IEEE-754 single, as storage under
    VR FL will; a finite value beyond single range raises OverflowError."""
    fmt = f"<{len(values)}f"
    return struct.unpack(fmt, struct.pack(fmt, *values))
