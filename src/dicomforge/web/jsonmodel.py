"""Attribute-keyed textual metadata model (the DICOM JSON representation).

Used for QIDO-RS search responses and STOW-RS store responses: objects keyed
by 'GGGGEEEE' with `vr` and `Value` members. Bulk VRs are excluded.
"""
from __future__ import annotations

from ..dataset import DataElement, DataSet
from ..errors import ProtocolError
from ..tags import Tag, vr_of
from ..valuerep import BYTES_VRS, TEXT_SINGLE_VRS, VR, format_ds

_EXCLUDED = BYTES_VRS  # bulk data has no place in the metadata model


def _element_values(element: DataElement) -> list | None:
    vr = element.vr
    if vr is VR.SQ:
        return [dataset_to_json(item) for item in element.values]
    if vr is VR.PN:
        return [{"Alphabetic": v} for v in element.values]
    if vr is VR.DS:
        return [float(v) for v in element.values]
    values = list(element.values)
    return values or None


def dataset_to_json(ds: DataSet) -> dict:
    """Serialize to the attribute-keyed model, skipping bulk-data elements."""
    out: dict[str, dict] = {}
    for element in ds:
        if element.vr in _EXCLUDED:
            continue
        entry: dict = {"vr": element.vr.value}
        values = _element_values(element)
        if values:
            entry["Value"] = values
        out[f"{element.tag.group:04X}{element.tag.element:04X}"] = entry
    return out


def dataset_from_json(obj: dict) -> DataSet:
    """Parse the attribute-keyed model back into a DataSet. A malformed
    object raises ProtocolError naming the attribute: a bad key or VR, a
    `Value` that is not an array, or a value its VR cannot hold."""
    if not isinstance(obj, dict):
        raise ProtocolError(f"metadata object is not a JSON object: {obj!r:.80}")
    ds = DataSet()
    for key, entry in obj.items():
        if not isinstance(entry, dict):
            raise ProtocolError(f"attribute {key!r} is not a JSON object")
        values = entry.get("Value", [])
        if not isinstance(values, list):
            raise ProtocolError(f"attribute {key}: Value is not an array")
        try:
            tag = Tag(int(key[:4], 16), int(key[4:8], 16))
            vr = VR(entry.get("vr") or vr_of(tag).value)
            if vr is VR.SQ:
                value = tuple(dataset_from_json(item) for item in values)
            elif vr is VR.PN:
                value = [
                    v.get("Alphabetic", "") if isinstance(v, dict) else str(v)
                    for v in values
                ]
            elif vr is VR.DS:
                value = [v if isinstance(v, str) else format_ds(float(v)) for v in values]
            elif vr in BYTES_VRS:
                continue  # bulk is excluded from this model
            elif vr in TEXT_SINGLE_VRS:
                value = str(values[0]) if values else ""
            else:
                value = list(values)
            ds.add(DataElement(tag, vr, value))
        except (TypeError, ValueError) as exc:  # a bad key, VR or value
            raise ProtocolError(f"attribute {key}: {exc}") from None
    return ds
