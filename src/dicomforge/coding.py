"""Coded concepts and the built-in terminology registries.

A :class:`CodedConcept` carries (value, scheme, meaning, optional version).
Equality compares value, scheme designator, and scheme version; the meaning
is documentation only and never participates. Each concept builds its
code-sequence item once and hands out that one data set from then on.
Registries for the handful of schemes this package works with (DCM, SCT,
UCUM, caDSR, ICD-O-3, ICD-10-CM) ship the codes needed for lung-tumor
annotation workflows; concepts outside the registries are perfectly legal
values, the registries are a convenience.
"""
from __future__ import annotations

from .dataset import DataSet
from .errors import MalformedCodeError, UnknownCodeError, UnknownSchemeError
from .tags import TAGS


class CodedConcept:
    """A terminology code: value + scheme designator + meaning (+ version)."""

    # `_items` holds the code-sequence item once concept_to_items built it;
    # it lives on the concept (not in a cache keyed by equality) because
    # equal concepts may differ in meaning.
    __slots__ = ("value", "scheme", "meaning", "version", "_items")

    def __init__(self, value: str, scheme: str, meaning: str, version: str | None = None):
        if not value:
            raise ValueError("code value must be non-empty")
        if not scheme:
            raise ValueError("coding scheme designator must be non-empty")
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "scheme", scheme)
        object.__setattr__(self, "meaning", meaning)
        object.__setattr__(self, "version", version)
        object.__setattr__(self, "_items", None)

    def __setattr__(self, name, _value):
        raise AttributeError("CodedConcept is immutable")

    def __reduce__(self):
        # copies and pickles are built afresh, without the cached item
        return type(self), (self.value, self.scheme, self.meaning, self.version)

    def __eq__(self, other) -> bool:
        if not isinstance(other, CodedConcept):
            return NotImplemented
        return (
            self.value == other.value
            and self.scheme == other.scheme
            and self.version == other.version
        )

    def __ne__(self, other) -> bool:
        result = self.__eq__(other)
        return result if result is NotImplemented else not result

    def __hash__(self) -> int:
        return hash((self.value, self.scheme, self.version))

    def __repr__(self) -> str:
        version = f", version={self.version!r}" if self.version else ""
        return f"CodedConcept({self.value!r}, {self.scheme!r}, {self.meaning!r}{version})"


def concept_equals(a: CodedConcept, b: CodedConcept) -> bool:
    """True when the two concepts denote the same code.

    Code values and scheme designators must match; scheme versions are
    compared as well (absent versions only match absent versions), keeping
    the relation a true equivalence. Meanings are ignored: synonyms mapping
    to one code compare equal.
    """
    return a == b


def concept_to_items(concept: CodedConcept) -> DataSet:
    """Serialize to the code-sequence item attributes.

    Values longer than 16 characters go to the long-code attribute instead
    of the 16-character code value. The item is built on the first call and
    the same data set is returned on every later one, so it must not be
    mutated.
    """
    ds = concept._items
    if ds is not None:
        return ds
    ds = DataSet()
    if len(concept.value) <= 16:
        ds.put("CodeValue", concept.value)
    else:
        ds.put("LongCodeValue", concept.value)
    ds.put("CodingSchemeDesignator", concept.scheme)
    if concept.version is not None:
        ds.put("CodingSchemeVersion", concept.version)
    ds.put("CodeMeaning", concept.meaning)
    object.__setattr__(concept, "_items", ds)
    return ds


def concept_from_items(ds: DataSet) -> CodedConcept:
    """Inverse of :func:`concept_to_items`.

    Raises MalformedCodeError when the value or scheme attribute is absent.
    """
    value = (ds.value(TAGS.CodeValue) or ds.value(TAGS.LongCodeValue)
             or ds.value(TAGS.URNCodeValue))
    scheme = ds.value(TAGS.CodingSchemeDesignator)
    if not value or not scheme:
        raise MalformedCodeError(
            "code item needs a code value and a coding scheme designator"
        )
    return CodedConcept(value, scheme, ds.value(TAGS.CodeMeaning, ""),
                        ds.value(TAGS.CodingSchemeVersion))


class CodeRegistry:
    """Keyword -> concept mapping for one coding scheme."""

    def __init__(self, scheme: str, entries: dict[str, tuple[str, str]]):
        self.scheme = scheme
        self._by_keyword: dict[str, CodedConcept] = {}
        self._by_value: dict[str, CodedConcept] = {}
        for keyword, (value, meaning) in entries.items():
            concept = CodedConcept(value, scheme, meaning)
            if keyword in self._by_keyword:
                raise ValueError(f"duplicate keyword {keyword} in {scheme} registry")
            self._by_keyword[keyword] = concept
            self._by_value.setdefault(value, concept)

    def __getattr__(self, keyword: str) -> CodedConcept:
        try:
            return self._by_keyword[keyword]
        except KeyError:
            raise AttributeError(
                f"no code named {keyword!r} in scheme {self.scheme}"
            ) from None

    def get(self, key: str) -> CodedConcept:
        """Look up by keyword or by code value."""
        concept = self._by_keyword.get(key) or self._by_value.get(key)
        if concept is None:
            raise UnknownCodeError(f"no code {key!r} in scheme {self.scheme}")
        return concept

    def keywords(self) -> list[str]:
        return sorted(self._by_keyword)

    def __iter__(self):
        return iter(self._by_keyword.values())


DCM = CodeRegistry("DCM", {
    "ImagingMeasurementReport": ("126000", "Imaging Measurement Report"),
    "ImagingMeasurements": ("126010", "Imaging Measurements"),
    "MeasurementGroup": ("125007", "Measurement Group"),
    "ImageLibrary": ("111028", "Image Library"),
    "ImageRegion": ("111030", "Image Region"),
    "Finding": ("121071", "Finding"),
    "ProcedureReported": ("121058", "Procedure reported"),
    "ObserverType": ("121005", "Observer Type"),
    "Person": ("121006", "Person"),
    "Device": ("121007", "Device"),
    "PersonObserverName": ("121008", "Person Observer Name"),
    "DeviceObserverUID": ("121012", "Device Observer UID"),
    "DeviceObserverName": ("121013", "Device Observer Name"),
    "DeviceObserverManufacturer": ("121014", "Device Observer Manufacturer"),
    "AlgorithmName": ("111001", "Algorithm Name"),
    "AlgorithmVersion": ("111003", "Algorithm Version"),
    "AlgorithmParameters": ("111002", "Algorithm Parameters"),
    "TrackingIdentifier": ("112039", "Tracking Identifier"),
    "TrackingUniqueIdentifier": ("112040", "Tracking Unique Identifier"),
    "ReferencedSegment": ("121191", "Referenced Segment"),
    "SourceOfMeasurement": ("121112", "Source of measurement"),
    "SourceImageForImageProcessingOperation": (
        "121322", "Source image for image processing operation"),
    "Segmentation": ("113076", "Segmentation"),
    "ImagingProcedure": ("112703", "Imaging procedure"),
})

SCT = CodeRegistry("SCT", {
    "Neoplasm": ("108369006", "Neoplasm"),
    "Tumor": ("108369006", "Tumor"),
    "MorphologicallyAbnormalStructure": ("49755003", "Morphologically Abnormal Structure"),
    "Nodule": ("27925004", "Nodule"),
    "Volume": ("118565006", "Volume"),
    "Diameter": ("81827009", "Diameter"),
    "Area": ("42798000", "Area"),
    "Morphology": ("116676008", "Morphology"),
    "Topography": ("116677004", "Topography"),
    "FindingSite": ("363698007", "Finding Site"),
    "Lung": ("39607008", "Lung"),
    "Bronchus": ("955009", "Bronchus"),
    "Thorax": ("51185008", "Thorax"),
    "ImagingProcedure": ("363679005", "Imaging procedure"),
    "CTOfChest": ("169069000", "CT of chest"),
})

UCUM = CodeRegistry("UCUM", {
    "mm": ("mm", "millimeter"),
    "mm2": ("mm2", "square millimeter"),
    "mm3": ("mm3", "cubic millimeter"),
    "percent": ("%", "percent"),
    "NoUnits": ("1", "no units"),
})

CADSR = CodeRegistry("caDSR", {
    "PercentTumorCells": ("5432686", "Percent tumor cells"),
    "PercentTumorNuclei": ("5455534", "Percent tumor nuclei"),
    "SpecimenNecrosis": ("5455511", "Specimen necrosis"),
})

ICDO3 = CodeRegistry("ICD-O-3", {
    "AdenocarcinomaNOS": ("8140/3", "Adenocarcinoma, NOS"),
    "SquamousCellCarcinomaNOS": ("8070/3", "Squamous cell carcinoma, NOS"),
    "NormalTissue": ("8000/0", "Neoplasm, benign"),
})

ICD10CM = CodeRegistry("ICD-10-CM", {
    "MainBronchus": ("C34.0", "Malignant neoplasm of main bronchus"),
    "UpperLobeBronchusOrLung": ("C34.1", "Malignant neoplasm of upper lobe, bronchus or lung"),
    "LowerLobeBronchusOrLung": ("C34.3", "Malignant neoplasm of lower lobe, bronchus or lung"),
})

REGISTRIES: dict[str, CodeRegistry] = {
    r.scheme: r for r in (DCM, SCT, UCUM, CADSR, ICDO3, ICD10CM)
}


def lookup(scheme: str, key: str) -> CodedConcept:
    """Fetch a registry entry by keyword or code value.

    Raises UnknownSchemeError for unregistered schemes and UnknownCodeError
    (naming the scheme) when the key matches nothing.
    """
    registry = REGISTRIES.get(scheme)
    if registry is None:
        raise UnknownSchemeError(
            f"no registry for scheme {scheme!r}; "
            f"known schemes: {', '.join(sorted(REGISTRIES))}"
        )
    return registry.get(key)


def parse_code(text: str) -> CodedConcept:
    """The concept written as ``SCHEME:VALUE[:MEANING]``.

    Without a meaning, a registered code (by keyword or value) brings its
    own and any other code means its value. Raises MalformedCodeError
    unless both scheme and value are present.
    """
    scheme, _, rest = text.partition(":")
    value, colon, meaning = rest.partition(":")
    if not scheme or not value:
        raise MalformedCodeError(f"code must be SCHEME:VALUE[:MEANING], got {text!r}")
    if colon:
        return CodedConcept(value, scheme, meaning)
    try:
        return lookup(scheme, value)
    except (UnknownSchemeError, UnknownCodeError):
        return CodedConcept(value, scheme, value)
