"""Curated transfer-function corpus with hand-derived ground truth.

Every expected grade and margin in the bundled file was derived analytically
from the closed-form real part before the classifier existed (the derivation
sketch lives in each entry's notes), so regression checks are never circular.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources

from .errors import SchemaError, is_number
from .ratfun import RationalFunction
from .realness import Grade, classify_pr

MARGIN_RTOL = 1e-6
_MARGIN_FIELDS = ("d", "d0", "d1")


@dataclass(frozen=True)
class CorpusEntry:
    id: str
    plant: RationalFunction
    expected_grade: Grade
    expected_margins: dict[str, float]
    notes: str = ""


@dataclass(frozen=True)
class Mismatch:
    entry_id: str
    field: str
    expected: object
    actual: object


@dataclass(frozen=True)
class CorpusReport:
    checked: int
    mismatches: tuple[Mismatch, ...]

    @property
    def ok(self) -> bool:
        return not self.mismatches


def bundled_corpus_path() -> str:
    return str(resources.files("hyperstab").joinpath("data/corpus.json"))


def read_json_file(path, what: str):
    """Parse a JSON input file; an unreadable or malformed one is a SchemaError."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise SchemaError(f"cannot read {what} file: {exc}") from None
    except ValueError as exc:
        raise SchemaError(f"{what} file is not valid JSON: {exc}") from None


def load_corpus(path) -> list[CorpusEntry]:
    """Parse and validate a corpus file; SchemaError names the bad entry/field."""
    raw = read_json_file(path, "corpus")
    if not isinstance(raw, list):
        raise SchemaError("corpus file must hold a JSON array of entries")
    entries, ids = [], set()
    for i, item in enumerate(raw):
        if not isinstance(item, dict):
            raise SchemaError(f"entry {i}: must be an object")
        entry_id = item.get("id", f"<entry {i}>")
        for fld in ("id", "num", "den", "grade"):
            if fld not in item:
                raise SchemaError(f"entry {entry_id}: missing field '{fld}'")
        if str(entry_id) in ids:
            raise SchemaError(f"entry {entry_id}: repeated id")
        ids.add(str(entry_id))
        try:
            grade = Grade(item["grade"])
        except ValueError:
            raise SchemaError(
                f"entry {entry_id}: unknown grade '{item['grade']}'"
            ) from None
        try:
            plant = RationalFunction(item["num"], item["den"])
        except Exception as exc:
            raise SchemaError(f"entry {entry_id}: bad coefficients ({exc})") from None
        margins = {fld: item[fld] for fld in _MARGIN_FIELDS if fld in item}
        for fld, value in margins.items():
            if not is_number(value):
                raise SchemaError(f"entry {entry_id}: margin {fld} must be a number, "
                                  f"got {value!r}")
            margins[fld] = float(value)
        entries.append(
            CorpusEntry(
                id=str(item["id"]),
                plant=plant,
                expected_grade=grade,
                expected_margins=margins,
                notes=str(item.get("notes", "")),
            )
        )
    return entries


def corpus_check(entries: list[CorpusEntry]) -> CorpusReport:
    """Classify every entry and report grade or margin disagreements."""
    mismatches: list[Mismatch] = []
    for entry in entries:
        result = classify_pr(entry.plant)
        if result.grade is not entry.expected_grade:
            mismatches.append(
                Mismatch(entry.id, "grade", entry.expected_grade.value,
                         result.grade.value)
            )
            continue
        for fld, expected in entry.expected_margins.items():
            actual = getattr(result, fld)
            if abs(actual - expected) > MARGIN_RTOL * max(1.0, abs(expected)):
                mismatches.append(Mismatch(entry.id, fld, expected, actual))
    return CorpusReport(checked=len(entries), mismatches=tuple(mismatches))
