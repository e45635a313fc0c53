"""Corpus loading, schema validation and the regression check."""

import json

import pytest

from hyperstab.corpus import (
    bundled_corpus_path,
    corpus_check,
    load_corpus,
)
from hyperstab.errors import SchemaError
from hyperstab.realness import Grade


@pytest.fixture(scope="module")
def entries():
    return load_corpus(bundled_corpus_path())


class TestLoad:
    def test_bundled_corpus_loads(self, entries):
        assert len(entries) >= 12
        ids = [e.id for e in entries]
        assert len(ids) == len(set(ids))

    def test_empty_corpus(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text("[]")
        assert load_corpus(path) == []

    def test_single_entry(self, tmp_path):
        path = tmp_path / "one.json"
        path.write_text(json.dumps(
            [{"id": "ssp1", "num": [2, 1], "den": [1, 1], "grade": "SSPR", "d": 1.0}]
        ))
        [entry] = load_corpus(path)
        assert entry.expected_grade is Grade.SSPR
        assert entry.expected_margins == {"d": 1.0}

    def test_malformed_grade(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(
            [{"id": "x", "num": [1], "den": [1, 1], "grade": "SUPer"}]
        ))
        with pytest.raises(SchemaError, match="x"):
            load_corpus(path)

    def test_missing_field_names_entry(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps([{"id": "y", "num": [1], "grade": "PR"}]))
        with pytest.raises(SchemaError, match="den"):
            load_corpus(path)

    def test_zero_denominator_names_entry(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps([{"id": "w", "num": [1], "den": [0], "grade": "PR"}]))
        with pytest.raises(SchemaError, match="entry w: bad coefficients"):
            load_corpus(path)

    def test_not_an_array(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"id": "z"}')
        with pytest.raises(SchemaError):
            load_corpus(path)


class TestCheck:
    def test_bundled_corpus_is_clean(self, entries):
        report = corpus_check(entries)
        assert report.checked == len(entries)
        assert report.ok, report.mismatches

    def test_grade_coverage(self, entries):
        grades = {e.expected_grade for e in entries}
        assert grades == {Grade.SSPR, Grade.WSPR, Grade.PR, Grade.NOT_PR}

    def test_negative_control(self, tmp_path):
        # a deliberately wrong expectation must surface as exactly one mismatch
        path = tmp_path / "wrong.json"
        path.write_text(json.dumps(
            [{"id": "wrong", "num": [2, 1], "den": [1, 1], "grade": "NotPR"}]
        ))
        report = corpus_check(load_corpus(path))
        assert len(report.mismatches) == 1
        assert report.mismatches[0].entry_id == "wrong"
        assert report.mismatches[0].field == "grade"

    def test_margin_mismatch_detected(self, tmp_path):
        path = tmp_path / "wrong.json"
        path.write_text(json.dumps(
            [{"id": "offd", "num": [2, 1], "den": [1, 1], "grade": "SSPR", "d": 2.0}]
        ))
        report = corpus_check(load_corpus(path))
        assert len(report.mismatches) == 1
        assert report.mismatches[0].field == "d"

    def test_empty_report(self):
        report = corpus_check([])
        assert report.ok and report.checked == 0

    def test_residue_sign_rule_across_corpus(self, entries):
        # members with a simple positive-residue origin pole grade PR;
        # negating the numerator flips the verdict
        from hyperstab.ratfun import ratfun_new
        from hyperstab.realness import classify_pr

        for entry in entries:
            if not entry.expected_grade is Grade.PR:
                continue
            c = classify_pr(entry.plant)
            if not c.single_pole_at_origin:
                continue
            flipped = ratfun_new(
                [-v for v in entry.plant.num.coeffs], entry.plant.den.coeffs
            )
            assert classify_pr(flipped).grade is Grade.NOT_PR
