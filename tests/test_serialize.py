"""Frame files and suite reports: round-trips and hostile inputs."""

import csv
import io
import json
import re

import numpy as np
import pytest

from framemult import (
    ExperimentConfig,
    IoError,
    NotAFrame,
    ParseError,
    load_frame,
    random_frame,
    run_suite,
    save_frame,
    save_report,
)
from framemult.serialize import CSV_COLUMNS, report_to_csv, report_to_json


class TestFrameRoundTrip:
    def test_bit_exact(self, tmp_path):
        f = random_frame(4, 9, 12345)
        path = tmp_path / "frame.json"
        save_frame(f, path)
        g = load_frame(path)
        assert np.array_equal(g.synth, f.synth)
        assert g.dim == f.dim
        assert g.count == f.count

    def test_document_layout(self, tmp_path):
        f = random_frame(2, 3, 1)
        path = tmp_path / "frame.json"
        save_frame(f, path)
        doc = json.loads(path.read_text())
        assert set(doc) == {"dim", "count", "entries"}
        assert len(doc["entries"]) == 2
        assert len(doc["entries"][0]) == 3
        assert len(doc["entries"][0][0]) == 2

    def test_unwritable_path(self):
        f = random_frame(2, 3, 2)
        with pytest.raises(IoError):
            save_frame(f, "/nonexistent-dir/frame.json")

    def test_unreadable_path(self):
        with pytest.raises(IoError):
            load_frame("/nonexistent-dir/frame.json")


class TestLoadFrameRejections:
    def _write(self, tmp_path, text):
        path = tmp_path / "doc.json"
        path.write_text(text)
        return path

    def test_malformed_json_carries_position(self, tmp_path):
        path = self._write(tmp_path, '{"dim": 2,\n  "count": }')
        with pytest.raises(ParseError) as exc_info:
            load_frame(path)
        assert exc_info.value.line == 2
        assert exc_info.value.offset is not None

    def test_missing_field(self, tmp_path):
        path = self._write(tmp_path, '{"dim": 2, "count": 3}')
        with pytest.raises(ParseError, match="entries"):
            load_frame(path)

    def test_non_object_document(self, tmp_path):
        path = self._write(tmp_path, "[1, 2, 3]")
        with pytest.raises(ParseError, match="object"):
            load_frame(path)

    def test_wrong_row_count(self, tmp_path):
        doc = {"dim": 3, "count": 3, "entries": [[[1, 0], [0, 0], [0, 0]]]}
        path = self._write(tmp_path, json.dumps(doc))
        with pytest.raises(ParseError, match="3 rows"):
            load_frame(path)

    def test_wrong_entry_count_in_row(self, tmp_path):
        doc = {"dim": 2, "count": 2, "entries": [[[1, 0], [0, 0]], [[0, 0]]]}
        path = self._write(tmp_path, json.dumps(doc))
        with pytest.raises(ParseError, match="row 1"):
            load_frame(path)

    def test_bad_pair(self, tmp_path):
        doc = {"dim": 2, "count": 2, "entries": [[[1, 0], [0, "x"]], [[0, 0], [1, 0]]]}
        path = self._write(tmp_path, json.dumps(doc))
        with pytest.raises(ParseError, match=r"\(0, 1\)"):
            load_frame(path)

    def test_bool_is_not_a_number(self, tmp_path):
        doc = {"dim": 2, "count": 2, "entries": [[[1, 0], [0, 0]], [[0, 0], [True, 0]]]}
        path = self._write(tmp_path, json.dumps(doc))
        with pytest.raises(ParseError, match=r"\(1, 1\)"):
            load_frame(path)

    @pytest.mark.parametrize(
        "entry",
        ["NaN", "Infinity", "-Infinity", "1e400", "9" * 400],
        ids=["nan", "inf", "-inf", "1e400", "huge-int"],
    )
    def test_non_finite_entry(self, tmp_path, entry):
        text = '{"dim": 2, "count": 2, "entries": [[[1, 0], [0, %s]], [[0, 0], [1, 0]]]}' % entry
        with pytest.raises(ParseError, match=r"\(0, 1\)"):
            load_frame(self._write(tmp_path, text))

    @pytest.mark.parametrize("field", ["dim", "count"])
    def test_bool_dims(self, tmp_path, field):
        doc = {"dim": 1, "count": 1, "entries": [[[1, 0]]]}
        doc[field] = True
        path = self._write(tmp_path, json.dumps(doc))
        with pytest.raises(ParseError, match="positive integers"):
            load_frame(path)

    def test_non_integer_dims(self, tmp_path):
        doc = {"dim": 2.0, "count": 2, "entries": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]}
        path = self._write(tmp_path, json.dumps(doc))
        with pytest.raises(ParseError, match="positive integers"):
            load_frame(path)

    def test_rank_deficient_document_fails_frame_validation(self, tmp_path):
        doc = {
            "dim": 2,
            "count": 2,
            "entries": [[[1, 0], [1, 0]], [[1, 0], [1, 0]]],
        }
        path = self._write(tmp_path, json.dumps(doc))
        with pytest.raises(NotAFrame):
            load_frame(path)


def _tiny_report(suite="per1", fmt="json", trials=2):
    config = ExperimentConfig(suite=suite, dims=((3, 6),), trials=trials, seed=7, format=fmt)
    return run_suite(config)


class TestReports:
    def test_json_deterministic_modulo_wall_time(self):
        a = report_to_json(_tiny_report())
        b = report_to_json(_tiny_report())
        scrub = re.compile(r'"wall_time_s": [0-9.e+-]+')
        assert scrub.sub("", a) == scrub.sub("", b)

    def test_csv_header_is_the_contract(self):
        text = report_to_csv(_tiny_report(fmt="csv"))
        header = text.splitlines()[0].split(",")
        assert header == CSV_COLUMNS

    def test_csv_one_row_per_trial(self):
        report = _tiny_report(fmt="csv", trials=3)
        rows = list(csv.DictReader(io.StringIO(report_to_csv(report))))
        assert len(rows) == 3
        assert [r["trial"] for r in rows] == ["0", "1", "2"]

    def test_csv_absent_residuals_are_empty(self):
        report = _tiny_report(fmt="csv")
        rows = list(csv.DictReader(io.StringIO(report_to_csv(report))))
        # a frame-perturbation run records no annihilation data
        assert all(r["annihilation"] == "" for r in rows)
        assert all(r["multiplier_residual"] != "" for r in rows)

    def test_csv_floats_survive_round_trip(self):
        report = _tiny_report(fmt="csv")
        rows = list(csv.DictReader(io.StringIO(report_to_csv(report))))
        for record, row in zip(report.records, rows):
            reparsed = float(row["multiplier_residual"])
            assert reparsed == record.residuals["multiplier_residual"]

    def test_save_report_json(self, tmp_path):
        report = _tiny_report()
        path = tmp_path / "report.json"
        save_report(report, path, "json")
        doc = json.loads(path.read_text())
        assert doc["suite"] == "per1"
        assert doc["aggregate"]["pass"] == 2

    def test_save_report_csv(self, tmp_path):
        report = _tiny_report(fmt="csv")
        path = tmp_path / "report.csv"
        save_report(report, path, "csv")
        assert path.read_text().splitlines()[0].split(",") == CSV_COLUMNS

    def test_save_report_rejects_unknown_format(self, tmp_path):
        with pytest.raises(ValueError):
            save_report(_tiny_report(), tmp_path / "report.xml", "xml")

    def test_save_report_unwritable(self):
        with pytest.raises(IoError):
            save_report(_tiny_report(), "/nonexistent-dir/report.json", "json")
