"""One table of suites and their residual keys.

framemult.suites._SUITES gives, in run order, each suite's trial body and
its residual keys in record order, marking those max_residual reads.
SUITE_NAMES, the trial bodies, max_residual's keys and the CSV columns are
derived from it. These tests pin that every record a run writes has exactly
its suite's keys, in order, that README's CSV header and its list of
max_residual's keys are the derived ones, and that suites.py, where records
are made, imports nothing from serialize.
"""

import ast
import csv
import inspect
import json
import re
from pathlib import Path

import pytest

from framemult import ExperimentConfig, run_suite, serialize, suites
from framemult.cli import main
from framemult.serialize import CSV_COLUMNS, RESIDUAL_COLUMNS
from framemult.suites import GENERATOR_NAMES, SUITE_NAMES

README = Path(__file__).resolve().parent.parent / "README.md"
TRIALS = 3


def _table_keys(suite: str) -> list[str]:
    return list(suites._SUITES[suite][1])


def _check_keys(suite: str, keys: list[str], note: str) -> None:
    """A record's residual keys are its suite's row, in order, unless it is a caught error."""
    if keys:
        assert keys == _table_keys(suite), (suite, note)
    else:
        assert note, suite  # a caught error: no residuals, and the error as its note


@pytest.mark.parametrize("generator", GENERATOR_NAMES)
def test_every_record_has_its_suites_residual_keys_in_order(generator, tmp_path, capsys):
    report = run_suite(ExperimentConfig(suite="all", trials=TRIALS, generator=generator))
    assert len(report.records) == TRIALS * len(SUITE_NAMES)
    for record in report.records:
        _check_keys(record.suite, list(record.residuals), record.note)

    argv = ["--suite", "all", "--trials", str(TRIALS), "--generator", generator]
    main([*argv, "--out", str(tmp_path / "report.json"), "--format", "json"])
    main([*argv, "--out", str(tmp_path / "report.csv"), "--format", "csv"])
    capsys.readouterr()
    records = json.loads((tmp_path / "report.json").read_text(encoding="utf-8"))["records"]
    rows = list(csv.DictReader((tmp_path / "report.csv").read_text(encoding="utf-8").splitlines()))
    assert len(records) == len(rows) == len(report.records)
    for record, row in zip(records, rows):
        assert record["residuals"] or record["note"]
        wanted = _table_keys(record["suite"]) if record["residuals"] else []
        # JSON sorts keys, so the order is pinned by the run_suite records above.
        assert sorted(record["residuals"]) == sorted(wanted)
        assert [key for key in RESIDUAL_COLUMNS if row[key]] == [key for key in RESIDUAL_COLUMNS if key in wanted]


def test_a_caught_error_records_no_residuals_and_a_note():
    report = run_suite(ExperimentConfig(suite="all", trials=TRIALS, generator="riesz"))
    caught = [r for r in report.records if not r.residuals]
    assert caught, "square Riesz bases end some per2 trials in a caught error"
    assert all(r.note and r.verdict == "fail" for r in caught)


def test_the_derived_names_are_those_of_the_table():
    assert SUITE_NAMES == tuple(suites._SUITES)
    assert list(suites._TRIAL_BODIES) == list(SUITE_NAMES)
    assert all(suites._TRIAL_BODIES[name] is body for name, (body, _) in suites._SUITES.items())
    first_seen = []
    for name in SUITE_NAMES:
        first_seen += [key for key in _table_keys(name) if key not in first_seen]
    assert RESIDUAL_COLUMNS == first_seen
    assert CSV_COLUMNS == ["suite", "trial", "seed", "d", "N", *first_seen, "verdict"]
    zero = {key for _, keys in suites._SUITES.values() for key, marked in keys.items() if marked}
    assert suites._AGG_KEYS == zero and len(zero) == 10


def _readme_section(title: str) -> str:
    text = README.read_text(encoding="utf-8")
    start = text.index(f"## {title}\n")
    end = text.find("\n## ", start + 1)
    return text[start : end if end != -1 else None]


def test_readme_csv_header_is_the_derived_one():
    section = _readme_section("File formats")
    block = re.search(r"so the fixed header is\n\n```\n(.*?)```", section, re.S).group(1)
    assert "".join(block.split()) == ",".join(CSV_COLUMNS)


def test_readme_names_the_keys_max_residual_reads():
    section = _readme_section("File formats")
    sentence = re.search(r"These are ten keys:(.*?)\.\n", section, re.S).group(1)
    assert set(re.findall(r"`(\w+)`", sentence)) == suites._AGG_KEYS


def _imported_names(tree) -> set[str]:
    """Every module and name a tree imports, relative ones as written after their dots."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            names |= {module} | {f"{module}.{alias.name}".lstrip(".") for alias in node.names}
        elif isinstance(node, ast.Import):
            names |= {alias.name for alias in node.names}
    return names


def _imports_serialize(tree) -> bool:
    return any("serialize" in name.split(".") for name in _imported_names(tree))


def test_suites_imports_nothing_from_serialize():
    tree = ast.parse(inspect.getsource(suites))
    assert not _imports_serialize(tree), "suites.py imports from serialize"
    assert "symbols.perturb_symbol" in _imported_names(tree)  # the walk sees relative imports


@pytest.mark.parametrize(
    "source",
    [
        "from .serialize import _check_real",
        "from . import serialize",
        "import framemult.serialize",
        "from framemult.serialize import CSV_COLUMNS",
        "def f():\n    from .serialize import RESIDUAL_COLUMNS",
    ],
)
def test_the_guard_flags_each_form_of_import(source):
    assert _imports_serialize(ast.parse(source))


def test_the_record_checks_have_one_home():
    assert serialize._check_real is suites._check_real
    assert serialize._check_types is suites._check_types
    assert serialize.RESIDUAL_COLUMNS is suites.RESIDUAL_COLUMNS
