import csv
import io
import tempfile
import tracemalloc
import warnings
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace
from functools import partial
from math import isfinite
from pathlib import Path
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import oracles
from pipelife import cli, synth
from pipelife import data as data_module
from pipelife.data import (
    CSV_COLUMNS,
    CleaningReport,
    DIAMETER_RANGE,
    MAGNITUDE_LIMIT,
    MATERIALS,
    NUMERIC_COLUMNS,
    REQUIRED_COLUMNS,
    SPLITS,
    WTL_RANGE,
    Dataset,
    FeatureMatrix,
    Material,
    Split,
    build_features,
    denormalize,
    encode_material,
    ingest_csv,
    normalize,
    split_dataset,
    write_columns,
    write_csv,
)
from pipelife.errors import (
    DimensionMismatch,
    EmptyAfterCleaning,
    FileUnreadable,
    RatioSumInvalid,
    SchemaMismatch,
    UnknownColumn,
    UnknownMaterial,
)

REF_YEAR = 2011


def make_record(age=30, diameter=8.0, length=500.0, material=Material.CAST_IRON,
                breaks=2, wtl=25.0, rul=40.0, install_year=None):
    """One row's values in CSV_COLUMNS order, material as its code."""
    iy = REF_YEAR - age if install_year is None else install_year
    return (age, diameter, length, MATERIALS.index(material), breaks, iy, wtl, rul)


def dataset_of(records):
    columns = dict(zip(CSV_COLUMNS, np.array(records, dtype=float).reshape(-1, len(CSV_COLUMNS)).T))
    materials = columns.pop("material")
    return Dataset(columns, materials)


def read_blocks(path):
    """(header, columns) of a CSV file as `data._blocks` reads it: the
    header, then one list of cells per header column."""
    blocks = data_module._blocks(path)
    header = next(blocks)
    columns = [[] for _ in header]
    for block in blocks:
        for column, cells in zip(columns, block):
            column.extend(cells)
    return header, columns


def make_dataset(n=20, with_rul=True):
    rng = np.random.default_rng(7)
    records = []
    mats = list(Material)
    for i in range(n):
        age = int(rng.integers(1, 100))
        records.append(make_record(
            age=age,
            diameter=float(rng.choice([4, 6, 8, 12, 24])),
            length=float(rng.uniform(50, 5000)),
            material=mats[i % len(mats)],
            breaks=int(rng.integers(0, 10)),
            wtl=float(rng.uniform(1, 59)),
            rul=float(rng.uniform(3, 90)) if with_rul else np.nan,
        ))
    return dataset_of(records)


# -- material encoding --------------------------------------------------------

def test_table_ea_values():
    expected = {
        "Polyethylene": 0.42,
        "DuctileIron": 1.67,
        "PVC": 1.67,
        "Steel": 1.67,
        "Concrete": 5.01,
        "Asbestos": 6.68,
        "CastIron": 8.35,
    }
    for name, ea in expected.items():
        assert encode_material(name).ea_value == ea


def test_encode_material_aliases_and_case():
    assert encode_material("Cast iron") is Material.CAST_IRON
    assert encode_material("Cast iron").ea_value == 8.35
    assert encode_material("CI") is Material.CAST_IRON
    assert encode_material("di") is Material.DUCTILE_IRON
    assert encode_material("AC") is Material.ASBESTOS
    assert encode_material("asbestos cement") is Material.ASBESTOS
    assert encode_material("  pvc ") is Material.PVC


def test_encode_material_unknown():
    with pytest.raises(UnknownMaterial):
        encode_material("obsidian")


def test_ea_values_bounded_and_tied():
    values = sorted(m.ea_value for m in Material)
    assert values[0] == 0.42 and values[-1] == 8.35
    tied = {Material.DUCTILE_IRON, Material.PVC, Material.STEEL}
    assert len({m.ea_value for m in tied}) == 1
    rest = [m for m in Material if m not in tied]
    assert len({m.ea_value for m in rest}) == len(rest)


# -- record validation ----------------------------------------------------------

def test_record_validation_rejects_bad_fields():
    records = [make_record(diameter=30.0), make_record(length=0.0),
               make_record(wtl=120.0), make_record(breaks=-1)]
    failing = oracles.first_failing_column(dataset_of(records).numeric, REF_YEAR)
    assert failing.tolist() == ["diameter_in", "length_ft", "wall_thickness_loss_pct", "breaks"]


def test_record_age_install_year_consistency():
    good = make_record(30, 8.0, 100.0, Material.STEEL, 0, install_year=REF_YEAR - 31, wtl=10.0)
    bad = make_record(30, 8.0, 100.0, Material.STEEL, 0, install_year=REF_YEAR - 35, wtl=10.0)
    failing = oracles.first_failing_column(dataset_of([good, bad]).numeric, REF_YEAR)
    assert failing.tolist() == ["", "install_year"]  # one year of slack allowed


def test_an_age_or_install_year_from_2_to_the_53_fails_the_install_year_check(tmp_path):
    # 2011 - (-1e308) - 1e308 is 0 in floats, and 2011 - 1e308 - 1e308
    # overflows; whole numbers below 2**53 still subtract exactly
    below = 2**53 - 1
    rows = [
        "30,6,100,CI,1,1981,20,30",
        "1e308,6,100,CI,1,-1e308,20,30",
        "1e308,6,100,CI,1,1e308,20,30",
        f"{REF_YEAR},6,100,CI,1,1e308,20,30",
        f"{2**53},6,100,CI,1,{REF_YEAR - 2**53},20,30",
        f"{below},6,100,CI,1,{REF_YEAR - below},20,30",
    ]
    path = tmp_path / "huge.csv"
    write_lines(path, [HEADER] + rows)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        dataset, report, (_, echoed) = ingest_csv(path, REF_YEAR, echo=True)
        assert oracles.kept_rows(path, REF_YEAR) == (0, 5)
    assert echoed == [rows[0], rows[5]]
    assert report.drops_by_column == {"install_year": 4}
    assert dataset.column("age_years").tolist() == [30.0, float(below)]


def test_a_length_breaks_or_rul_from_2_to_the_53_fails_its_column():
    # a 1e308 length overflowed the std that `stats` prints
    records = [make_record(length=1e308), make_record(breaks=2**53), make_record(rul=-1e308),
               make_record(length=2**53 - 1, breaks=2**53 - 1, rul=1 - 2**53),
               make_record(rul=np.nan)]
    failing = oracles.first_failing_column(dataset_of(records).numeric, REF_YEAR)
    assert failing.tolist() == ["length_ft", "breaks", "rul_years", "", ""]


def test_validation_reports_the_first_failing_check():
    off = REF_YEAR - 80  # install year inconsistent with age 30
    records = [
        make_record(age=-1, diameter=30.0, length=0.0, breaks=-1, wtl=120.0, install_year=off),
        make_record(diameter=30.0, length=0.0, breaks=-1, wtl=120.0, install_year=off),
        make_record(length=0.0, breaks=-1, wtl=120.0, install_year=off),
        make_record(breaks=-1, wtl=120.0, install_year=off),
        make_record(wtl=120.0, install_year=off),
        make_record(install_year=off),
        make_record(length=np.nan),
        make_record(),
    ]
    failing = oracles.first_failing_column(dataset_of(records).numeric, REF_YEAR)
    assert failing.tolist() == [
        "age_years", "diameter_in", "length_ft", "breaks", "wall_thickness_loss_pct",
        "install_year", "length_ft", "",
    ]


# -- ingestion --------------------------------------------------------------------

HEADER = ",".join(CSV_COLUMNS)


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def row(age=30, diameter=8, length=500, material="CastIron", breaks=2,
        wtl=25.0, rul="40.0", install_year=None):
    iy = REF_YEAR - age if install_year is None else install_year
    return f"{age},{diameter},{length},{material},{breaks},{iy},{wtl},{rul}"


def test_ingest_drops_and_counts_missing(tmp_path):
    path = tmp_path / "pipes.csv"
    lines = [HEADER] + [row(age=20 + i) for i in range(8)]
    lines.insert(3, row(age=50, wtl=""))       # blank wall loss
    lines.insert(5, row(age=60, wtl=""))
    write_lines(path, lines)
    dataset, report = ingest_csv(path, REF_YEAR)
    assert len(dataset) == 8
    assert report.rows_read == 10
    assert report.rows_dropped == 2
    assert report.drops_by_column == {"wall_thickness_loss_pct": 2}


def test_ingest_missing_column_is_schema_mismatch(tmp_path):
    path = tmp_path / "pipes.csv"
    header = ",".join(c for c in CSV_COLUMNS if c != "age_years")
    write_lines(path, [header, "8,500,CastIron,2,1981,25.0,40.0"])
    with pytest.raises(SchemaMismatch):
        ingest_csv(path, REF_YEAR)


def test_ingest_all_rows_invalid(tmp_path):
    path = tmp_path / "pipes.csv"
    write_lines(path, [HEADER, row(wtl=""), row(material="")])
    with pytest.raises(EmptyAfterCleaning):
        ingest_csv(path, REF_YEAR)


def test_ingest_nonexistent_file(tmp_path):
    with pytest.raises(FileUnreadable):
        ingest_csv(tmp_path / "missing.csv", REF_YEAR)


def test_ingest_rejects_out_of_range_rows(tmp_path):
    path = tmp_path / "pipes.csv"
    write_lines(
        path,
        [HEADER, row(), row(diameter=48), row(material="granite"), row(age=10, install_year=1950)],
    )
    dataset, report = ingest_csv(path, REF_YEAR)
    assert len(dataset) == 1
    assert report.drops_by_column["diameter_in"] == 1
    assert report.drops_by_column["material"] == 1
    assert report.drops_by_column["install_year"] == 1


def test_ingest_rul_optional(tmp_path):
    path = tmp_path / "pipes.csv"
    write_lines(path, [HEADER, row(rul=""), row(rul="")])
    dataset, _ = ingest_csv(path, REF_YEAR)
    assert len(dataset) == 2
    assert not dataset.has_rul()


def test_ingest_rul_missing_from_some_rows(tmp_path):
    path = tmp_path / "pipes.csv"
    write_lines(path, [HEADER, row(rul="35.5"), row(rul="")])
    dataset, _ = ingest_csv(path, REF_YEAR)
    assert not dataset.has_rul()
    assert np.array_equal(dataset.numeric["rul_years"], [35.5, np.nan], equal_nan=True)
    with pytest.raises(UnknownColumn):
        dataset.column("rul_years")


def test_ingest_preserves_row_order(tmp_path):
    path = tmp_path / "pipes.csv"
    ages = [40, 10, 70, 25, 55]
    lines = [HEADER]
    for i, age in enumerate(ages):
        if i == 2:
            lines.append(row(age=99, wtl=""))  # dropped row in the middle
        lines.append(row(age=age))
    write_lines(path, lines)
    dataset, _ = ingest_csv(path, REF_YEAR)
    assert dataset.column("age_years").tolist() == ages


def test_csv_round_trip(tmp_path):
    dataset = make_dataset(15)
    path = tmp_path / "out.csv"
    write_csv(dataset, path)
    back, report = ingest_csv(path, REF_YEAR)
    assert report.rows_dropped == 0
    assert len(back) == len(dataset)
    assert np.array_equal(back.column("age_years"), dataset.column("age_years"))
    assert np.array_equal(back.materials, dataset.materials)
    assert np.array_equal(back.column("length_ft"), dataset.column("length_ft"))
    assert np.array_equal(back.column("rul_years"), dataset.column("rul_years"))


@pytest.mark.parametrize("column", NUMERIC_COLUMNS)
def test_ingest_drops_non_finite_cells(tmp_path, column):
    path = tmp_path / "pipes.csv"
    j = CSV_COLUMNS.index(column)
    lines = [HEADER, row()]
    for cell in ("nan", "inf", "-inf", "NaN", "Infinity"):
        cells = row().split(",")
        cells[j] = cell
        lines.append(",".join(cells))
    write_lines(path, lines)
    dataset, report = ingest_csv(path, REF_YEAR)
    assert len(dataset) == 1 and dataset.has_rul()
    assert report.drops_by_column == {column: 5}


def test_ingest_counts_a_non_finite_cell_in_parse_order(tmp_path):
    path = tmp_path / "pipes.csv"
    # diameter parses before material; breaks before the install-year check
    write_lines(path, [HEADER, row(), row(diameter="inf", material="granite"),
                       row(breaks="nan", install_year=1900), row(length="nan", wtl="")])
    _, report = ingest_csv(path, REF_YEAR)
    assert list(report.drops_by_column.items()) == [
        ("diameter_in", 1), ("breaks", 1), ("wall_thickness_loss_pct", 1)]


def finite(lo=None, hi=None, **kwargs):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False, **kwargs)


@st.composite
def inventories(draw):
    """Datasets that pass validation: every material, rul_years present or not."""
    records = []
    for _ in range(draw(st.integers(1, 12))):
        age = draw(st.integers(0, 300))
        records.append(make_record(
            age=age,
            diameter=draw(finite(*DIAMETER_RANGE)),
            length=draw(finite(0.0, MAGNITUDE_LIMIT, exclude_min=True, exclude_max=True)),
            material=draw(st.sampled_from(MATERIALS)),
            breaks=draw(st.integers(0, 10**6)),
            wtl=draw(st.one_of(st.just(-0.0), finite(*WTL_RANGE))),
            rul=draw(st.one_of(st.just(np.nan), st.just(-0.0),
                               finite(-MAGNITUDE_LIMIT, MAGNITUDE_LIMIT,
                                      exclude_min=True, exclude_max=True))),
            install_year=REF_YEAR - age + draw(st.integers(-1, 1)),
        ))
    return dataset_of(records)


def bits(values):
    return np.asarray(values, dtype=float).view(np.uint64)


@given(inventories())
def test_write_then_ingest_returns_the_same_data(dataset):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "pipes.csv"
        write_csv(dataset, path)
        back, report = ingest_csv(path, REF_YEAR)
    assert report.rows_dropped == 0 and report.drops_by_column == {}
    assert np.array_equal(back.materials, dataset.materials)
    for name in NUMERIC_COLUMNS:
        # the same doubles bit for bit: a negative zero included, NaN for an absent rul
        assert np.array_equal(bits(back.numeric[name]), bits(dataset.numeric[name])), name


def test_write_csv_keeps_a_negative_zero(tmp_path):
    dataset = dataset_of([make_record(wtl=-0.0, rul=-0.0), make_record(wtl=0.0, rul=0.0)])
    path = tmp_path / "pipes.csv"
    write_csv(dataset, path)
    header, columns = read_blocks(path)
    wtl, rul = header.index("wall_thickness_loss_pct"), header.index("rul_years")
    assert list(zip(columns[wtl], columns[rul])) == [("-0.0", "-0.0"), ("0", "0")]


def reference_cells(values):
    """The per-cell formula that `data._cells` replaces, kept as its oracle."""
    return ["-0.0" if x == 0 and np.signbit(x) else repr(int(x)) if x.is_integer()
            else repr(x) if x == x else "" for x in values.tolist()]


EDGE_FLOATS = [0.0, -0.0, np.nan, np.inf, -np.inf, 1e300, -1e300, 0.5, -2.5,
               2.0**53, -2.0**53, 2.0**53 - 1, -(2.0**53 - 1), 2.0**53 + 2, 2.0**53 + 1]


@settings(deadline=None, max_examples=300)
@given(st.one_of(
    arrays(np.float64, st.integers(0, 40),
           elements=st.one_of(st.floats(allow_nan=True), st.sampled_from(EDGE_FLOATS))),
    # columns of whole numbers take the one-conversion path
    arrays(np.float64, st.integers(1, 40),
           elements=st.integers(-2**53 + 1, 2**53 - 1).map(float)),
))
@example(np.array(EDGE_FLOATS))
@example(np.array([-0.0, 0.0, 3.0, -(2.0**53 - 1)]))
def test_cells_match_the_per_cell_formula(values):
    assert data_module._cells(values) == reference_cells(values)


# -- the per-row ingest, kept as the oracle of the column-wise one -------------------

def _finite(text: str) -> float:
    value = float(text)
    if not isfinite(value):
        raise ValueError(f"non-finite value {text!r}")
    return value


def _parse_row(row: dict):
    """One csv.DictReader row's CSV_COLUMNS values, or its first column that
    fails to parse (a non-finite number fails its column)."""
    try:
        col = "age_years"
        age = int(_finite(row[col]))
        col = "diameter_in"
        diameter = _finite(row[col])
        col = "length_ft"
        length = _finite(row[col])
        col = "material"
        material = MATERIALS.index(encode_material(row[col]))
        col = "breaks"
        breaks = int(_finite(row[col]))
        col = "install_year"
        install_year = int(_finite(row[col]))
        col = "wall_thickness_loss_pct"
        wtl = _finite(row[col])
        col = "rul_years"
        raw_rul = row.get(col)
        rul = _finite(raw_rul) if raw_rul not in (None, "") else np.nan
    except (ValueError, UnknownMaterial, TypeError):
        return None, col
    return (age, diameter, length, material, breaks, install_year, wtl, rul), None


def ingest_row_by_row(path, reference_year):
    """ingest_csv as one csv.DictReader pass parsing row by row."""
    with open(path, "r", newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        header = reader.fieldnames or []
        missing = [c for c in REQUIRED_COLUMNS if c not in header]
        if missing:
            raise SchemaMismatch(f"missing required column(s): {', '.join(missing)}")
        parsed, failing = [], []
        for row in reader:
            empty = next((c for c in REQUIRED_COLUMNS if row.get(c) in (None, "")), None)
            values, bad_col = (None, empty) if empty else _parse_row(row)
            failing.append(bad_col)
            if values is not None:
                parsed.append(values)
    columns = dict(zip(CSV_COLUMNS, np.array(parsed, dtype=float).reshape(-1, len(CSV_COLUMNS)).T))
    checked = oracles.first_failing_column(columns, reference_year)
    verdicts = iter(checked.tolist())
    failing = [col or next(verdicts) for col in failing]
    kept_rows = tuple(i for i, col in enumerate(failing) if not col)
    if not kept_rows:
        raise EmptyAfterCleaning(f"no valid rows in {path}")
    report = CleaningReport(
        rows_read=len(failing),
        rows_kept=len(kept_rows),
        rows_dropped=len(failing) - len(kept_rows),
        drops_by_column=dict(Counter(filter(None, failing))),
    )
    valid = checked == ""
    materials = columns.pop("material")[valid]
    dataset = Dataset({name: v[valid] for name, v in columns.items()}, materials)
    return dataset, report, kept_rows


def spellings(value):
    """Ways of writing one number that float() reads as `value`."""
    text = repr(value)
    ways = [text, f" {text} "]
    if "e" not in text and "n" not in text:
        ways.append(text + "e0")
    if float(value).is_integer() and abs(value) < 1e15:
        k = int(value)
        ways += [str(k), f"{k}.0", f"{k}e0", " " + str(k) + " "]
        if abs(k) >= 10:  # 1_0 for 10
            digits = str(abs(k))
            ways.append(("-" if k < 0 else "") + digits[0] + "_" + digits[1:])
    return st.sampled_from(ways)


JUNK = st.sampled_from(["", "", " ", "nan", "-Infinity", "inf", "abc"])
MATERIAL_CELLS = st.sampled_from(
    ["ci", "Cast Iron", "cast_iron", "CastIron", "PVC", " steel ", "DI", "AC", "asbestos cement",
     "Polyethylene", "granite", "Clay", "", " "])


@st.composite
def dirty_cells(draw):
    """One data row's cells by column name: mostly valid values in mixed
    spellings, some out of range or inconsistent, some junk."""
    age = draw(st.one_of(st.integers(-2, 90), st.sampled_from([-0.5, 0.5, 30.9, -1.5])))
    install = REF_YEAR - int(age) + draw(st.sampled_from([0, 0, 0, 1, -1, 2, -3]))
    values = {
        "age_years": age,
        "diameter_in": draw(st.sampled_from([4, 8, 12.5, 24, 3.9, 40, 6.0])),
        "length_ft": draw(st.sampled_from([100, 12.25, 0, -5, 0.001, 1e9])),
        "breaks": draw(st.sampled_from([0, 2, 17, -1, 2.7, -0.3])),
        "install_year": install,
        "wall_thickness_loss_pct": draw(st.sampled_from([0, -0.0, 25.5, 100, 100.5, -2])),
        "rul_years": draw(st.sampled_from([40, 12.5, -3, 0.0])),
    }
    cells = {name: draw(spellings(v)) for name, v in values.items()}
    cells["material"] = draw(MATERIAL_CELLS)
    for name in CSV_COLUMNS:
        if draw(st.integers(0, 9)) == 0:
            cells[name] = draw(JUNK)
    return cells


@st.composite
def dirty_files(draw):
    """Lines of a CSV file: a header in any order, with or without rul_years,
    sometimes missing a required column or repeating one, then full, short,
    long and blank rows."""
    header = list(draw(st.permutations(REQUIRED_COLUMNS)))
    if draw(st.booleans()):
        header.insert(draw(st.integers(0, len(header))), "rul_years")
    if draw(st.booleans()):
        header.insert(draw(st.integers(0, len(header))), "notes")
    if draw(st.integers(0, 3)) == 0:  # a repeated column, read from its last copy
        header.insert(draw(st.integers(0, len(header))), draw(st.sampled_from(header)))
    last = {name: j for j, name in enumerate(header)}
    if draw(st.integers(0, 9)) == 0:
        header.remove(draw(st.sampled_from(REQUIRED_COLUMNS)))
    lines = [",".join(header)]
    for _ in range(draw(st.integers(0, 25))):
        kind = draw(st.sampled_from(["full"] * 6 + ["short", "long", "blank"]))
        if kind == "blank":
            lines.append("")
            continue
        cells = draw(dirty_cells())
        row = [cells.get(name, "x") if last[name] == j else "x" for j, name in enumerate(header)]
        if kind == "short":
            row = row[:draw(st.integers(1, len(row) - 1))]
        elif kind == "long":
            row += draw(st.lists(st.sampled_from(["7", "", "extra"]), min_size=1, max_size=3))
        lines.append(",".join(row))
    return lines


def ingest_both(path):
    """(result or exception) of ingest_csv with its echo and of the
    row-by-row oracle, then the echo of the rows that oracle keeps, or None."""
    results = []
    for ingest in (partial(ingest_csv, echo=True), ingest_row_by_row):
        try:
            results.append(ingest(path, REF_YEAR))
        except (SchemaMismatch, EmptyAfterCleaning) as exc:
            results.append(exc)
    kept = None if isinstance(results[1], Exception) else results[1][2]
    return results + [None if kept is None else echo_of(path, kept)]


def echo_of(path, kept):
    """The `oracles.csv_line` of each data row of path whose index is in
    kept, padded or cut to the header's width, as predict echoes it."""
    _, columns = oracles.read_table(path)
    return [oracles.csv_line([column[i] for column in columns]) for i in kept]


@settings(deadline=None, max_examples=200)
@given(dirty_files())
def test_column_wise_ingest_matches_the_row_by_row_oracle(lines):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "pipes.csv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        got, want, want_echo = ingest_both(path)
        oracle_kept = None if want_echo is None else oracles.kept_rows(path, REF_YEAR)
    if isinstance(want, Exception) or isinstance(got, Exception):
        assert (type(got), str(got)) == (type(want), str(want))
        return
    (dataset, report, (_, echoed)), (expected, expected_report, expected_kept) = got, want
    assert echoed == want_echo
    assert oracle_kept == expected_kept
    assert report == expected_report
    assert list(report.drops_by_column.items()) == list(expected_report.drops_by_column.items())
    assert np.array_equal(dataset.materials, expected.materials)
    for name in NUMERIC_COLUMNS:
        assert np.array_equal(bits(dataset.numeric[name]), bits(expected.numeric[name])), name


# a quoted cell holding a comma, doubled quotes and a line break
QUOTED_CELL = '"a,""b""\r\nc"'


@st.composite
def raw_files(draw):
    """The bytes of a `dirty_files` table with some cells quoted (a filler
    cell may become QUOTED_CELL) and lines ended by \\n or \\r\\n;
    sometimes only its header is kept, sometimes it starts with a
    byte-order mark, and sometimes a byte that is not UTF-8 is put in."""
    lines = draw(dirty_files())
    if draw(st.integers(0, 9)) == 0:
        lines = lines[:1]
    quoted = []
    for line in lines:
        cells = []
        for cell in line.split(","):  # a blank line quoted is a row of one empty cell
            how = draw(st.integers(0, 7))
            cells.append(QUOTED_CELL if how == 0 and cell == "x"
                         else f'"{cell}"' if how == 1 else cell)
        quoted.append(",".join(cells))
    raw = (draw(st.sampled_from(["\n", "\r\n"])).join(quoted) + "\n").encode("utf-8")
    if draw(st.booleans()):
        raw = b"\xef\xbb\xbf" + raw
    if draw(st.integers(0, 9)) == 0:
        at = draw(st.integers(0, len(raw)))
        raw = raw[:at] + b"\xff" + raw[at:]
    return raw


def ingest_and_predict(ingest, path, out):
    """(ingest(path) or the error it raised, then the exit code, stderr and
    output bytes of `predict --builtin CI` reading through `ingest`)."""
    try:
        result = ingest(path, REF_YEAR)
    except (SchemaMismatch, EmptyAfterCleaning, FileUnreadable) as exc:
        result = exc
    stderr = io.StringIO()
    with patch.object(cli, "ingest_csv", ingest), redirect_stderr(stderr), \
            redirect_stdout(io.StringIO()):
        code = cli.main(["predict", "--builtin", "CI", "--in", str(path), "--out", str(out)])
    return result, (code, stderr.getvalue(), out.read_bytes() if out.exists() else None)


# the text layer decodes 8 KiB at a time, so the bad byte must come later
# than that to be read after the header
MISSING_COLUMN_THEN_BAD_UTF8 = (
    ",".join(c for c in CSV_COLUMNS if c != "breaks") + "\n" + "1,2\n" * 4096).encode() + b"\xff\n"
HEADER_ONLY = (HEADER + "\r\n").encode()


@settings(deadline=None, max_examples=200)
@given(raw=raw_files(), block=st.integers(1, 4))
@example(raw=MISSING_COLUMN_THEN_BAD_UTF8, block=1).via("the unreadable file is reported first")
@example(raw=HEADER_ONLY, block=2).via("a header without rows keeps no row")
@example(raw=b"\xef\xbb\xbf" + (HEADER + '\n"30",8,500,"CI",2,1981,25,\n\n30,8\n').encode(),
         block=1).via("a mark, quoted cells, a blank and a short row")
@example(raw=(HEADER + ',notes\n30,8,500,CI,2,1981,25,,"c\rd"\n').encode(),
         block=1).via("a kept row whose echoed cell holds a lone carriage return")
def test_streaming_ingest_matches_the_whole_file_oracle(raw, block):
    with tempfile.TemporaryDirectory() as tmp, patch.object(data_module, "_BLOCK", block):
        path = Path(tmp) / "pipes.csv"
        path.write_bytes(raw)
        got, got_predict = ingest_and_predict(ingest_csv, path, Path(tmp) / "got" / "out.csv")
        want, want_predict = ingest_and_predict(oracles.ingest_csv, path,
                                                Path(tmp) / "want" / "out.csv")
    assert got_predict == want_predict
    if isinstance(want, Exception) or isinstance(got, Exception):
        assert (type(got), str(got)) == (type(want), str(want))
        return
    (dataset, report), (expected, expected_report) = got, want
    assert report == expected_report
    assert list(report.drops_by_column.items()) == list(expected_report.drops_by_column.items())
    assert np.array_equal(dataset.materials, expected.materials)
    for name in NUMERIC_COLUMNS:
        assert np.array_equal(bits(dataset.numeric[name]), bits(expected.numeric[name])), name


def traced_peak(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def inventory_20k(tmp_path_factory):
    """20k generated rows, seed 11, as a CSV file."""
    path = tmp_path_factory.mktemp("inventory") / "pipes.csv"
    write_csv(synth.generate(synth.GeneratorConfig(n=20_000, seed=11)), path)
    ingest_csv(path, REF_YEAR)  # imports and caches stay out of the peaks
    return path


def ingest_share_of_the_read(path):
    """ingest_csv's tracemalloc peak over that of the whole-file read
    (oracles.read_table), which holds every cell as a string."""
    return traced_peak(ingest_csv, path, REF_YEAR) / traced_peak(oracles.read_table, path)


def test_ingest_holds_no_more_than_the_read_table_holds(inventory_20k):
    # parsing each block as it is read keeps one block's cells alive, not
    # the whole file's
    assert ingest_share_of_the_read(inventory_20k) < 1.25


def test_ingest_holds_well_below_what_the_read_table_holds(inventory_20k):
    # judging each block as it is parsed keeps no per-row label strings
    assert ingest_share_of_the_read(inventory_20k) < 0.6


def test_ingest_keeps_each_column_once(inventory_20k):
    # the Dataset keeps the columns ingest joined and froze, not copies of them
    assert ingest_share_of_the_read(inventory_20k) < 0.38


def test_the_echo_holds_each_kept_row_as_one_line(inventory_20k):
    # predict's echo keeps one str per kept row, joined while its block is
    # read, not one str per kept cell
    echo_peak = traced_peak(ingest_csv, inventory_20k, REF_YEAR, True)
    assert echo_peak / traced_peak(oracles.read_table, inventory_20k) < 0.75


# (data row, column, cell) of the invalid rows of a 3,000-row file, three
# blocks at the real _BLOCK: length_ft first fails in the second block, after
# material, yet drops the most rows; in that block a wall loss that does not
# parse comes before an empty length, though an empty cell outranks a cell
# that does not parse within a row; row 2300 has two empty cells
BAD_CELLS = [
    (5, "material", "Unobtainium"),
    (1100, "wall_thickness_loss_pct", "nan"),
    (1200, "length_ft", ""),
    (1300, "length_ft", "-5"),
    (2100, "length_ft", "0"),
    (2200, "diameter_in", "30"),
    (2300, "length_ft", ""),
    (2300, "material", ""),
    (2999, "diameter_in", "30"),
]


def test_drops_are_counted_in_file_order_across_blocks(tmp_path):
    assert data_module._BLOCK == 1024
    path = tmp_path / "pipes.csv"
    write_csv(synth.generate(synth.GeneratorConfig(n=3000, seed=5)), path)
    header, *rows = [line.split(",") for line in path.read_text().splitlines()]
    for i, column, cell in BAD_CELLS:
        rows[i][header.index(column)] = cell
    write_lines(path, [",".join(cells) for cells in [header] + rows])
    bad = {i for i, _, _ in BAD_CELLS}
    _, report = ingest_csv(path, REF_YEAR)
    assert report.rows_read == 3000
    assert oracles.kept_rows(path, REF_YEAR) == tuple(i for i in range(3000) if i not in bad)
    assert list(report.drops_by_column.items()) == [
        ("material", 1), ("wall_thickness_loss_pct", 1), ("length_ft", 4), ("diameter_in", 2)]
    out = tmp_path / "out.csv"
    with redirect_stdout(io.StringIO()):
        assert cli.main(["predict", "--builtin", "CI", "--in", str(path), "--out", str(out)]) == 0
    with open(out, newline="", encoding="utf-8") as fh:
        echoed = [cells[:-1] for cells in csv.reader(fh)]
    assert echoed == [header] + [cells for i, cells in enumerate(rows) if i not in bad]


def test_ingest_reads_the_last_copy_of_a_duplicated_column(tmp_path):
    path = tmp_path / "pipes.csv"
    header = HEADER + ",length_ft"
    write_lines(path, [header, row() + ",250", row() + ",-1", row()])
    dataset, report = ingest_csv(path, REF_YEAR)
    assert dataset.column("length_ft").tolist() == [250.0]
    assert report.drops_by_column == {"length_ft": 2}  # -1 fails; the short row's copy is empty


def test_read_table_skips_blank_rows_and_keeps_short_ones(tmp_path):
    path = tmp_path / "pipes.csv"
    path.write_text("a,b,c\n1,2,3\n\n4\n,\n5,6,7,8\n", encoding="utf-8")
    header, columns = read_blocks(path)
    assert header == ["a", "b", "c"]
    # the rows [1, 2, 3], [4], ["", ""] and [5, 6, 7, 8], padded or cut to the header's width
    assert columns == [["1", "4", "", "5"], ["2", "", "", "6"], ["3", "", "", "7"]]
    assert [list(row) for row in zip(*columns)][3] == ["5", "6", "7"]  # the long row's 8 is cut


# cells with every character csv.writer quotes, spaces, empty cells and non-ASCII text
CELLS = st.text(st.sampled_from(['"', ",", "\r", "\n", " ", "a", "7", ".", "\u00e9", "\u6c34"]),
                max_size=5)


def csv_writer_bytes(path, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(rows)
    return path.read_bytes()


@st.composite
def rectangular_tables(draw):
    """A header and rows of its width."""
    width = draw(st.integers(1, 4))
    row = st.lists(CELLS, min_size=width, max_size=width)
    return draw(row), draw(st.lists(row, max_size=12))


@settings(deadline=None, max_examples=300)
@given(table=rectangular_tables(), block=st.integers(1, 4))
@example(table=(["a", 'b"'], [["", "x,y"], ["\r", "\n"], ['"', " \u00e9"], ["", ""], ["1", ""]]),
         block=2).via("more rows than a block, every quoted character")
def test_write_columns_writes_what_csv_writer_writes(table, block):
    header, rows = table
    columns = [[row[j] for row in rows] for j in range(len(header))]
    with tempfile.TemporaryDirectory() as tmp, patch.object(data_module, "_BLOCK", block):
        got, want = Path(tmp) / "got.csv", Path(tmp) / "want.csv"
        write_columns(got, header, columns)
        assert got.read_bytes() == csv_writer_bytes(want, [header] + rows)


def test_write_columns_refuses_columns_of_unequal_length(tmp_path):
    with pytest.raises(DimensionMismatch):
        write_columns(tmp_path / "x.csv", ["a", "b"], [["1", "2"], ["3"]])
    with pytest.raises(DimensionMismatch):
        write_columns(tmp_path / "x.csv", ["a", "b"], [["1", "2"]])


@st.composite
def csv_tables(draw):
    """A header and rows of any width, some of them blank."""
    header = draw(st.lists(CELLS, min_size=1, max_size=4))
    width = st.integers(0, len(header) + 2)
    rows = draw(st.lists(width.flatmap(lambda k: st.lists(CELLS, min_size=k, max_size=k)),
                         max_size=12))
    return header, rows


@settings(deadline=None, max_examples=300)
@given(table=csv_tables(), block=st.integers(1, 4))
@example(table=(["a", "b", "c"], [["1", "2", "3"], ["4", "5", "6"], [], ["7"], ["8", ""],
                                  ["9", "10", "11", "12"]]),
         block=2).via("a block in which every row is shorter than the header")
def test_read_table_transposes_the_csv_reader_rows(table, block):
    header, rows = table
    with tempfile.TemporaryDirectory() as tmp, patch.object(data_module, "_BLOCK", block):
        path = Path(tmp) / "t.csv"
        csv_writer_bytes(path, [header] + rows)
        with open(path, newline="", encoding="utf-8") as fh:
            read = list(csv.reader(fh))
        got = read_blocks(path)
    kept = [row for row in read[1:] if row]  # blank rows are skipped
    fitted = [(row + [""] * len(header))[:len(header)] for row in kept]
    assert got == (read[0], [[row[j] for row in fitted] for j in range(len(header))])


def test_read_table_drops_a_byte_order_mark(tmp_path):
    dataset = make_dataset(15)
    plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
    write_csv(dataset, plain)
    marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    assert read_blocks(marked) == read_blocks(plain)
    back, report, echo = ingest_csv(marked, REF_YEAR, echo=True)
    want, want_report, want_echo = ingest_csv(plain, REF_YEAR, echo=True)
    assert report == want_report and echo == want_echo
    assert oracles.kept_rows(marked, REF_YEAR) == oracles.kept_rows(plain, REF_YEAR)
    assert np.array_equal(back.materials, want.materials)
    for name in NUMERIC_COLUMNS:
        assert np.array_equal(bits(back.numeric[name]), bits(want.numeric[name])), name


def test_read_table_reports_a_field_over_the_csv_limit_as_unreadable(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b\n1," + "x" * (csv.field_size_limit() + 1) + "\n", encoding="utf-8")
    with pytest.raises(FileUnreadable, match="as CSV: field larger than field limit"):
        read_blocks(path)


# -- splitting ------------------------------------------------------------------

def test_split_counts_100():
    dataset = make_dataset(100)
    labeled = split_dataset(dataset, (0.75, 0.10, 0.15), seed=7)
    assert labeled.rows_for(Split.TRAIN).size == 75
    assert labeled.rows_for(Split.VALIDATION).size == 10
    assert labeled.rows_for(Split.TEST).size == 15


def test_split_remainder_goes_train_first():
    dataset = make_dataset(1)
    labeled = split_dataset(dataset, (0.75, 0.10, 0.15), seed=0)
    assert labeled.split.tolist() == [SPLITS.index(Split.TRAIN)]


def test_split_ratio_sum_invalid():
    with pytest.raises(RatioSumInvalid):
        split_dataset(make_dataset(10), (0.5, 0.5, 0.5), seed=0)
    with pytest.raises(RatioSumInvalid):
        split_dataset(make_dataset(10), (1.0, 0.0, 0.0), seed=0)


def test_split_deterministic_and_partitioning():
    dataset = make_dataset(53)
    a = split_dataset(dataset, (0.75, 0.10, 0.15), seed=11)
    b = split_dataset(dataset, (0.75, 0.10, 0.15), seed=11)
    c = split_dataset(dataset, (0.75, 0.10, 0.15), seed=12)
    assert np.array_equal(a.split, b.split)
    assert not np.array_equal(a.split, c.split)
    assert len(a.split) == len(dataset)  # every record labeled exactly once
    assert set(a.split.tolist()) <= set(range(len(SPLITS)))


def reference_split_codes(n, ratios, seed):
    """The row-by-row label assignment split_dataset replaced, as codes."""
    counts = [int(np.floor(r * n)) for r in ratios]
    for i in range(n - sum(counts)):
        counts[i % 3] += 1
    order = np.random.default_rng(seed).permutation(n)
    labels = [None] * n
    cursor = 0
    for label, count in zip((Split.TRAIN, Split.VALIDATION, Split.TEST), counts):
        for idx in order[cursor:cursor + count]:
            labels[idx] = label
        cursor += count
    return [SPLITS.index(label) for label in labels]


@settings(deadline=None)
@given(
    n=st.integers(1, 300),
    weights=st.lists(st.floats(0.01, 1.0), min_size=3, max_size=3),
    seed=st.integers(0, 2**63),
)
def test_split_codes_match_the_row_by_row_assignment(n, weights, seed):
    ratios = tuple(w / sum(weights) for w in weights)
    labeled = split_dataset(dataset_of([make_record()] * n), ratios, seed)
    assert labeled.split.dtype == np.int8 and not labeled.split.flags.writeable
    assert labeled.split.tolist() == reference_split_codes(n, ratios, seed)
    rows = [labeled.rows_for(label) for label in SPLITS]
    for part in rows:
        assert np.all(np.diff(part) > 0)
    assert np.array_equal(np.sort(np.concatenate(rows)), np.arange(n))
    features = build_features(labeled, ("age_years", "rul_years"))
    for label, part in zip(SPLITS, rows):
        assert np.array_equal(features.rows_for(label), part)


def test_a_split_of_the_wrong_length_is_refused():
    dataset = make_dataset(50)
    with pytest.raises(DimensionMismatch):
        replace(dataset, split=np.zeros(10, dtype=np.int8))
    features = build_features(dataset, ("age_years", "rul_years"))
    with pytest.raises(DimensionMismatch):
        replace(features, split=np.zeros(10, dtype=np.int8))
    with pytest.raises(DimensionMismatch):
        FeatureMatrix(features.values, features.column_names, np.zeros(51, dtype=np.int8))


def test_a_split_shares_every_column_with_its_source():
    dataset = make_dataset(100)
    labeled = split_dataset(dataset, (0.75, 0.10, 0.15), seed=7)
    assert np.shares_memory(labeled.materials, dataset.materials)
    for name in NUMERIC_COLUMNS:
        assert np.shares_memory(labeled.numeric[name], dataset.numeric[name]), name
    assert np.shares_memory(build_features(labeled, ("age_years",)).split, labeled.split)


def test_a_dataset_copies_a_callers_writeable_arrays():
    columns = {name: np.arange(1.0, 4.0) for name in NUMERIC_COLUMNS}
    base, materials, split = np.arange(1.0, 4.0), np.zeros(3, np.int8), np.zeros(3, np.int8)
    view = base[:]  # a read-only view of a writeable array is copied too
    view.setflags(write=False)
    dataset = Dataset(dict(columns, age_years=view), materials, split)
    for values in (base, materials, split, *columns.values()):
        assert values.flags.writeable
        values[:] = 2
    assert dataset.materials.tolist() == dataset.split.tolist() == [0, 0, 0]
    for name in NUMERIC_COLUMNS:
        assert dataset.numeric[name].tolist() == [1.0, 2.0, 3.0], name
        assert not dataset.numeric[name].flags.writeable, name


# -- feature building ---------------------------------------------------------------

def test_a_feature_matrix_copies_a_callers_writeable_array():
    values = np.zeros((3, 1))
    features = FeatureMatrix(values, ("a",))
    assert values.flags.writeable
    values[:] = 2
    assert features.values.tolist() == [[0.0]] * 3
    assert not features.values.flags.writeable


def test_build_features_keeps_the_matrix_it_builds():
    built, matrix = [], Dataset.matrix

    def recorded(self, names):
        built.append(matrix(self, names))
        return built[-1]

    with patch.object(Dataset, "matrix", recorded):
        features = build_features(make_dataset(10), ("age_years", "material"))
    assert features.values is built[0]
    assert not features.values.flags.writeable


def test_build_features_minmax_endpoints():
    dataset = make_dataset(30)
    fm = build_features(dataset, ("age_years", "wall_thickness_loss_pct"))
    norm = fm.normalized()
    assert norm.min() >= 0.0 and norm.max() <= 1.0
    assert norm[:, 0].min() == pytest.approx(0.0)
    assert norm[:, 0].max() == pytest.approx(1.0)


def test_build_features_material_is_ea():
    dataset = make_dataset(14)
    fm = build_features(dataset, ("material",))
    expected = [MATERIALS[code].ea_value for code in dataset.materials]
    assert fm.values[:, 0] == pytest.approx(expected)


def test_build_features_round_trip():
    dataset = make_dataset(25)
    fm = build_features(dataset, ("age_years", "length_ft"))
    for name in fm.column_names:
        raw = fm.raw_column(name)
        constants = fm.column_constants((name,))
        scaled = normalize(raw[:, None], constants)
        back = denormalize(scaled, constants)[:, 0]
        assert back == pytest.approx(raw, abs=1e-9)


def test_build_features_constant_column_minmax():
    dataset = dataset_of([make_record(age=30)] * 5)
    fm = build_features(dataset, ("age_years",))
    assert fm.normalized()[:, 0] == pytest.approx(np.zeros(5))
    a, b = fm.constants[0]
    assert a == b == 30.0
    # round trip of a constant column reproduces the constant
    back = denormalize(np.zeros((5, 1)), fm.column_constants(("age_years",)))
    assert back[:, 0] == pytest.approx([30.0] * 5)


def test_build_features_unknown_column():
    with pytest.raises(UnknownColumn):
        build_features(make_dataset(5), ("soil_ph",))


def test_build_features_column_order_matches_request():
    dataset = make_dataset(10)
    fm = build_features(dataset, ("length_ft", "age_years"))
    assert fm.column_names == ("length_ft", "age_years")
    assert fm.values[:, 1] == pytest.approx(dataset.column("age_years"))


def test_feature_matrix_derives_each_columns_min_and_max():
    values = np.array([[3.0, -1.0], [1.0, -1.0], [2.0, -1.0]])
    fm = FeatureMatrix(values, ("a", "b"))
    assert fm.constants == ((1.0, 3.0), (-1.0, -1.0))
    assert replace(fm, split=np.zeros(3, dtype=np.int8)).constants == fm.constants
    assert fm.normalized().tolist() == [[1.0, 0.0], [0.0, 0.0], [0.5, 0.0]]


@st.composite
def scaled_matrices(draw):
    """(values, constants): each column's (min, max), as FeatureMatrix
    derives them; some columns are constant."""
    n = draw(st.integers(2, 12))
    d = draw(st.integers(1, 4))
    finite = st.floats(-1e6, 1e6, allow_nan=False, allow_subnormal=False)
    values = draw(arrays(float, (n, d), elements=finite))
    for j in range(d):
        if draw(st.booleans()):
            values[:, j] = values[0, j]
    constants = tuple((float(c.min()), float(c.max())) for c in values.T)
    return values, constants


@given(scaled_matrices())
def test_normalize_then_denormalize_returns_the_input(case):
    values, constants = case
    scaled = normalize(values, constants)
    constant = np.array([a == b for a, b in constants])
    assert np.all(scaled[:, constant] == 0.0)
    back = denormalize(scaled, constants)
    scale = 1.0 + np.abs(values).max() + np.abs(np.asarray(constants)).max()
    np.testing.assert_allclose(back, values, rtol=0, atol=1e-12 * scale)
