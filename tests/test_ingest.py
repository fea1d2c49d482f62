import dataclasses
import datetime as dt
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regio_forecast import ingest
from regio_forecast.errors import ConfigError, DataError
from regio_forecast.ingest import (
    CATEGORICAL_RANGES,
    CSV_HEADER,
    RegionalDataset,
    RegionId,
    parse_regional_csv,
    region_by_code,
    region_by_name,
    split_train_test,
    write_regional_csv,
)
from regio_forecast.mtl import train_mtl
from regio_forecast.synth import SyntheticSpec, generate_regions

from oracles import first_bad_cell, read_csv_oracle, write_csv_oracle


def make_row(day, feat_02=1.0, deaths=0):
    """(date, features, targets) of one valid Alberta day, with overrides."""
    features = np.ones(27)
    features[1] = feat_02          # feat_02
    features[3] = 0.0              # feat_04: Alberta's region code
    features[4] = 1.0              # feat_05 wave
    features[6] = 1.0              # feat_07
    features[7] = 0.0              # feat_08
    features[8] = 0.0              # feat_09
    features[9] = 0.0              # feat_10
    return (dt.date(2020, 1, 25) + dt.timedelta(days=day),
            features, np.array([1, 1, 1, deaths]))


def make_dataset(*rows):
    dates, features, targets = zip(*rows)
    return RegionalDataset(region_by_code(0), dates, np.array(features), np.array(targets))


def test_region_encodings():
    assert region_by_code(6).name == "Ontario"
    assert region_by_name("british_columbia").code == 1
    assert region_by_name("British Columbia").code == 1
    with pytest.raises(DataError):
        region_by_code(11)
    with pytest.raises(DataError):
        RegionId(0, "Ontario")    # name does not match code 0


def test_parse_well_formed_file(tmp_path):
    ds = generate_regions(SyntheticSpec(regions=1, rows=362, seed=3))[0]
    path = tmp_path / "alberta.csv"
    write_regional_csv(ds, path)
    parsed = parse_regional_csv(path, ds.region)
    assert parsed.n_rows == 362
    dates = parsed.dates
    assert all(a < b for a, b in zip(dates, dates[1:]))


def test_writer_matches_csv_module_bytes(tmp_path):
    """The one-call writer gives the bytes of csv.writer, row by row."""
    synthetic = generate_regions(SyntheticSpec(regions=1, rows=120, seed=5))[0]
    edge = (1e-05, -0.0, 1e+16, 5e-324, -1.5e-300, 1.7976931348623157e308, 0.1, 2.0)
    rows = [make_row(day) for day in range(len(edge))]
    for (_, features, targets), value in zip(rows, edge):
        features[[0, 2, 12, 26]] = value          # feat_01, feat_03, feat_13, feat_27
        targets[0] = 2 ** 53 - 1
    for ds in (synthetic, make_dataset(*rows)):
        write_regional_csv(ds, tmp_path / "bulk.csv")
        write_csv_oracle(ds, tmp_path / "rows.csv")
        assert (tmp_path / "bulk.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()
    lines = (tmp_path / "bulk.csv").read_bytes().split(b"\r\n")
    assert lines[1].startswith(b"2020-01-25,1e-05,1.0,1e-05,")
    assert b",-0.0,1.0,-0.0," in lines[2] and b",1e+16,1.0,1e+16," in lines[3]
    assert lines[1].endswith(b",9007199254740991,1,1,0") and lines[-1] == b""


def test_parse_roundtrip_identical(tmp_path):
    ds = generate_regions(SyntheticSpec(regions=1, rows=40, seed=11))[0]
    path = tmp_path / "alberta.csv"
    write_regional_csv(ds, path)
    back = parse_regional_csv(path, ds.region)
    assert np.array_equal(back.dates, ds.dates)
    assert np.array_equal(back.targets, ds.targets)
    # reals round-trip bit-exactly through repr, comfortably within 1e-12
    assert np.array_equal(back.features, ds.features)


def test_parse_missing_column(tmp_path):
    path = tmp_path / "bad.csv"
    header = [c for c in CSV_HEADER if c != "feat_05"]
    path.write_text(",".join(header) + "\n")
    with pytest.raises(DataError, match=f"^{re.escape(str(path))}: "
                                        "required column missing from header: 'feat_05'$"):
        parse_regional_csv(path, region_by_code(0))


def test_parse_bad_categorical(tmp_path):
    path = write_with_cell(tmp_path, 2, "feat_02", "7.0")
    with pytest.raises(DataError, match=(r"alberta\.csv: bad value at row 2, column 'feat_02': "
                                         r"7\.0 not in enumerated range \[1, 2, 3, 4\]$")):
        parse_regional_csv(path, region_by_code(0))


def test_parse_duplicate_date(tmp_path):
    path = write_with_cell(tmp_path, 2, "date", "2020-01-25")    # the date of row 1
    with pytest.raises(DataError, match=r"alberta\.csv: duplicate date in dataset: 2020-01-25$"):
        parse_regional_csv(path, region_by_code(0))


@pytest.mark.parametrize("gap", [False, True], ids=["bulk", "row_loop"])
@pytest.mark.parametrize("text", [
    "20200127", "2020-W05-1", "2020W051", "2020-W05", "2020-1-27", "2020-01-27T00:00",
    "\u0662\u0660\u0662\u0660-01-27", "2020-01-32", "0000-01-27"])
def test_date_other_than_yyyy_mm_dd_is_a_bad_date(tmp_path, gap, text):
    """Both readers and the oracle take YYYY-MM-DD alone, whatever else the
    interpreter's ``date.fromisoformat`` reads (3.11 reads the first four
    of these as 2020-01-27, the day they replace)."""
    path = write_with_cell(tmp_path, 3, "date", text)
    if gap:                                          # an empty cell takes the row loop
        set_cell(path, 5, "feat_03", "")
    message = f"{path}: bad value at row 3, column 'date': {text}"
    with pytest.raises(DataError) as expected:
        read_csv_oracle(path, region_by_code(0))
    assert str(expected.value) == message
    with pytest.raises(DataError) as err:
        parse_regional_csv(path, region_by_code(0))
    assert str(err.value) == message


@pytest.mark.parametrize("gap", [False, True], ids=["bulk", "row_loop"])
def test_padded_yyyy_mm_dd_is_read_by_both_readers(tmp_path, monkeypatch, gap):
    path = write_with_cell(tmp_path, 3, "date", " 2020-01-27\t")
    if gap:
        set_cell(path, 5, "feat_03", "")
    calls = count_row_loop_reads(monkeypatch)
    dates, features, targets = read_csv_oracle(path, region_by_code(0))
    ds = parse_regional_csv(path, region_by_code(0))
    assert calls == ([1] if gap else [])
    assert ds.dates.tolist() == dates == [dt.date(2020, 1, 25 + day) for day in range(6)]
    assert ds.features.tobytes() == features.tobytes()


@pytest.mark.parametrize("row", [1, 55])
def test_bytes_that_are_not_utf8_are_reported_before_any_other_fault(tmp_path, row):
    """Wherever the byte is: row 55 of this file lies past the first 8 KiB,
    which a text stream decodes before it reads the header."""
    path = tmp_path / "alberta.csv"
    write_regional_csv(generate_regions(SyntheticSpec(regions=1, rows=60, seed=3))[0], path)
    lines = path.read_bytes().split(b"\r\n")
    lines[0] = lines[0].replace(b"feat_02", b"feat_2")
    lines[row] = lines[row].replace(b",", b",\xe9", 1)
    assert len(b"\r\n".join(lines[:row])) > 8192 * (row > 1)
    path.write_bytes(b"\r\n".join(lines))
    with pytest.raises(DataError, match=rf"^{re.escape(str(path))}: not UTF-8 text \(byte 0xe9\)$"):
        parse_regional_csv(path, region_by_code(0))


@pytest.mark.filterwarnings("error")                # loadtxt warns of a body with no data
def test_parse_empty_file(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(DataError, match=r"empty\.csv: file is empty$"):
        parse_regional_csv(path, region_by_code(0))
    header_only = tmp_path / "header.csv"
    header_only.write_text(",".join(CSV_HEADER) + "\n")
    with pytest.raises(DataError, match=r"header\.csv: header but no data rows$"):
        parse_regional_csv(header_only, region_by_code(0))


def test_parse_forward_fills_missing_cells(tmp_path):
    ds = make_dataset(make_row(0), make_row(1))
    path = tmp_path / "alberta.csv"
    write_regional_csv(ds, path)
    lines = path.read_text().splitlines()
    cells = lines[2].split(",")
    cells[1] = ""                  # blank feat_01 on the second data row
    lines[2] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    parsed = parse_regional_csv(path, ds.region)
    feat_01 = parsed.columns(["feat_01"])[:, 0]
    assert feat_01[1] == feat_01[0]


def test_parse_rejects_missing_cell_in_first_row(tmp_path):
    ds = make_dataset(make_row(0))
    path = tmp_path / "alberta.csv"
    write_regional_csv(ds, path)
    lines = path.read_text().splitlines()
    cells = lines[1].split(",")
    cells[2] = ""
    lines[1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DataError, match=(
            r"alberta\.csv: bad value at row 1, column 'feat_02': "
            r"missing cell on the earliest date \(nothing to forward-fill\)$")):
        parse_regional_csv(path, ds.region)


def set_cell(path, row, column, text):
    """Replace the cell (data row ``row``, ``column``) of a CSV file with ``text``."""
    lines = path.read_text().splitlines()
    cells = lines[row].split(",")
    cells[CSV_HEADER.index(column)] = text
    lines[row] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


def write_with_cell(tmp_path, row, column, text):
    """Write 6 valid Alberta days with the cell (data row ``row``, ``column``) set to ``text``."""
    path = tmp_path / "alberta.csv"
    write_regional_csv(make_dataset(*(make_row(day) for day in range(6))), path)
    set_cell(path, row, column, text)
    return path


@pytest.mark.parametrize("row, column, text", [
    (2, "feat_02", "nan"), (3, "infections", "inf"), (5, "feat_12", "inf"),
    (1, "deaths", "-inf"),
])
def test_parse_rejects_non_finite_cells(tmp_path, row, column, text):
    path = write_with_cell(tmp_path, row, column, text)
    with pytest.raises(DataError,
                       match=f"alberta\\.csv: bad value at row {row}, column '{column}': "
                             f"{text} is not finite$"):
        parse_regional_csv(path, region_by_code(0))


def test_parse_rejects_foreign_region_code(tmp_path):
    path = write_with_cell(tmp_path, 3, "feat_04", "1.0")
    with pytest.raises(DataError, match=(r"alberta\.csv: bad value at row 3, column 'feat_04': "
                                         r"region code 1 does not match Alberta \(0\)$")):
        parse_regional_csv(path, region_by_code(0))
    # a whole file of another region fails on its first row
    with pytest.raises(DataError, match=(
            r"alberta\.csv: bad value at row 1, column 'feat_04': "
            r"region code 0 does not match British Columbia \(1\)$")):
        parse_regional_csv(write_with_cell(tmp_path, 1, "deaths", "0"), region_by_code(1))


def test_parse_reports_text_fault_before_value_fault(tmp_path):
    # the cell rules run on the whole table after every row is read as text
    path = write_with_cell(tmp_path, 2, "feat_02", "7.0")
    set_cell(path, 5, "feat_12", "abc")
    with pytest.raises(DataError,
                       match=r"alberta\.csv: bad value at row 5, column 'feat_12': abc$"):
        parse_regional_csv(path, region_by_code(0))


def write_in_file_order(path, rows, order):
    """Write Alberta ``rows`` (in date order) with data row ``order[i]`` as file row i + 1."""
    write_regional_csv(make_dataset(*rows), path)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:1] + [lines[1 + i] for i in order]) + "\n")


def test_forward_fill_follows_dates_not_file_order(tmp_path):
    rows = [make_row(day) for day in range(3)]
    for (_, features, _), feat_01 in zip(rows, (1.006, 3.5, 6.788)):
        features[0] = feat_01
    path = tmp_path / "alberta.csv"
    write_in_file_order(path, rows, [0, 2, 1])
    set_cell(path, 3, "feat_01", "")                 # 2020-01-26, the third file row
    parsed = parse_regional_csv(path, region_by_code(0))
    assert parsed.dates.tolist() == [date for date, _, _ in rows]
    assert parsed.columns(["feat_01"])[:, 0].tolist() == [1.006, 1.006, 6.788]


def test_missing_cell_on_earliest_date_names_its_file_row(tmp_path):
    path = tmp_path / "alberta.csv"
    write_in_file_order(path, [make_row(day) for day in range(4)], [1, 2, 0, 3])
    set_cell(path, 3, "feat_05", "")                 # 2020-01-25, the third file row
    set_cell(path, 1, "feat_02", "")                 # 2020-01-26 could take 01-25's value
    with pytest.raises(DataError, match=(
            r"alberta\.csv: bad value at row 3, column 'feat_05': "
            r"missing cell on the earliest date \(nothing to forward-fill\)$")):
        parse_regional_csv(path, region_by_code(0))


def test_valid_file_is_checked_once(tmp_path, monkeypatch):
    path = tmp_path / "alberta.csv"
    write_regional_csv(generate_regions(SyntheticSpec(regions=1, rows=30, seed=1))[0], path)
    calls = []
    checked = ingest._first_bad_cell
    monkeypatch.setattr(ingest, "_first_bad_cell",
                        lambda *args: calls.append(args) or checked(*args))
    parse_regional_csv(path, region_by_code(0))
    assert len(calls) == 1
    set_cell(path, 4, "feat_03", "")                 # and once for a file with a gap
    parse_regional_csv(path, region_by_code(0))
    assert len(calls) == 2


def test_validate_clean_dataset(small_datasets):
    ds = small_datasets[0]
    again = RegionalDataset(ds.region, ds.dates, ds.features, ds.targets)
    assert np.array_equal(again.features, ds.features)
    assert np.array_equal(again.targets, ds.targets)


def test_validate_negative_death_count():
    with pytest.raises(DataError,
                       match="^bad value at 2020-01-26, column 'deaths': -2 is negative$"):
        make_dataset(make_row(0), make_row(1, deaths=-2))


@pytest.mark.parametrize("count", [2 ** 53 + 1, 2 ** 63 - 1])
def test_int64_count_past_max_count_is_refused_unrounded(count):
    """As a float, 2**53 + 1 rounds to MAX_COUNT and would pass; int64 targets are compared
    as integers, in the one-pass check and in the per-rule masks alike."""
    with pytest.raises(DataError, match=(f"^bad value at 2020-01-26, column 'deaths': {count} "
                                         "is not an integer count up to 9007199254740992$")):
        make_dataset(make_row(0), make_row(1, deaths=count))


@pytest.mark.parametrize("targets, dtype", [([["1", "1", "1", "1"]], "<U1"),
                                           ([[2 ** 64, 1, 1, 1]], "object")])
def test_non_numeric_targets_are_refused_naming_the_dtype(targets, dtype):
    date, features, _ = make_row(0)
    with pytest.raises(DataError, match=f"^targets must be numbers, got dtype {dtype}$"):
        RegionalDataset(region_by_code(0), [date], [features], targets)


def test_int64_count_of_max_count_is_accepted():
    ds = make_dataset(make_row(0, deaths=2 ** 53))
    assert ds.targets.dtype == np.int64 and ds.targets[0, 3] == 2 ** 53


@pytest.mark.parametrize("features, targets", [((2, 26), (2, 4)), ((2, 27), (2, 3)),
                                               ((3, 27), (3, 4))])
def test_mismatched_shapes_are_refused(features, targets):
    dates = [dt.date(2020, 1, 25), dt.date(2020, 1, 26)]
    with pytest.raises(DataError, match=re.escape(
            f"2 dates need (2, 27) features and (2, 4) targets, got {features} and {targets}")):
        RegionalDataset(region_by_code(0), dates, np.ones(features), np.ones(targets))


def test_validate_duplicate_date():
    with pytest.raises(DataError,
                       match="^bad value at 2020-01-25, column 'date': not after 2020-01-25$"):
        make_dataset(make_row(0), make_row(0))


# Cell values that probe every rule: non-finite, signed zero, fractions,
# negatives, the count bound and one past it, and categorical codes in and
# out of range (0-4 are Alberta's feat_04 or a foreign region code; 0 and
# the fractions are no health-centre count).
_PROBES = [float("nan"), float("inf"), float("-inf"), -0.0, 0.5, 1.5, -1.0,
           float(2 ** 53), float(2 ** 53 + 2), 0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 11.0]
# feat_02, feat_04, feat_05, feat_07-feat_11 and the four targets
_RULED_COLUMNS = [1, 3, 4, 6, 7, 8, 9, 10, 27, 28, 29, 30]


@settings(deadline=None, max_examples=300, derandomize=True)
@given(n_rows=st.integers(1, 4),
       edits=st.lists(st.tuples(st.integers(0, 3),
                                st.one_of(st.sampled_from(_RULED_COLUMNS), st.integers(0, 30)),
                                st.sampled_from(_PROBES)), max_size=4))
def test_construction_matches_cell_oracle(n_rows, edits):
    rows = [make_row(day) for day in range(n_rows)]
    dates = [date for date, _, _ in rows]
    table = np.array([np.concatenate([f, t]) for _, f, t in rows], dtype=np.float64)
    for row, col, value in edits:
        table[row % n_rows, col] = value
    region = region_by_code(0)
    expected = first_bad_cell(table[:, :27], table[:, 27:], region)
    if expected is None:
        ds = RegionalDataset(region, dates, table[:, :27], table[:, 27:])
        assert np.array_equal(ds.targets, table[:, 27:])
        return
    row, code, detail = expected
    with pytest.raises(DataError) as err:
        RegionalDataset(region, dates, table[:, :27], table[:, 27:])
    assert str(err.value) == f"bad value at {dates[row]}, column {code!r}: {detail}"


def test_enumerated_ranges_are_runs_of_consecutive_integers():
    """The one-pass cell check tests a categorical cell against its set's bounds."""
    for allowed in CATEGORICAL_RANGES.values():
        assert allowed == frozenset(range(min(allowed), max(allowed) + 1))


@pytest.fixture(scope="module")
def workload_tables():
    """Clean Alberta tables of 362 and 2000 days, as (dates, features then targets)."""
    tables = {}
    for n_rows in (362, 2000):
        ds = generate_regions(SyntheticSpec(regions=1, rows=n_rows, seed=n_rows))[0]
        table = np.hstack([ds.features, ds.targets.astype(np.float64)])
        assert first_bad_cell(table[:, :27], table[:, 27:], ds.region) is None
        tables[n_rows] = ds.dates, table
    return tables


@pytest.mark.parametrize("n_rows", [362, 2000])
@pytest.mark.parametrize("column", [None, *_RULED_COLUMNS])
def test_construction_matches_cell_oracle_at_workload_size(workload_tables, n_rows, column):
    """A clean table, and each probe in the last row of one ruled column,
    at the sizes the workloads parse. The rows before the last are clean
    (the fixture checks them), so the oracle's first bad cell of the whole
    table is that of its last row."""
    dates, clean = workload_tables[n_rows]
    region = region_by_code(0)
    for probe in [None] if column is None else _PROBES:
        table = clean.copy()
        if probe is not None:
            table[-1, column] = probe
        expected = first_bad_cell(table[-1:, :27], table[-1:, 27:], region)
        if expected is None:
            ds = RegionalDataset(region, dates, table[:, :27], table[:, 27:])
            assert np.array_equal(ds.targets, table[:, 27:])
            continue
        _, code, detail = expected
        with pytest.raises(DataError) as err:
            RegionalDataset(region, dates, table[:, :27], table[:, 27:])
        assert str(err.value) == f"bad value at {dates[-1]}, column {code!r}: {detail}"


# Cell texts for the bulk-conversion test: numbers that float() reads
# although they are padded, quoted or unusual, and text that it rejects,
# that overflows or that the parser forward-fills.
_ODD_NUMBERS = [" 1 ", "\t0\x0b", "\xa02.0\u3000", "1_0", "\u0661", "\uff12", "-0",
                "1e-400", "3.0e0", "+1.", ".5", '"1.0"', '" 2 "', '"1"2', '"1\n"', '"\r\n2"',
                "\x1c1\x1f", "\u20281", "2\x85", "\x0c3\x0c"]
_BAD_TEXTS = ["", " ", "\xa0", '""', "1e999", "NaN", "-inf", "iNfInItY", "0x10", "0x1p0",
              "nan(1)", "abc", "1__0", "1_000_", "1\x00", "\t0\n", "#", "#1", "1#", '"1,5"',
              '"1""2"', '"1\n2"']


@st.composite
def csv_bodies(draw):
    """An Alberta CSV: shuffled and repeated days, edited cells, odd rows and line ends.

    Lines end with ``\n``, ``\r\n`` or a lone ``\r``, and the last may have
    no line end. The text may start with a UTF-8 byte-order mark and may
    hold no data row.
    """
    odd, bad = st.sampled_from(_ODD_NUMBERS), st.sampled_from(_BAD_TEXTS)
    n_rows = draw(st.integers(0, 5))
    lines = [",".join(CSV_HEADER)]
    for day in draw(st.one_of(st.just(range(n_rows)), st.permutations(range(n_rows)),
                              st.lists(st.integers(0, max(n_rows - 1, 0)),
                                       min_size=n_rows, max_size=n_rows))):
        date, features, targets = make_row(day)
        features[[0, 2, 11]] = day + 0.25    # feat_01, feat_03, feat_12 tell the days apart
        targets[0] = day
        cells = [date.isoformat()] + [repr(float(v)) for v in features] + \
            [str(int(v)) for v in targets]
        for col, text in draw(st.lists(st.tuples(st.integers(0, 31),
                                                 st.one_of(odd, odd, odd, bad)), max_size=2)):
            cells[col] = text
        width = draw(st.sampled_from([32] * 30 + [1, 31, 33]))
        cells = cells[:width] + ["0"] * (width - 32)
        lines.append(draw(st.sampled_from([None] * 6 + ["", ",,,", " , "])))
        lines.append(",".join(cells))
    bom = draw(st.sampled_from(["", "", "\ufeff"]))
    lines = [line for line in lines if line is not None]
    ends = [draw(st.sampled_from(["\n", "\r\n", "\n", "\r\n", "\r"])) for _ in lines]
    ends[-1] = draw(st.sampled_from([ends[-1], ends[-1], ""]))
    return bom + "".join(line + end for line, end in zip(lines, ends))


@settings(deadline=None, max_examples=400, derandomize=True)
@given(csv_bodies())
def test_bulk_parse_matches_row_by_row_oracle(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "alberta.csv"
        path.write_bytes(text.encode("utf-8"))
        region = region_by_code(0)
        try:
            expected = read_csv_oracle(path, region)
        except DataError as exc:
            with pytest.raises(DataError) as err:
                parse_regional_csv(path, region)
            assert str(err.value) == str(exc)
            return
        ds = parse_regional_csv(path, region)
        dates, features, targets = expected
        assert ds.dates.tolist() == dates
        assert ds.features.tobytes() == features.tobytes()
        assert np.array_equal(ds.targets, targets)


def count_row_loop_reads(monkeypatch):
    """Calls to the row loop that reads a file numpy's C reader rejected."""
    calls = []
    read = ingest._read_table
    monkeypatch.setattr(ingest, "_read_table", lambda records: calls.append(1) or read(records))
    return calls


def test_clean_file_never_reaches_the_row_loop(tmp_path, monkeypatch):
    calls = count_row_loop_reads(monkeypatch)
    ds = generate_regions(SyntheticSpec(regions=1, rows=60, seed=4))[0]
    path = tmp_path / "alberta.csv"
    write_regional_csv(ds, path)
    assert parse_regional_csv(path, ds.region).features.tobytes() == ds.features.tobytes()
    # unsorted rows, quoted and padded cells, LF line ends and a byte-order mark
    lines = path.read_text().splitlines()
    lines[1:] = lines[:0:-1]
    cells = lines[5].split(",")
    cells[0], cells[1] = f" {cells[0]} ", f'"{cells[1]}"'
    cells[12], cells[29] = f" {cells[12]}\t", f'"{cells[29]}"'
    lines[5] = ",".join(cells)
    path.write_bytes(("\ufeff" + "\n".join(lines) + "\n").encode("utf-8"))
    parsed = parse_regional_csv(path, ds.region)
    assert np.array_equal(parsed.dates, ds.dates)
    assert parsed.features.tobytes() == ds.features.tobytes()
    assert np.array_equal(parsed.targets, ds.targets)
    assert calls == []


@pytest.mark.parametrize("last_end", [True, False], ids=["ended", "unended"])
@pytest.mark.parametrize("end", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
def test_bulk_read_splits_lines_where_a_text_file_does(tmp_path, monkeypatch, end, last_end):
    r"""Lone \r ends a line; \x0b, \x0c, \x1c-\x1f, \x85 and \u2028, which
    ``str.splitlines`` would split at, are padding that numpy's C reader
    and float() both skip, so such a file never reaches the row loop."""
    ds = generate_regions(SyntheticSpec(regions=1, rows=40, seed=8))[0]
    path = tmp_path / "alberta.csv"
    write_regional_csv(ds, path)
    lines = [line.split(",") for line in path.read_bytes().decode().split("\r\n")[:-1]]
    for row, column, pad in [(5, "feat_01", "\x0b"), (7, "feat_12", "\u2028"),
                             (9, "deaths", "\x85"), (11, "feat_03", "\x0c"),
                             (13, "feat_20", "\x1c"), (13, "feat_21", "\x1f")]:
        col = CSV_HEADER.index(column)
        lines[row][col] = pad + lines[row][col] + pad
    text = end.join(map(",".join, lines)) + (end if last_end else "")
    path.write_bytes(text.encode("utf-8"))
    calls = count_row_loop_reads(monkeypatch)
    dates, features, targets = read_csv_oracle(path, ds.region)
    parsed = parse_regional_csv(path, ds.region)
    assert calls == []
    assert parsed.dates.tolist() == dates == ds.dates.tolist()
    assert parsed.features.tobytes() == features.tobytes() == ds.features.tobytes()
    assert np.array_equal(parsed.targets, targets) and np.array_equal(parsed.targets, ds.targets)


def count_fast_path_work(monkeypatch):
    """Calls made while parsing: byte reads, decodes, date sorts, rule masks and row loops."""
    calls = {"reads": [], "decodes": [], "sorts": [], "masks": [],
             "row_loop": count_row_loop_reads(monkeypatch)}

    class CountedBytes(bytes):
        def decode(self, *args, **kwargs):
            calls["decodes"].append(args)
            return super().decode(*args, **kwargs)

    read_bytes, argsort, masks = Path.read_bytes, np.argsort, ingest._rule_masks
    monkeypatch.setattr(Path, "read_bytes",
                        lambda path: calls["reads"].append(path) or CountedBytes(read_bytes(path)))
    monkeypatch.setattr(np, "argsort",
                        lambda a, *args, **kwargs: calls["sorts"].append(len(a))
                        or argsort(a, *args, **kwargs))
    monkeypatch.setattr(ingest, "_rule_masks",
                        lambda *args: calls["masks"].append(1) or masks(*args))
    return calls


@pytest.mark.parametrize("shuffled", [False, True])
def test_clean_file_is_decoded_once_and_sorted_only_out_of_order(tmp_path, monkeypatch,
                                                                 shuffled):
    ds = generate_regions(SyntheticSpec(regions=1, rows=2000, seed=4))[0]
    path = tmp_path / "alberta.csv"
    write_regional_csv(ds, path)
    if shuffled:
        lines = path.read_bytes().split(b"\r\n")
        lines[1:-1] = [lines[1 + i] for i in np.random.default_rng(4).permutation(2000)]
        path.write_bytes(b"\r\n".join(lines))
    calls = count_fast_path_work(monkeypatch)
    parsed = parse_regional_csv(path, ds.region)
    assert parsed.features.tobytes() == ds.features.tobytes()
    assert np.array_equal(parsed.dates, ds.dates)
    assert calls == {"reads": [path], "decodes": [("utf-8-sig",)],
                     "sorts": [2000] if shuffled else [], "masks": [], "row_loop": []}


def test_pooled_calendar_is_converted_once(tmp_path):
    """Files of one calendar convert each date text once, in either reader."""
    datasets = generate_regions(SyntheticSpec(regions=3, rows=50, seed=6))
    paths = [tmp_path / f"{ds.region.file_stem}.csv" for ds in datasets]
    for ds, path in zip(datasets, paths):
        write_regional_csv(ds, path)
    set_cell(paths[2], 7, "feat_03", "")             # the third file takes the row loop
    ingest._date_ordinal.cache_clear()
    for ds, path in zip(datasets, paths):
        parse_regional_csv(path, ds.region)
    info = ingest._date_ordinal.cache_info()
    # the third file's dates up to its gap are read by loadtxt too, from the cache
    assert info.misses == 50 and info.hits >= 100


@pytest.mark.parametrize("column, text", [
    ("feat_03", ""), ("infections", " "), ("feat_12", "1_0"), ("feat_01", "\u0661"),
    ("date", "2020-01-40"), ("row", None)])
def test_rejected_file_takes_the_row_loop_and_matches_the_oracle(tmp_path, monkeypatch,
                                                                 column, text):
    path = tmp_path / "alberta.csv"
    write_regional_csv(generate_regions(SyntheticSpec(regions=1, rows=40, seed=2))[0], path)
    if column == "row":                              # a row one cell short
        lines = path.read_text().splitlines()
        lines[30] = lines[30].rsplit(",", 1)[0]
        path.write_text("\n".join(lines) + "\n")
    else:
        set_cell(path, 30, column, text)
    region = region_by_code(0)
    calls = count_row_loop_reads(monkeypatch)
    try:
        dates, features, targets = read_csv_oracle(path, region)
    except DataError as exc:
        with pytest.raises(DataError) as err:
            parse_regional_csv(path, region)
        assert str(err.value) == str(exc)
    else:
        ds = parse_regional_csv(path, region)
        assert ds.dates.tolist() == dates
        assert ds.features.tobytes() == features.tobytes()
        assert np.array_equal(ds.targets, targets)
    assert calls == [1]


@pytest.mark.parametrize("fault", ["cell_rule", "repeated_date"])
def test_table_fault_never_reaches_the_row_loop_and_matches_the_oracle(tmp_path, monkeypatch,
                                                                      fault):
    """A body numpy's C reader takes whole, whose only fault is a cell rule
    or a repeated date, is named from that table. Its rows are out of date
    order, after two empty lines that loadtxt skips but that keep their
    row numbers."""
    path = tmp_path / "alberta.csv"
    write_regional_csv(generate_regions(SyntheticSpec(regions=1, rows=40, seed=2))[0], path)
    if fault == "cell_rule":
        set_cell(path, 30, "feat_02", "7.0")
    else:
        set_cell(path, 30, "date", path.read_text().splitlines()[12].split(",")[0])
    lines = path.read_text().splitlines()
    path.write_bytes("\r\n".join([lines[0], "", "", *lines[:0:-1]]).encode() + b"\r\n")
    region = region_by_code(0)
    calls = count_row_loop_reads(monkeypatch)
    with pytest.raises(DataError) as expected:
        read_csv_oracle(path, region)
    with pytest.raises(DataError) as err:
        parse_regional_csv(path, region)
    assert str(err.value) == str(expected.value)
    assert ("column 'feat_02'" if fault == "cell_rule" else "duplicate date") in str(err.value)
    assert calls == []


def test_gap_is_filled_in_one_conversion(tmp_path, monkeypatch):
    """A blank cell reaches numpy as "nan", so no cell is converted on its own."""
    path = tmp_path / "alberta.csv"
    write_regional_csv(generate_regions(SyntheticSpec(regions=1, rows=40, seed=2))[0], path)
    set_cell(path, 30, "feat_05", "")
    set_cell(path, 31, "deaths", " \t")
    floats = []
    monkeypatch.setattr(ingest, "float", lambda text: floats.append(text) or float(text),
                        raising=False)
    ds = parse_regional_csv(path, region_by_code(0))
    assert floats == []
    assert ds.features[29, 4] == ds.features[28, 4] and ds.targets[30, 3] == ds.targets[29, 3]
    set_cell(path, 32, "feat_06", "nan")             # a literal nan is no gap
    with pytest.raises(DataError, match=r"row 32, column 'feat_06': nan is not finite$"):
        parse_regional_csv(path, region_by_code(0))


def test_split_sizes_and_determinism():
    ds = generate_regions(SyntheticSpec(regions=1, rows=362, seed=2))[0]
    split = split_train_test(ds, 54, seed=1)
    assert len(split.train_indices) == 308
    assert len(split.test_indices) == 54
    assert not set(split.train_indices) & set(split.test_indices)
    again = split_train_test(ds, 54, seed=1)
    assert np.array_equal(again.train_indices, split.train_indices)
    assert np.array_equal(again.test_indices, split.test_indices)
    other = split_train_test(ds, 54, seed=2)
    assert not np.array_equal(other.test_indices, split.test_indices)


@pytest.mark.parametrize("test_size, seed", [(1, 0), (54, 1), (54, 9), (361, 3)])
def test_split_is_two_sorted_read_only_index_arrays(test_size, seed):
    ds = generate_regions(SyntheticSpec(regions=1, rows=362, seed=2))[0]
    split = split_train_test(ds, test_size, seed)
    assert [f.name for f in dataclasses.fields(split)] == ["train_indices", "test_indices"]
    train, test = split.train_indices, split.test_indices
    for part in (train, test):
        assert part.dtype == np.intp and part.ndim == 1
        assert np.all(np.diff(part) > 0)
        assert not part.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            part[0] = 0
    assert len(test) == test_size
    assert np.array_equal(np.sort(np.concatenate([train, test])), np.arange(ds.n_rows))
    # the held-out days are the seed's draw, in day order
    drawn = np.random.default_rng(seed).choice(ds.n_rows, size=test_size, replace=False)
    assert np.array_equal(test, np.sort(drawn))
    again = split_train_test(ds, test_size, seed)
    assert np.array_equal(again.train_indices, train)
    assert np.array_equal(again.test_indices, test)


def test_split_bad_test_size(small_datasets):
    ds = small_datasets[0]
    with pytest.raises(ConfigError,
                       match=rf"^test_size must be in \(0, {ds.n_rows}\), got {ds.n_rows}$"):
        split_train_test(ds, ds.n_rows, seed=1)
    with pytest.raises(ConfigError, match=rf"^test_size must be in \(0, {ds.n_rows}\), got 0$"):
        split_train_test(ds, 0, seed=1)


def test_pool_excludes_case_study(small_datasets):
    case = small_datasets[0]
    model, report = train_mtl(small_datasets, case.region, range(10))
    pooled = model.source_tags[:report.generic_instances]
    assert set(pooled.tolist()) == {ds.region.code for ds in small_datasets[1:]}
    assert report.generic_instances == sum(ds.n_rows for ds in small_datasets[1:])


def test_pool_single_dataset_excluded(small_datasets):
    with pytest.raises(DataError,
                       match="^training needs at least one region besides the case study$"):
        train_mtl([small_datasets[0]], small_datasets[0].region, range(10))


def test_pool_keeps_all_when_exclude_absent(small_datasets):
    # the pool regions hold no row of the case study, so none of them is dropped
    two, case = list(small_datasets[:2]), small_datasets[2]
    model, report = train_mtl(two + [case], case.region, range(10))
    assert report.generic_instances == sum(ds.n_rows for ds in two)
    pooled = model.source_tags[:report.generic_instances]
    assert set(pooled.tolist()) == {ds.region.code for ds in two}


def test_dataset_subset(small_datasets):
    ds = small_datasets[0]
    sub = ds.subset([0, 2, 4])
    assert sub.n_rows == 3
    assert sub.region == ds.region
    assert np.array_equal(sub.dates, ds.dates[[0, 2, 4]])


def assert_read_only_days(dates):
    assert dates.dtype == np.dtype("datetime64[D]") and dates.ndim == 1
    with pytest.raises(ValueError, match="read-only"):
        dates[0] = dates[-1]


def test_every_construction_route_holds_read_only_days(tmp_path, monkeypatch):
    rows = [make_row(day) for day in range(4)]
    built = make_dataset(*rows)                      # from a tuple of datetime.date
    path = tmp_path / "alberta.csv"
    write_regional_csv(built, path)
    calls = count_row_loop_reads(monkeypatch)
    parsed = parse_regional_csv(path, built.region)
    set_cell(path, 3, "feat_03", "")                 # an empty cell takes the row loop
    filled = parse_regional_csv(path, built.region)
    assert calls == [1]
    generated = generate_regions(SyntheticSpec(regions=1, rows=10, seed=0))[0]
    subset = built.subset([0, 1, 3])
    for ds in (built, parsed, filled, generated, subset):
        assert_read_only_days(ds.dates)
    days = [date for date, _, _ in rows]
    assert built.dates.tolist() == parsed.dates.tolist() == filled.dates.tolist() == days
    assert subset.dates.tolist() == [days[0], days[1], days[3]]
    assert generated.dates.tolist() == [dt.date(2020, 1, 25) + dt.timedelta(days=i)
                                        for i in range(10)]


def test_construction_copies_the_callers_dates():
    rows = [make_row(day) for day in range(3)]
    dates = np.array([date for date, _, _ in rows], dtype="datetime64[D]")
    ds = RegionalDataset(region_by_code(0), dates, np.array([f for _, f, _ in rows]),
                         np.array([t for _, _, t in rows]))
    dates[0] = np.datetime64("2000-01-01")
    assert ds.dates.tolist()[0] == rows[0][0]


@pytest.mark.parametrize("n_rows, row, value", [
    (1, 0, "NaT"), (3, 1, "NaT"), (3, 2, "NaT"), (2, 1, "10000-01-01"),
    (2, 0, "0000-12-31")])
def test_day_outside_datetime_date_is_rejected(n_rows, row, value):
    rows = [make_row(day) for day in range(n_rows)]
    dates = np.array([date for date, _, _ in rows], dtype="datetime64[D]")
    dates[row] = np.datetime64(value, "D")
    with pytest.raises(DataError, match=(rf"^dates\[{row}\] is {value}, not a day in "
                                         r"0001-01-01 \.\. 9999-12-31$")):
        RegionalDataset(region_by_code(0), dates, np.array([f for _, f, _ in rows]),
                        np.array([t for _, _, t in rows]))


def test_dates_that_are_no_days_are_rejected():
    rows = [make_row(day) for day in range(2)]
    features, targets = np.array([f for _, f, _ in rows]), np.array([t for _, _, t in rows])
    column = np.array([[date] for date, _, _ in rows], dtype="datetime64[D]")
    with pytest.raises(DataError, match=r"^dates must be 1-D, got shape \(2, 1\)$"):
        RegionalDataset(region_by_code(0), column, features, targets)
    with pytest.raises(DataError, match=r"^dates: "):
        RegionalDataset(region_by_code(0), ["2020-01-25", "day two"], features, targets)


@pytest.mark.parametrize("gap", [False, True])
def test_extreme_dates_round_trip(tmp_path, monkeypatch, gap):
    rows = [make_row(day) for day in range(2)]
    days = [dt.date.min, dt.date.max]
    ds = RegionalDataset(region_by_code(0), days, np.array([f for _, f, _ in rows]),
                         np.array([t for _, _, t in rows]))
    path = tmp_path / "alberta.csv"
    write_regional_csv(ds, path)
    lines = path.read_text().splitlines()
    assert [line.split(",")[0] for line in lines[1:]] == ["0001-01-01", "9999-12-31"]
    if gap:
        set_cell(path, 2, "feat_03", "")
    calls = count_row_loop_reads(monkeypatch)
    parsed = parse_regional_csv(path, ds.region)
    assert calls == ([1] if gap else [])
    assert parsed.dates.tolist() == days
    assert np.array_equal(parsed.features, ds.features)
    assert np.array_equal(parsed.targets, ds.targets)
