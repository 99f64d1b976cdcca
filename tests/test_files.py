"""The one table format: every output CSV goes through ``files.write_csv``."""

import math
from pathlib import Path

import numpy as np
import pytest

from adaterm.files import CHUNK_ROWS, write_csv, write_csvs

from _reference import reference_write_csv

SRC = Path(__file__).resolve().parent.parent / "src" / "adaterm"


@pytest.mark.parametrize(
    "cell, kind, text",
    [
        (0.1, float, "0.10000000000000001"),
        (1.0, float, "1"),
        (1e-300, float, "1e-300"),
        (np.float64(2.5), float, "2.5"),
        (np.float64(0.1), float, "0.10000000000000001"),
        (np.int64(7), int, "7"),
        ("abc", str, "abc"),
    ],
    ids=["float", "integral-float", "tiny-float", "numpy-float64", "numpy-float64-17g",
         "numpy-int64", "str"],
)
def test_write_csv_cell_format(tmp_path, cell, kind, text):
    path = tmp_path / "table.csv"
    write_csv(path, ["x", "y"], [(cell, cell)], (kind, kind))
    assert path.read_bytes() == f"x,y\r\n{text},{text}\r\n".encode()


def test_write_csv_floats_read_back_exactly(tmp_path):
    values = [0.1, 1 / 3, 5e-324, 1.7976931348623157e308, -2.0**-1074, 12345.678901234567]
    path = tmp_path / "table.csv"
    write_csv(path, ["v"], ([v] for v in values), (float,))
    assert [float(line) for line in path.read_text().splitlines()[1:]] == values
    assert [p.name for p in tmp_path.iterdir()] == ["table.csv"]


FLOATS = [math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, 1.7976931348623157e308,
          np.float64(0.1), np.float64(-2.5e-300), np.float64(-0.0),
          *(float(f"1e{k}") for k in range(-320, 309, 7))]
INTS = [0, 7, -3, 2**70, np.int64(-9), np.int64(2**62)]
TEXTS = ["plain", "a,b", 'say "hi"', '"', "cr\rhere", "new\nline", "", " lead", "trail ",
         "ünïcödé ✓"]
# Longer than one chunk, so that a chunk boundary is crossed.
MIXED = [(TEXTS[i % len(TEXTS)], INTS[i % len(INTS)], FLOATS[i % len(FLOATS)],
          TEXTS[i % 7]) for i in range(3 * CHUNK_ROWS + 5)]


@pytest.mark.parametrize(
    "rows, kinds",
    [
        (MIXED, (str, int, float, str)),
        ([(x,) for x in FLOATS], (float,)),
        ([(n,) for n in INTS], (int,)),
        ([(t,) for t in TEXTS], (str,)),
    ],
    ids=["mixed", "floats", "ints", "texts"],
)
def test_write_csv_matches_the_csv_writer(tmp_path, rows, kinds):
    header = ["c,1", 'c"2', "c3", "c4"][: len(kinds)]
    write_csv(tmp_path / "table.csv", header, iter(rows), kinds)
    reference_write_csv(tmp_path / "reference.csv", header, rows)
    assert (tmp_path / "table.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()


def test_write_csvs_failing_table_leaves_every_old_file(tmp_path):
    first, second = tmp_path / "first.csv", tmp_path / "second.csv"
    first.write_text("old first\n")

    def rows_then_fail():
        yield from [(1.0,)] * 3000
        raise ValueError("stop")

    with pytest.raises(ValueError, match="stop"):
        write_csvs([(first, ["v"], [(0.5,)], (float,)),
                    (second, ["v"], rows_then_fail(), (float,))])
    assert [p.name for p in tmp_path.iterdir()] == ["first.csv"]
    assert first.read_text() == "old first\n"


def test_write_csvs_repeated_path_keeps_the_later_table(tmp_path):
    path = tmp_path / "table.csv"
    write_csvs([(path, ["v"], [(0.5,)], (float,)), (path, ["w"], [(2,)], (int,))])
    assert path.read_bytes() == b"w\r\n2\r\n"
    assert [p.name for p in tmp_path.iterdir()] == ["table.csv"]


def test_only_files_builds_a_csv_writer():
    writers = sorted(
        p.name for p in SRC.glob("*.py")
        if p.name != "files.py" and "csv.writer(" in p.read_text()
    )
    assert writers == [], f"build output tables with files.write_csv, not in {writers}"
