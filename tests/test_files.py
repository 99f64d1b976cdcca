"""The one table format: every output CSV goes through ``files.write_csv``."""

from pathlib import Path

import numpy as np
import pytest

from adaterm.files import write_csv

SRC = Path(__file__).resolve().parent.parent / "src" / "adaterm"


@pytest.mark.parametrize(
    "cell, text",
    [
        (0.1, "0.10000000000000001"),
        (1.0, "1"),
        (1e-300, "1e-300"),
        (np.float64(2.5), "2.5"),
        (np.float64(0.1), "0.10000000000000001"),
        (np.int64(7), "7"),
        ("abc", "abc"),
    ],
    ids=["float", "integral-float", "tiny-float", "numpy-float64", "numpy-float64-17g",
         "numpy-int64", "str"],
)
def test_write_csv_cell_format(tmp_path, cell, text):
    path = tmp_path / "table.csv"
    write_csv(path, ["x", "y"], [(cell, cell)])
    assert path.read_bytes() == f"x,y\r\n{text},{text}\r\n".encode()


def test_write_csv_floats_read_back_exactly(tmp_path):
    values = [0.1, 1 / 3, 5e-324, 1.7976931348623157e308, -2.0**-1074, 12345.678901234567]
    path = tmp_path / "table.csv"
    write_csv(path, ["v"], ([v] for v in values))
    assert [float(line) for line in path.read_text().splitlines()[1:]] == values
    assert [p.name for p in tmp_path.iterdir()] == ["table.csv"]


def test_only_files_builds_a_csv_writer():
    writers = sorted(
        p.name for p in SRC.glob("*.py")
        if p.name != "files.py" and "csv.writer(" in p.read_text()
    )
    assert writers == [], f"build output tables with files.write_csv, not in {writers}"
