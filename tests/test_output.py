"""The JSON summary and CSV table writers shared by every command."""

import numpy as np
import pytest

from helfrich.errors import NumericalError
from helfrich.output import write_csv, write_json


def test_write_json_layout_null_and_non_finite(tmp_path):
    path = tmp_path / "s.json"
    write_json(path, {"volume": None, "x": np.float64(1.5), "v": np.arange(2)})
    assert path.read_text() == (
        '{\n  "meta": {},\n  "result": {\n    "v": [\n      0,\n      1\n    ],\n'
        '    "volume": null,\n    "x": 1.5\n  }\n}\n')
    with pytest.raises(NumericalError, match=r"result\.terms\.a\[1\] is inf"):
        write_json(path, {"terms": {"a": np.array([0.0, np.inf])}})


def test_write_csv_columns(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, ["i", "x", "flag", "name"],
              [np.arange(2), [np.float64(0.1), np.nan], np.array([True, False]),
               ["a", "b,c"]])
    assert path.read_text() == 'i,x,flag,name\n0,0.1,1,a\n1,nan,0,"b,c"\n'


def test_write_csv_matches_csv_module(tmp_path):
    import csv

    header = ["n", "x", "flag", "label", "maybe"]
    columns = [np.arange(4), np.array([0.1, -2.5e-300, np.nan, 1e22]),
               (True, False, True, False), ["plain", 'say "hi"', "a,b", "two\nlines"],
               (1.5, None, "c", np.float64(0.3))]
    path = tmp_path / "t.csv"
    write_csv(path, header, columns)
    expected = tmp_path / "expected.csv"
    with open(expected, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        w.writerows([[0, "0.1", 1, "plain", "1.5"], [1, "-2.5e-300", 0, 'say "hi"', None],
                      [2, "nan", 1, "a,b", "c"], [3, "1e+22", 0, "two\nlines", "0.3"]])
    assert path.read_bytes() == expected.read_bytes()
    with pytest.raises(ValueError):
        write_csv(path, ["a", "b"], [[1, 2], [1.0]])
