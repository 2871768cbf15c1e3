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
