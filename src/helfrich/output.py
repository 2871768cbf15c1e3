"""The two file formats every command emits: a JSON summary and a CSV table.

A summary is ``{"meta": ..., "result": ...}`` with sorted keys, indent 2 and a
trailing newline.  ``result`` is deterministic for a given input; wall times
and other run facts go in ``meta``.  A non-finite float anywhere in the
payload raises ``NumericalError`` naming its key, so no summary carries a
NaN; ``None`` writes ``null`` and marks a quantity the input does not define.

A table is written one sequence per column.  Floats are ``repr`` values
(``nan`` on boundary vertices), ints and bools are written as ints.
"""

from __future__ import annotations

import csv
import json
import math

import numpy as np

from .errors import NumericalError


def _plain(x, key):
    """``x`` with numpy values made JSON-native; raises on non-finite floats."""
    if isinstance(x, dict):
        return {k: _plain(v, f"{key}.{k}") for k, v in x.items()}
    if isinstance(x, np.ndarray):
        x = x.tolist()
    if isinstance(x, (list, tuple)):
        return [_plain(v, f"{key}[{i}]") for i, v in enumerate(x)]
    if isinstance(x, np.generic):
        x = x.item()
    if isinstance(x, float) and not math.isfinite(x):
        raise NumericalError(f"{key} is {x!r}")
    return x


def write_json(path, result, meta=None):
    payload = {"result": _plain(result, "result"), "meta": _plain(meta or {}, "meta")}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, ensure_ascii=False)
        fh.write("\n")


def _cells(column):
    a = np.asarray(column)
    if a.dtype.kind == "f":
        return map(repr, a.tolist())
    if a.dtype.kind in "biu":
        return a.astype(np.int64).tolist()
    return a.tolist()


def write_csv(path, header, columns):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        w.writerows(zip(*map(_cells, columns), strict=True))
