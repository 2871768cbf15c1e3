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


def _quoted(text):
    """``text`` as a CSV cell: quoted, with quotes doubled, if it holds a
    comma, a quote or a line break."""
    if any(c in text for c in ',"\n\r'):
        return '"' + text.replace('"', '""') + '"'
    return text


def _cells(column):
    """The column's cells as strings: float ``repr``, ints for ints and
    bools, ``str`` of anything else and an empty cell for ``None``."""
    a = np.asarray(column)
    if a.dtype.kind == "f":
        return map(repr, a.tolist())
    if a.dtype.kind in "biu":
        return map(str, a.astype(np.int64).tolist())
    return ["" if x is None else _quoted(str(x)) for x in a.tolist()]


def write_csv(path, header, columns):
    rows = map(",".join, zip(*map(_cells, columns), strict=True))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(map(_quoted, header)) + "\n")
        fh.writelines(row + "\n" for row in rows)
