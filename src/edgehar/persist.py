"""Atomic, schema-versioned file I/O used by every artifact writer.

Writers go through a temp-then-rename so a failed run never leaves a partial
primary artifact behind. JSON documents carry a "schema" tag checked on load.
check_value is the one scalar rule of every input field, kept by the class
that owns the field: the only code that tests for an int, a float or a bool.
check_array is the one array rule, the only code that makes a loaded JSON
array an ndarray, and labelled the one label of a loader's errors.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
from pathlib import Path

import numpy as np

__all__ = [
    "SchemaError",
    "write_text_atomic",
    "write_npy_atomic",
    "write_json_atomic",
    "write_csv_atomic",
    "read_json_checked",
    "check_value",
    "check_array",
    "labelled",
]

_KINDS = {int: "an integer", float: "a number", str: "a string", bool: "true or false"}
_ARRAYS = {int: ("iu", np.int64), float: ("iuf", np.float64), str: ("U", np.str_)}


class SchemaError(ValueError):
    """An artifact's schema tag does not match what the reader expects."""


def _write_atomic(path, write) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as fh:
        write(fh)
    os.replace(tmp, path)


def write_text_atomic(path, text: str) -> None:
    _write_atomic(path, lambda fh: fh.write(text.encode("utf-8")))


def write_npy_atomic(path, array: np.ndarray) -> None:
    _write_atomic(path, lambda fh: np.save(fh, array, allow_pickle=False))


def write_json_atomic(path, doc: dict) -> None:
    write_text_atomic(path, json.dumps(doc, indent=2, sort_keys=True) + "\n")


def write_csv_atomic(path, header: list[str], rows) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(str(v) for v in row))
    write_text_atomic(path, "\n".join(lines) + "\n")


def read_json_checked(path, schema: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    found = doc.get("schema") if isinstance(doc, dict) else None
    if found != schema:
        raise SchemaError(f"{path}: expected schema {schema!r}, found {found!r}")
    return doc


def check_value(name: str, value, kind, least=None, op: str = ">=") -> None:
    """Raise a ValueError naming name unless value is of kind and, if least is
    given, value op least; float is a finite int or float, and a bool neither."""
    ok = type(value) in ((int, float) if kind is float else (kind,))
    if ok and kind is float:
        ok = math.isfinite(value)
    if ok and least is not None:
        ok = value > least if op == ">" else value >= least
    if not ok:
        bound = "" if least is None else f" {op} {least}"
        raise ValueError(f"{name} must be {_KINDS[kind]}{bound}, got {value!r}")


def check_array(name: str, value, kind) -> np.ndarray:
    """value, an ndarray or nested lists, as a new int64 (kind int), float64
    (kind float) or str array. Raises a ValueError naming name unless the
    lists are rectangular and each entry is one check_value takes as kind."""
    codes, dtype = _ARRAYS[kind]
    a = value if isinstance(value, np.ndarray) else np.array(value, dtype=object)
    if a.dtype.kind not in codes:  # one entry of each type; a ragged list's entry is a list
        for x in {type(x): x for x in a.flat}.values():
            check_value(f"each entry of {name}", x, kind)
    out = a.astype(dtype)  # an int beyond dtype raises OverflowError
    if kind is float and not np.isfinite(out).all():  # the walk saw one entry per type
        check_value(f"each entry of {name}", out[~np.isfinite(out)][0].item(), float)
    return out


@contextlib.contextmanager
def labelled(where, values: bool = True):
    """Lead the errors of the document-reading code inside with where: a
    ValueError keeps its type (and, unless values, its text), and a badly shaped
    document's TypeError, AttributeError, KeyError or OverflowError becomes one."""
    try:
        yield
    except ValueError as ex:
        if not values:
            raise
        raise type(ex)(f"{where}: {ex}") from None
    except (TypeError, AttributeError, KeyError, OverflowError) as ex:
        raise ValueError(f"{where}: {type(ex).__name__}: {ex}") from None
