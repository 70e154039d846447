"""Strict readers for the JSON input files: scenario, sweep, calibration
and plan.

One set of rules for every file kind.  A document is a JSON object; a
record is an object whose keys are all declared, read field by field in the
order declared, so the first complaint is about the first bad field; a
table is an object whose keys are free; a number is finite, an integer a
JSON integer, a count a non-negative integer, a flag true, false, 0 or 1,
a text a JSON string.  Every complaint names the field it is about and
raises the error type of the module that reads the file.  This module
imports nothing from the package, so every other module can use it.
"""

from __future__ import annotations

import json
import sys
from collections.abc import Callable, Mapping
from pathlib import Path
from typing import Optional

_LARGEST = sys.float_info.max


class Reader:
    """The readers of one file kind; every complaint raises `error`."""

    def __init__(self, error: type):
        self.error = error

    def fail(self, where: str, message: str):
        raise self.error(f"{where}: {message}" if where else message)

    def document(self, source) -> Mapping:
        """`source` itself if it is a mapping, else the JSON object in the
        file at that path."""
        if isinstance(source, Mapping):
            return source
        path = Path(source)
        try:
            text = path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise self.error(f"cannot read {path}: {exc}") from exc
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise self.error(f"{path}: not valid JSON ({exc})") from exc
        if not isinstance(data, Mapping):
            self.fail(str(path), "top level must be an object")
        return data

    def record(self, value, where: str, fields: Mapping[str, Callable],
               defaults: Optional[Mapping] = None,
               prefix: Optional[str] = None, suffix: str = "",
               into: Optional[dict] = None) -> dict:
        """The fields of the object `value`, as {key: read(raw, path)}.

        `fields` maps each key to its reader, in the order the keys are
        read; a key without a default is required.  A field's path is
        prefix + key + suffix, prefix "where." by default.  The fields go
        into `into` as they are read, so a later reader can see them.
        """
        if type(value) is not dict and not isinstance(value, Mapping):
            self.fail(where, "expected an object")
        if not value.keys() <= fields.keys():
            self.fail(where, "unknown key(s) " + ", ".join(
                sorted(repr(k) for k in value.keys() - fields.keys())))
        prefix = f"{where}." if prefix is None else prefix
        defaults = defaults or {}
        out = {} if into is None else into
        for key, read in fields.items():
            if key in value:
                raw = value[key]
            elif key in defaults:
                raw = defaults[key]
            else:
                self.fail(where, f"missing required key {key!r}")
            out[key] = read(raw, prefix + key + suffix)
        return out

    def table(self, value, where: str, read: Callable) -> dict:
        """An object with free keys, as {key: read(entry, "where[key]")}."""
        if type(value) is not dict and not isinstance(value, Mapping):
            self.fail(where, "expected an object")
        return {key: read(entry, f"{where}[{key}]")
                for key, entry in value.items()}

    def items(self, value, where: str, read: Callable,
              nonempty: bool = False) -> tuple:
        """The list `value` as a tuple of read(entry, "where[i]")."""
        if not isinstance(value, list) or nonempty and not value:
            self.fail(where, f"expected a {'non-empty ' * nonempty}list")
        return tuple([read(v, f"{where}[{i}]") for i, v in enumerate(value)])

    def number(self, value, where: str) -> float:
        """A finite JSON number, as a float."""
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            self.fail(where, f"expected a number, got {value!r}")
        if not -_LARGEST <= value <= _LARGEST:  # NaN, infinite, too large
            self.fail(where, "non-finite value")
        return float(value)

    def nonnegative(self, value, where: str) -> float:
        """A finite number >= 0, as a float."""
        number = self.number(value, where)
        if number < 0:
            self.fail(where, f"must be >= 0, got {value!r}")
        return number

    def integer(self, value, where: str, expect: str = "an integer",
                least: float = float("-inf")) -> int:
        """A JSON integer (not a bool) >= `least`, else not `expect`."""
        if isinstance(value, bool) or not isinstance(value, int) \
                or value < least:
            self.fail(where, f"expected {expect}, got {value!r}")
        self.number(value, where)  # past the float range: not finite
        return value

    def count(self, value, where: str) -> int:
        return self.integer(value, where, "a non-negative integer", 0)

    def flag(self, value, where: str) -> bool:
        if isinstance(value, int) and value in (0, 1):
            return bool(value)
        self.fail(where, f"expected true, false, 0 or 1, got {value!r}")

    def text(self, value, where: str) -> str:
        """A JSON string."""
        if not isinstance(value, str):
            self.fail(where, f"expected a string, got {value!r}")
        return value
