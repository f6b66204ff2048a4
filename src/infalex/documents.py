"""Reading the JSON input documents.

Every shape error (a document that is not an object, a missing key, a value
of the wrong type) is a ``ValueError`` whose message names the offending
field by its path, e.g. ``relations[0][1].c``.
"""

from __future__ import annotations

import json
from fractions import Fraction

_REQUIRED = object()


def _kind(value) -> str:
    return "null" if value is None else type(value).__name__


def load(doc, what: str) -> dict:
    """The document as a dict; str or bytes are parsed as JSON first."""
    if isinstance(doc, (str, bytes)):
        try:
            doc = json.loads(doc)
        except RecursionError:
            raise ValueError(f"the {what} document is nested too deeply") from None
    if not isinstance(doc, dict):
        raise ValueError(f"a {what} document must be a JSON object, got {_kind(doc)}")
    return doc


def field(doc: dict, key: str, check, path: str = "", default=_REQUIRED):
    """check(doc[key], its path); default when the key is absent, if given."""
    name = f"{path}.{key}" if path else key
    if key not in doc:
        if default is _REQUIRED:
            raise ValueError(f"missing field {name}")
        return default
    return check(doc[key], name)


def obj(value, name: str) -> dict:
    if not isinstance(value, dict):
        raise ValueError(f"field {name} must be an object, got {_kind(value)}")
    return value


def array(value, name: str) -> list:
    if not isinstance(value, list):
        raise ValueError(f"field {name} must be an array, got {_kind(value)}")
    return value


def integer(value, name: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"field {name} must be an integer, got {_kind(value)}")
    return value


def rational(value, name: str) -> Fraction:
    """An integer, a decimal or a "p/q" string, read exactly."""
    if isinstance(value, bool) or not isinstance(value, (int, float, str)):
        raise ValueError(f"field {name} must be a rational, got {_kind(value)}")
    try:
        return Fraction(str(value))
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"field {name} must be a rational, got {value!r}") from None
