"""File plumbing and opinion-value serialization shared across modules."""

from __future__ import annotations

import json
import os
import re
import tempfile
from fractions import Fraction
from pathlib import Path

_INTEGER_RE = re.compile(r"^-?\d+$")
_RATIONAL_RE = re.compile(r"^-?\d+(/\d+|\.\d+)$")


def is_json_int(raw) -> bool:
    """Is ``raw`` a JSON integer?  Python bools are ints, JSON ones are not."""
    return isinstance(raw, int) and not isinstance(raw, bool)


def check_int(name: str, value, least: int | None = None) -> None:
    """Refuse ``value`` unless a JSON integer (``is_json_int``), and not below ``least``."""
    if not is_json_int(value):
        raise ValueError(f"{name} must be an integer, not {value!r}")
    if least is not None and value < least:
        raise ValueError(f"{name} must be at least {least}")


def opinion_to_json(value):
    """Encode an opinion for JSON: ints pass through, Fractions become 'p/q'."""
    if isinstance(value, int):
        return value
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, str):
        return value
    raise TypeError(f"cannot serialize opinion of type {type(value).__name__}")


def opinion_from_json(raw):
    """Decode an opinion from JSON: ints stay ints, numeric-looking strings
    ('7', '3/4', '-0.5') become ints/Fractions, other strings stay labels.
    A zero denominator ('1/0') is rejected."""
    if isinstance(raw, bool):
        raise ValueError("booleans are not opinions")
    if isinstance(raw, int):
        return raw
    if isinstance(raw, str):
        token = raw.strip()
        if _INTEGER_RE.match(token):
            return int(token)
        if _RATIONAL_RE.match(token):
            try:
                return Fraction(token)
            except ZeroDivisionError:
                raise ValueError(f"opinion {raw!r} has a zero denominator") from None
        return raw
    raise ValueError(f"cannot decode opinion {raw!r}")


def read_json(path, error=ValueError):
    """Parse a JSON file.  Malformed JSON, and JSON nested too deeply to
    parse, raise ``error`` naming the file."""
    path = Path(path)
    text = path.read_text()
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise error(f"invalid JSON in {path.name}: {exc}") from exc
    except RecursionError:
        raise error(f"invalid JSON in {path.name}: nested too deeply") from None


def atomic_write_text(path, text: str) -> None:
    """Write ``text`` to ``path`` via a temp file and rename, never in place."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
