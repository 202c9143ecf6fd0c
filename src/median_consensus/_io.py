"""File plumbing and opinion-value serialization shared across modules."""

from __future__ import annotations

import functools
import itertools
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


_INDENT = "  "
_SCALARS = frozenset({str, int, float, bool, type(None)})
_LISTS = frozenset({list, tuple})


@functools.cache
def _encoder(depth: int):
    """The C encoder's ``encode``, separating items as a list at ``depth``
    does: a comma, a newline and ``depth`` indents."""
    return json.JSONEncoder(separators=(",\n" + _INDENT * depth, ": ")).encode


def dumps_indented(obj) -> str:
    """``json.dumps(obj, indent=2, sort_keys=True)``, byte for byte, raising
    ``TypeError`` where it does.  (A container within itself raises
    ``RecursionError``, where json raises ``ValueError``.)

    That call runs json's pure-Python encoder, which lays out every item
    in Python.  Here dicts, and lists that hold containers, are laid out in
    Python, and each run of scalars is one call of the C encoder with the
    separator of its depth; so is a list of non-empty lists of scalars, such
    as an edge list, whose inner brackets are then put on lines of their
    own by one ``str.replace``.  The C encoder escapes newlines within
    strings, so a raw newline only ever appears in a separator.
    """
    return _layout(obj, 0)


def _layout(obj, depth: int) -> str:
    """``obj`` laid out at ``depth``: the generic step, taken for the whole
    value, for each dict value and for each container in a list."""
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        encode = _encoder(0)
        fields = [
            encode(_key(key)) + ": " + _layout(value, depth + 1)
            for key, value in sorted(obj.items())
        ]
        newline = "\n" + _INDENT * (depth + 1)
        return "{" + newline + ("," + newline).join(fields) + "\n" + _INDENT * depth + "}"
    if not isinstance(obj, (list, tuple)):
        return _encoder(0)(obj)
    if not obj:
        return "[]"
    newline = "\n" + _INDENT * (depth + 1)
    kinds = set(map(type, obj))
    if kinds <= _SCALARS:
        body = _encoder(depth + 1)(obj)[1:-1]
    elif (
        kinds <= _LISTS
        and all(obj)
        and _SCALARS.issuperset(map(type, itertools.chain.from_iterable(obj)))
    ):
        deeper = "\n" + _INDENT * (depth + 2)
        inner = _encoder(depth + 2)(obj)[2:-2]
        inner = inner.replace("]," + deeper + "[", newline + "]," + newline + "[" + deeper)
        body = "[" + deeper + inner + newline + "]"
    else:
        encode = _encoder(depth + 1)
        pieces = []
        for nested, run in itertools.groupby(obj, _is_container):
            if nested:
                pieces += [_layout(item, depth + 1) for item in run]
            else:
                pieces.append(encode(list(run))[1:-1])
        body = ("," + newline).join(pieces)
    return "[" + newline + body + "\n" + _INDENT * depth + "]"


def _is_container(value) -> bool:
    return isinstance(value, (list, tuple, dict))


def _key(key) -> str:
    """A dict key as json coerces it to a string."""
    if isinstance(key, str):
        return key
    if key is None or isinstance(key, (int, float)):
        return _encoder(0)(key)
    raise TypeError(f"keys must be str, int, float, bool or None, not {key.__class__.__name__}")


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
