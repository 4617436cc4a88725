"""One schema for the settings dataclasses: each field is set from text by a
converter its annotation selects, and caches are named by settings digests.
Config files and world sidecars share one key=value reader."""

from __future__ import annotations

import hashlib
import typing
from dataclasses import fields, replace

from .errors import ParseError


def read_key_values(text: str, canon=lambda name: name) -> dict:
    """The `key = value` lines of a config file or sidecar, `#` comments and
    blank lines skipped, as {canon(key): (value, line)}. Two keys that canon
    maps alike are one key. A line without `=`, a key that canon rejects
    with ValueError, or a key given twice raises ParseError at that line."""
    out: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParseError(f"expected key=value, got {line!r}", line=lineno)
        key, value = (part.strip() for part in line.split("=", 1))
        try:
            name = canon(key)
        except ValueError as e:
            raise ParseError(str(e), line=lineno) from None
        if name in out:
            raise ParseError(f"{key!r} repeats the key of line {out[name][1]}",
                             line=lineno)
        out[name] = (value, lineno)
    return out


def digest(settings) -> str:
    """12-hex sha256 of repr(settings): every field, so any change misses."""
    return hashlib.sha256(repr(settings).encode()).hexdigest()[:12]


def _bool(text: str) -> bool:
    if text not in ("true", "false"):
        raise ValueError(f"expected true or false, got {text!r}")
    return text == "true"


def _converter(tp):
    """int, float, str, bool, a comma-separated int tuple or list, or
    `X | None`, which also accepts `none`."""
    args = [a for a in typing.get_args(tp) if a is not type(None)]
    if len(args) < len(typing.get_args(tp)):
        inner = _converter(args[0])
        return lambda text: None if text == "none" else inner(text)
    seq = typing.get_origin(tp) or tp
    if seq in (tuple, list):
        return lambda text: seq(int(v) for v in text.split(","))
    return _bool if tp is bool else tp


def override(obj, name: str, text: str, key: str, line: int | None = None):
    """The dataclass obj with field `name` parsed from text. An unknown field,
    an unparseable value or a value the dataclass rejects raises ParseError
    naming key (the config key or flag) and line."""
    if name not in {f.name for f in fields(obj)}:
        raise ParseError(f"unknown setting {key!r}", line=line)
    try:
        value = _converter(typing.get_type_hints(type(obj))[name])(text.strip())
        return replace(obj, **{name: value})
    except ValueError as e:
        raise ParseError(f"{key}: {e}", line=line) from None
