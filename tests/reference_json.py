"""The JSON codec as it was before it decoded inside json's scanner, kept as a test oracle.

`decode_json` here has json.loads build dicts and lists, then walks them
from the root into a value tree; `encode_json` builds the dicts and lists
back from a tree and has json.dumps write them. `tests/test_values.py`
checks `monoslice.values` against it tree by tree, byte by byte and
error by error. It shares the package's `ValueTree`, `Long`, `JsonError`
and `TOO_DEEP`, so the two are compared on the same types; nothing in
`src/` imports it.
"""

from __future__ import annotations

import json
import math
from typing import Any, NoReturn

from monoslice.values import TOO_DEEP, Basic, JsonError, Long, ValueTree


def _to_json_value(tree: ValueTree) -> Any:
    """Convert a tree into a json-serializable object per the wire mapping."""
    if not tree.children:
        return tree.root
    obj: dict[str, Any] = {}
    if tree.root is not None:
        obj["$"] = tree.root
    for name, seq in tree.children.items():
        if len(seq) == 1:
            obj[name] = _to_json_value(seq[0])
        else:
            obj[name] = [_to_json_value(t) for t in seq]
    return obj


def _scalar(value: Any) -> Basic | None:
    if value is None or isinstance(value, (bool, float, str)):
        return value
    return Long(value)  # the one other scalar json.loads makes: an int


def from_json_value(obj: Any) -> ValueTree:
    """Convert a decoded JSON object into a value tree.

    Scalars become roots (integral numbers as long), objects become
    children with "$" reserved for a root coexisting with children,
    arrays become multiple occurrences of one child name. Arrays may not
    nest directly and may not appear at the root.
    """
    if isinstance(obj, list):
        raise JsonError("a JSON array cannot stand on its own; it must be an object value")
    if not isinstance(obj, dict):
        return ValueTree(_scalar(obj))
    tree = ValueTree()
    for key, value in obj.items():
        if key == "$":
            if isinstance(value, (dict, list)):
                raise JsonError('reserved key "$" must hold a scalar root value')
            tree.root = _scalar(value)
            continue
        if isinstance(value, list):
            seq = []
            for element in value:
                if isinstance(element, list):
                    raise JsonError(f"nested array under key {key!r} is not representable")
                seq.append(from_json_value(element))
            if seq:
                tree.children[key] = seq
        else:
            tree.children[key] = [from_json_value(value)]
    return tree


def encode_json(tree: ValueTree) -> bytes:
    """Encode a tree as compact UTF-8 JSON bytes.

    Raises ValueError on a double that is not finite, and on an integer
    with more digits than int-to-text conversion allows.
    """
    return json.dumps(
        _to_json_value(tree), separators=(",", ":"), ensure_ascii=False, allow_nan=False
    ).encode("utf-8")


def _not_json(constant: str) -> NoReturn:
    raise JsonError(f"{constant} is not a JSON number")


def _finite(text: str) -> float:
    value = float(text)
    if math.isinf(value):
        raise JsonError("number is out of the range of a double")
    return value


def load_json(text: str) -> Any:
    """Parse JSON text, refusing NaN, Infinity, -Infinity and a number that overflows a double.

    Raises JsonError on those, json.JSONDecodeError on malformed text, and
    ValueError on an integer with more digits than int() converts.
    """
    return json.loads(text, parse_constant=_not_json, parse_float=_finite)


def decode_json(data: bytes | str) -> ValueTree:
    """Decode JSON bytes or text into a value tree.

    Raises JsonError with line/column on malformed input, and without
    them on input nested deeper than the interpreter can recurse, on
    NaN, Infinity and -Infinity, which are not JSON, on a number that
    overflows a double, and on an integer with more digits than int()
    converts.
    """
    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise JsonError(f"payload is not valid UTF-8: {exc}") from exc
    try:
        return from_json_value(load_json(data))
    except json.JSONDecodeError as exc:
        raise JsonError(exc.msg, exc.lineno, exc.colno) from exc
    except ValueError:  # a number with more digits than int() converts
        raise JsonError("number has too many digits") from None
    except RecursionError:
        raise JsonError(TOO_DEEP) from None
