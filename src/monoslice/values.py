"""Runtime value trees and their JSON wire mapping.

Every message a service sends or receives is a value tree: an optional
basic root value plus named, ordered sequences of child trees. JSON is
the only wire encoding; the mapping is bijective on the representable
subset (no child named "$", no non-finite doubles).
"""

from __future__ import annotations

import json
import math
from typing import Any, NoReturn

from .errors import MonosliceError


class JsonError(MonosliceError):
    """A JSON document that cannot be decoded into a value tree."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        if line is not None:
            message = f"{message} at line {line}, column {column}"
        super().__init__(message)


class Long(int):
    """Integer tagged with the long kind.

    Plain ints carry the int kind; JSON integral numbers decode as Long.
    Arithmetic on a Long returns a plain int, so producers must re-wrap.
    """

    __slots__ = ()

    def __repr__(self) -> str:
        return f"{_int_repr(self)}L"


def _int_repr(value: int) -> str:
    """An int's decimal text, or, for one wider than Python converts to text, its width in bits."""
    try:
        return int.__repr__(value)
    except ValueError:
        return f"<int of {value.bit_length()} bits>"


Basic = bool | int | float | str


def kind_of(value: Basic | None) -> str:
    """Name of the basic kind carried by a root value ("nothing" for absent)."""
    if value is None:
        return "nothing"
    if isinstance(value, bool):
        return "bool"
    if isinstance(value, Long):
        return "long"
    if isinstance(value, int):
        return "int"
    if isinstance(value, float):
        return "double"
    if isinstance(value, str):
        return "string"
    raise TypeError(f"not a basic value: {value!r}")


def roots_equal(a: Basic | None, b: Basic | None) -> bool:
    """Deep-equality on roots: kinds must match, except int/long compare by value."""
    ka, kb = kind_of(a), kind_of(b)
    if ka in ("int", "long") and kb in ("int", "long"):
        return int(a) == int(b)
    if ka != kb:
        return False
    return a == b


class ValueTree:
    """Optional basic root plus named ordered sequences of subtrees.

    Child sequences are never empty: an absent name means zero occurrences.
    Equality is structural, order-sensitive within a sequence and
    order-insensitive across names.

    A tree marked shared may be reachable from more than one holder (two
    variables, two activations, a caller and its callee), and is never
    changed in place: a writer takes writable() instead, a shallow clone
    whose children are marked shared in turn, so only the nodes on the
    path it writes along are copied (Driscoll, Sarnak, Sleator and
    Tarjan, "Making data structures persistent", JCSS 38(1), 1989). The
    mark is never cleared, and a node below a shared one counts as
    shared even before a clone marks it.

    admitted is None on every node made here: by the constructor, copy(),
    writable() and from_json_value. A port sets it on the nodes of a
    message it has taken to its JSON image, and any other value means
    that the node is shared, that it and every node below it are their
    own JSON image, and that the node passed the conformance predicate
    the value holds (True if none yet). Since an admitted node is never
    changed, a port skips it, and a write re-opens only its path: every
    clone it makes is unadmitted. nesting is set along with admitted, and
    only read where admitted is set: it counts the JSON objects and arrays
    nested in the node's image (0 for a leaf), so a port can refuse a
    message too deep for the wire without walking what it admitted before.
    """

    __slots__ = ("root", "children", "shared", "admitted", "nesting")

    def __init__(
        self,
        root: Basic | None = None,
        children: dict[str, list["ValueTree"]] | None = None,
    ):
        self.root = root
        self.shared = False
        self.admitted: object = None
        self.children: dict[str, list[ValueTree]] = {}
        if children:
            for name, seq in children.items():
                if seq:
                    self.children[name] = list(seq)

    @classmethod
    def make(cls, root: Basic | None = None, **children: Any) -> "ValueTree":
        """Build a tree from scalars, trees, or lists of either."""
        tree = cls(root)
        for name, value in children.items():
            seq = value if isinstance(value, list) else [value]
            items = [v if isinstance(v, ValueTree) else cls(v) for v in seq]
            if items:
                tree.children[name] = items
        return tree

    def copy(self) -> "ValueTree":
        """A deep copy that shares no node with this tree, however deep it is.

        Unshared and unadmitted throughout. Each node is made without
        __init__, and only the child maps of nodes that have children wait
        on the stack.
        """
        make = ValueTree.__new__
        out = make(ValueTree)
        out.root, out.shared, out.admitted, out.children = self.root, False, None, {}
        pending = [(self.children, out.children)]
        while pending:
            source, target = pending.pop()
            for name, seq in source.items():
                copies = target[name] = []
                for t in seq:
                    node = make(ValueTree)
                    node.root = t.root
                    node.shared = False
                    node.admitted = None
                    node.children = children = {}
                    if t.children:
                        pending.append((t.children, children))
                    copies.append(node)
        return out

    def writable(self) -> "ValueTree":
        """A shallow clone of this shared node that may be changed.

        The clone is unshared and has sequences of its own, holding the
        same children, which are marked shared. Callers test shared first.
        """
        out = ValueTree(self.root)
        children = out.children
        for name, seq in self.children.items():
            for t in seq:
                t.shared = True
            children[name] = seq[:]
        return out

    def child(self, name: str, index: int = 0) -> "ValueTree | None":
        seq = self.children.get(name)
        if seq is None or index >= len(seq):
            return None
        return seq[index]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ValueTree):
            return NotImplemented
        if not roots_equal(self.root, other.root):
            return False
        if self.children.keys() != other.children.keys():
            return False
        for name, seq in self.children.items():
            oseq = other.children[name]
            if len(seq) != len(oseq) or any(a != b for a, b in zip(seq, oseq)):
                return False
        return True

    __hash__ = None  # type: ignore[assignment]  # mutable

    def __repr__(self) -> str:
        parts: list[str] = []
        root = self.root
        if type(root) is int:
            parts.append(_int_repr(root))
        elif root is not None:
            parts.append(repr(root))
        for name, seq in self.children.items():
            parts.append(f"{name}={seq!r}" if len(seq) > 1 else f"{name}={seq[0]!r}")
        return f"ValueTree({', '.join(parts)})"


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


# what a port says of a message JSON cannot carry, on either transport
TOO_DEEP = "payload nests too deeply"
TOO_MANY_DIGITS = "integer has too many digits for JSON"
NOT_FINITE = "double is not finite, which JSON cannot carry"
LONE_SURROGATE = "text holds a lone surrogate, which UTF-8 cannot encode"
ROOT_KEY = 'a child is named "$", which JSON keeps for the root'


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
