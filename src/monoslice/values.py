"""Runtime value trees, their JSON wire mapping, and the one rule of what JSON can carry.

Every message a service sends or receives is a value tree: an optional
basic root value plus named, ordered sequences of child trees. JSON is
the only wire encoding, and this module alone decides, on every
transport and every Python, which trees it carries: none with a child
named "$", a double that is not finite, an integer with more than
MAX_DIGITS decimal digits, a string or child name with a lone surrogate,
or more than MAX_NESTING nested objects and arrays. On those
the mapping is bijective. A port takes each message to its image by that
rule (_image), decode_json refuses a text nested past MAX_NESTING as it
scans, and transport.decode_fault holds a fault's data to the same rule.
JsonError is the one error for what JSON cannot carry, in both
directions.

The module owns integer text everywhere, literals and faults included: an
integer of at most MAX_DIGITS digits converts exactly both ways
(integer_text, parse_integer), and a wider one is refused, or shown to
people as its width in bits (integer_repr), whatever limit the process
sets on int-to-text conversion.
"""

from __future__ import annotations

import json
import math
import re
from functools import partial
from typing import Any, Callable, NoReturn

from .errors import MonosliceError


class JsonError(MonosliceError):
    """What JSON cannot carry: a document that decodes into no value tree, or a tree with no JSON image."""

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
        return integer_repr(self)


def integer_repr(value: int) -> str:
    """An int's decimal text for people, a Long's with its L; past MAX_DIGITS digits, its width in bits."""
    try:
        text = integer_text(value)
    except ValueError:
        text = f"<int of {value.bit_length()} bits>"
    return f"{text}L" if isinstance(value, Long) else text


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
    writable() and decode_json. A port sets it on the nodes of a
    message it has taken to its JSON image, and any other value means
    that the node is shared, that it and every node below it are their
    own JSON image, and that the node passed the conformance predicate
    the value holds (True if none yet). Since an admitted node is never
    changed, a port skips it, and a write re-opens only its path: every
    clone it makes is unadmitted. nesting counts the JSON objects and
    arrays nested in the node's image (0 for a leaf), as _wire_image counts
    them: a port sets it along with admitted, and reads it only where
    admitted is set, so it can refuse a message too deep for the wire
    without walking what it admitted before. decode_json sets it on each
    node it makes from a JSON object, to refuse a text nested past
    MAX_NESTING as it scans.
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
            parts.append(integer_repr(root))
        elif root is not None:
            parts.append(repr(root))
        for name, seq in self.children.items():
            parts.append(f"{name}={seq!r}" if len(seq) > 1 else f"{name}={seq[0]!r}")
        return f"ValueTree({', '.join(parts)})"


# what a port says of a message JSON cannot carry, on either transport
TOO_DEEP = "payload nests too deeply"
TOO_MANY_DIGITS = "integer has too many digits for JSON"
NOT_FINITE = "double is not finite, which JSON cannot carry"
LONE_SURROGATE = "text holds a lone surrogate, which UTF-8 cannot encode"
ROOT_KEY = 'a child is named "$", which JSON keeps for the root'

# the most JSON objects and arrays a message or a fault envelope may nest:
# decode_json refuses a deeper text as it scans, and a port refuses a deeper
# message. The port's walks recurse once per level, against Python's
# recursion limit of 1000, so this leaves the calling thread 100 frames
MAX_NESTING = 900
# the most decimal digits an integer may have, in source and on the wire, whatever
# limit the process sets on int-to-text conversion (sys.set_int_max_str_digits):
# the default limit, so a slice started with another setting draws the same line
MAX_DIGITS = 4300
_DIGIT_BOUND = 10**MAX_DIGITS
# an int no wider than this has fewer decimal digits than the smallest limit
# Python may set on int-to-text conversion (640), so only wider ones are
# compared with _DIGIT_BOUND, and converted in chunks of _CHUNK_DIGITS digits
_SAFE_INT_BITS = 640 * 3
_CHUNK_DIGITS = 600
_CHUNK = 10**_CHUNK_DIGITS
# a surrogate code point: UTF-8 cannot encode one in a str, alone or paired
_SURROGATE = re.compile("[\ud800-\udfff]")


def _image(tree: ValueTree) -> tuple[ValueTree, str | None]:
    """A message's JSON image, shared, or the tree and why JSON cannot carry it.

    Nesting past MAX_NESTING, or too deep for the walk, gets the violation
    decode_json gives a payload nested as deeply.
    """
    try:
        return _wire_image(tree), None
    except RecursionError:
        return tree, TOO_DEEP
    except JsonError as exc:
        return tree, str(exc)


def _wire_image(tree: ValueTree) -> ValueTree:
    """The tree as a JSON round trip would shape it: every int becomes a long.

    The in-process transport must be indistinguishable from the wire, so
    every message crossing a boundary is taken to its wire image. A tree
    that already is its image is returned itself; otherwise the nodes on
    the path down to each plain int are copied and all others are shared.
    An integer or a double the wire cannot carry, a string or child name
    UTF-8 cannot encode, a child named "$", or nesting past MAX_NESTING
    raises JsonError.

    Every node of the image is marked shared and admitted (the sender may
    hold it still, and the receiver keeps it), with its nesting, and an
    admitted node is returned at once: it and all below it are their image
    already, and its nesting says how deep. So a crossing walks only the
    nodes no port admitted before, which are the ones a sender built or the
    paths it wrote along (ValueTree.admitted), and still refuses a message
    nested too deeply however many crossings built it.
    """
    if tree.admitted is not None:
        return tree
    image = tree
    root = tree.root
    if isinstance(root, int) and not isinstance(root, bool):
        if root.bit_length() > _SAFE_INT_BITS and not -_DIGIT_BOUND < root < _DIGIT_BOUND:
            raise JsonError(TOO_MANY_DIGITS)
        if type(root) is not Long:
            tree.shared = True  # its image shares its children
            image = tree.writable()
            image.root = Long(root)
    elif type(root) is float and not math.isfinite(root):
        raise JsonError(NOT_FINITE)
    elif type(root) is str and not root.isascii() and _SURROGATE.search(root):
        raise JsonError(LONE_SURROGATE)
    nesting = 0
    children = tree.children
    if children:  # most nodes are leaves; enumerate cost a third of the walk
        for name, seq in children.items():
            if name == "$" or not name.isascii() and _SURROGATE.search(name):
                raise JsonError(ROOT_KEY if name == "$" else LONE_SURROGATE)
            level = 1 if len(seq) == 1 else 2  # this node's object, and an array of the name's
            i = 0
            for child in seq:
                sub = _wire_image(child)
                if sub.nesting + level > nesting:
                    nesting = sub.nesting + level  # how deep the image is, admitted parts included
                if sub is not child:
                    if image is tree:
                        tree.shared = True
                        image = tree.writable()
                    image.children[name][i] = sub
                i += 1
        if nesting > MAX_NESTING:
            raise JsonError(TOO_DEEP)
    image.nesting = nesting
    image.shared = True
    image.admitted = True
    return image


# how json.dumps(separators=(",", ":"), ensure_ascii=False, allow_nan=False) writes a value
_dumps = partial(json.dumps, separators=(",", ":"), ensure_ascii=False, allow_nan=False)
# the C function json.dumps(ensure_ascii=False) writes a string with
_string = json.encoder.encode_basestring


def integer_text(value: int) -> str:
    """An int's decimal text, a Long's without its L, under any limit; ValueError past MAX_DIGITS digits."""
    if value.bit_length() <= _SAFE_INT_BITS:
        return int.__repr__(value)
    if not -_DIGIT_BOUND < value < _DIGIT_BOUND:
        raise ValueError(TOO_MANY_DIGITS)
    magnitude, chunks = abs(value), []
    while magnitude >= _CHUNK:  # each chunk converts under any limit the process sets
        magnitude, chunk = divmod(magnitude, _CHUNK)
        chunks.append(f"{chunk:0{_CHUNK_DIGITS}d}")
    chunks.append(int.__repr__(magnitude))
    return "-" * (value < 0) + "".join(reversed(chunks))


def _long(text: str) -> Long:
    """json's parse_int: an integral number as a Long; ValueError past MAX_DIGITS digits."""
    return Long(text if len(text) <= _CHUNK_DIGITS else parse_integer(text))  # the common case in one call


def parse_integer(text: str) -> int:
    """The int a decimal text writes, under any limit; ValueError past MAX_DIGITS digits, by its length."""
    if len(text) <= _CHUNK_DIGITS:
        return int(text)
    digits = text.lstrip("-")
    if len(digits) > MAX_DIGITS:
        raise ValueError(TOO_MANY_DIGITS)
    value = 0
    for start in range(0, len(digits), _CHUNK_DIGITS):  # each chunk converts under any limit
        chunk = digits[start : start + _CHUNK_DIGITS]
        value = value * 10 ** len(chunk) + int(chunk)
    return -value if text[0] == "-" else value


def _double(value: float) -> str:
    # a double that is not finite gets json's own ValueError, worded as this Python words it
    return float.__repr__(value) if math.isfinite(value) else _dumps(value)


# a root's JSON text by its type, as json's encoder writes it
_ROOT_TEXT: dict[type, Callable[[Any], str]] = {
    str: _string,
    Long: integer_text,
    int: integer_text,
    float: _double,
    bool: {False: "false", True: "true"}.__getitem__,
    type(None): {None: "null"}.__getitem__,
}


def _write(tree: ValueTree, append: Callable[[str], None]) -> None:
    """Append the JSON text of a tree that has children, one piece at a time.

    Its object holds "$" with the root, if there is one, then each child
    name in order, with its one node or an array of its nodes. A child
    named "$", which no port lets through, takes the root's place.
    """
    children = tree.children
    items = children.items()
    root = tree.root
    separator = "{"
    if root is not None:
        if "$" in children:
            items = [("$", children["$"]), *((name, seq) for name, seq in items if name != "$")]
        else:
            append('{"$":')
            append(_ROOT_TEXT.get(type(root), _dumps)(root))
            separator = ","
    for name, seq in items:
        append(separator)
        append(_string(name))
        separator = ","
        if len(seq) == 1:
            append(":")
            node = seq[0]
            if node.children:
                _write(node, append)
            else:
                root = node.root
                append(_ROOT_TEXT.get(type(root), _dumps)(root))
            continue
        comma = ":["
        for node in seq:
            append(comma)
            comma = ","
            if node.children:
                _write(node, append)
            else:
                root = node.root
                append(_ROOT_TEXT.get(type(root), _dumps)(root))
        append("]" if seq else ":[]")
    append("}")


def encode_json(tree: ValueTree) -> bytes:
    """Encode a tree as compact UTF-8 JSON bytes, in one walk.

    The text is what json.dumps writes, byte for byte. Raises ValueError
    on a double that is not finite, and on an integer with more than
    MAX_DIGITS digits.
    """
    if not tree.children:
        root = tree.root
        return _ROOT_TEXT.get(type(root), _dumps)(root).encode("utf-8")
    pieces: list[str] = []
    _write(tree, pieces.append)
    return "".join(pieces).encode("utf-8")


def _not_json(constant: str) -> NoReturn:
    raise JsonError(f"{constant} is not a JSON number")


def _finite(text: str) -> float:
    value = float(text)
    if math.isinf(value):
        raise JsonError("number is out of the range of a double")
    return value


_new = ValueTree.__new__


def _leaf(root: Basic | None) -> ValueTree:
    node = _new(ValueTree)
    node.root = root
    node.shared = False
    node.admitted = None
    node.children = {}
    return node


def _tree(obj: dict[str, Any]) -> "ValueTree | JsonError":
    """json's object_hook: the value tree of one JSON object, or the first JsonError in it.

    json's scanner calls it as it closes each object, so every object
    inside was made a tree, or refused, before. It raises nothing: a
    refused object becomes its JsonError, which the object holding it
    returns in turn, so decode_json raises the error a walk down from the
    root meets first. A key "$" holds the root; any other key holds one
    child, or an array of them. Arrays may not nest. The tree's nesting
    is counted as _wire_image counts it, from its children's, and past
    MAX_NESTING the object is refused as TOO_DEEP.
    """
    tree = _new(ValueTree)
    tree.root = None
    tree.shared = False
    tree.admitted = None
    tree.children = children = {}
    nesting = 1  # a leaf child's level: this object
    for key, value in obj.items():
        kind = type(value)
        if key == "$":
            if kind is ValueTree or kind is list or kind is JsonError:
                return JsonError('reserved key "$" must hold a scalar root value')
            tree.root = value
        elif kind is ValueTree:
            children[key] = [value]
            level = value.nesting + 1
            if level > nesting:
                nesting = level
        elif kind is list:
            seq = []
            deepest = 0
            for element in value:
                kind = type(element)
                if kind is ValueTree:
                    seq.append(element)
                    if element.nesting > deepest:
                        deepest = element.nesting
                elif kind is list:
                    return JsonError(f"nested array under key {key!r} is not representable")
                elif kind is JsonError:
                    return element
                else:
                    seq.append(_leaf(element))
            if seq:
                children[key] = seq
                level = deepest + (1 if len(seq) == 1 else 2)  # this object, and the array
                if level > nesting:
                    nesting = level
        elif kind is JsonError:
            return value
        else:  # _leaf(value), written out: most values are leaves under a key
            node = _new(ValueTree)
            node.root = value
            node.shared = False
            node.admitted = None
            node.children = {}
            children[key] = [node]
    if nesting > MAX_NESTING:
        return JsonError(TOO_DEEP)
    tree.nesting = nesting if children else 0
    return tree


# Scalars become roots (integral numbers as long), objects become trees
# as the scanner closes them, and arrays stay lists until the object
# holding them takes them as the occurrences of one child name.
_DECODER = json.JSONDecoder(
    object_hook=_tree, parse_int=_long, parse_float=_finite, parse_constant=_not_json
)


def decode_json(data: bytes | str) -> ValueTree:
    """Decode JSON bytes or text into a value tree, in json's one scan.

    A repeated key holds its last value, in its first place. Raises
    JsonError with line/column on malformed input, and without them on a
    value the mapping refuses (an array at the root or nested in one, or
    "$" holding an object or an array), on a tree nested past MAX_NESTING
    (TOO_DEEP, on every Python: json's own recursion limit, which differs
    from one version to the next, is only a backstop), on NaN, Infinity
    and -Infinity, which are not JSON, on a number that overflows a
    double, and on an integer with more than MAX_DIGITS digits.
    """
    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise JsonError(f"payload is not valid UTF-8: {exc}") from exc
    if data.startswith("\ufeff"):  # json.loads refuses it so
        raise JsonError("Unexpected UTF-8 BOM (decode using utf-8-sig)", 1, 1)
    try:
        value = _DECODER.decode(data)
    except json.JSONDecodeError as exc:
        raise JsonError(exc.msg, exc.lineno, exc.colno) from exc
    except ValueError:  # an integer with more than MAX_DIGITS digits
        raise JsonError("number has too many digits") from None
    except RecursionError:  # deeper than this Python's scanner recurses, before any object closed
        raise JsonError(TOO_DEEP) from None
    kind = type(value)
    if kind is ValueTree:
        return value
    if kind is list:
        raise JsonError("a JSON array cannot stand on its own; it must be an object value")
    if kind is JsonError:
        raise value
    return _leaf(value)
