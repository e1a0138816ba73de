"""Records: classes whose `__init__`, `__eq__` and `__repr__` are written from their fields.

`@record` writes the methods `dataclasses.dataclass` would write for the
features this package uses, and nothing more: positional or keyword
fields in annotation order, defaults and `default_factory`,
`compare=False` and `repr=False`, `frozen=True`, a class's own
`__eq__`, and `__post_init__`. It compiles each class's `__init__` as
straight-line code, and imports neither `dataclasses` nor `inspect`,
which a cold start would otherwise pay for.

As with a dataclass, a field with a default keeps it as a class
attribute, a record compares equal only to a record of its own class
with equal compared fields, and a record that is not frozen is not
hashable. A frozen record refuses assignment and deletion with an
AttributeError and hashes over its compared fields.
"""

from __future__ import annotations

from operator import attrgetter

_MISSING = object()


class Field:
    """The options of one field, as `field()` gives them."""

    __slots__ = ("default", "default_factory", "compare", "repr")

    def __init__(self, default, default_factory, compare: bool, repr: bool):
        self.default = default
        self.default_factory = default_factory
        self.compare = compare
        self.repr = repr


def field(*, default=_MISSING, default_factory=_MISSING, compare: bool = True, repr: bool = True) -> Field:
    """A field's default or default factory, and whether `==` and `repr` read it."""
    return Field(default, default_factory, compare, repr)


def _refuse(self, name, value=None):
    """A frozen record's __setattr__ and __delattr__."""
    raise AttributeError(f"cannot assign to field {name!r} of a frozen {type(self).__qualname__}")


def record(cls=None, /, *, frozen: bool = False):
    """Write `__init__`, `__eq__` and `__repr__` (and `__hash__` when frozen) for a class's fields."""
    if cls is None:
        return lambda cls: _build(cls, frozen)
    return _build(cls, frozen)


def _build(cls, frozen: bool):
    names = list(cls.__dict__.get("__annotations__", {}))
    namespace: dict[str, object] = {"_MISSING": _MISSING, "_setattr": object.__setattr__}
    params: list[str] = []
    body: list[str] = []
    compared: list[str] = []
    shown: list[str] = []
    for name in names:
        spec = cls.__dict__.get(name, _MISSING)
        if not isinstance(spec, Field):
            spec = Field(spec, _MISSING, True, True)
        value = name
        if spec.default_factory is not _MISSING:
            namespace[f"_factory_{name}"] = spec.default_factory
            params.append(f"{name}=_MISSING")
            value = f"_factory_{name}() if {name} is _MISSING else {name}"
            delattr(cls, name)
        elif spec.default is not _MISSING:
            namespace[f"_default_{name}"] = spec.default
            params.append(f"{name}=_default_{name}")
            setattr(cls, name, spec.default)
        else:
            params.append(name)
        if frozen:
            body.append(f"    _setattr(self, {name!r}, {value})")
        else:
            body.append(f"    self.{name} = {value}")
        if spec.compare:
            compared.append(name)
        if spec.repr:
            shown.append(name)
    if "__post_init__" in cls.__dict__:
        body.append("    self.__post_init__()")
    # only __init__ is compiled, as straight-line code: the parser builds
    # thousands of records per program, while == and repr are rarely called
    source = "\n".join([f"def __init__(self, {', '.join(params)}):", *body])
    exec(compile(source, f"<record {cls.__qualname__}>", "exec"), namespace)
    cls.__init__ = namespace["__init__"]
    cls.__init__.__qualname__ = f"{cls.__qualname__}.__init__"

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in shown)
        return f"{self.__class__.__qualname__}({fields})"

    cls.__repr__ = __repr__
    values = attrgetter(*compared)  # one compared field's value, or a tuple of several
    if "__eq__" not in cls.__dict__:

        def __eq__(self, other):
            if other.__class__ is self.__class__:
                mine, theirs = values(self), values(other)
                return mine is theirs or mine == theirs  # as a tuple compares its items
            return NotImplemented

        cls.__eq__ = __eq__
    if frozen:

        def __hash__(self):
            return hash(values(self))

        cls.__hash__ = __hash__
        cls.__setattr__ = cls.__delattr__ = _refuse
    else:
        cls.__hash__ = None
    return cls
