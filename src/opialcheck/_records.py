"""Frozen, slotted record classes, made without ``dataclasses``.

``record`` turns a class whose body annotates its fields into what
``@dataclass(frozen=True, slots=True)`` would make of it. Importing
``dataclasses`` (which imports ``inspect``, ``ast`` and ``dis``) and
building each class's methods with ``exec`` was most of the package's
start-up; here only ``__init__`` is generated, once per class, and not at
import: the class holds a small descriptor until the first lookup of its
``__init__`` (its first instance, or ``inspect.signature`` of the class),
which compiles the function and puts it on the class in the descriptor's
place. A class a run never instantiates costs no ``exec``. A record has,
over its fields in the order the body annotates them:

- ``__init__(self, <fields>)``, positional or keyword, with the defaults
  the body gives; it calls ``__post_init__`` when the class defines one;
- ``__eq__`` with instances of exactly its own class and the matching
  ``__hash__``, over the tuple of field values (so a record needs at least
  two fields that take part);
- the repr ``Name(field=value, ...)``;
- ``_shown``, the names of the fields the repr shows, in order;
- ``__match_args__``, ``__slots__``, copy and pickle support, and
  ``__replace__`` (``copy.replace`` on Python 3.13+; ``replace`` below
  on any version);
- no assignment and no deletion: both raise
  ``dataclasses.FrozenInstanceError``.

A field whose default is ``hidden`` has no default and takes no part in
equality, hashing or the repr. A method the class body defines is kept,
``__init__`` included: one written out there, setting each field with
``_set``, costs no ``exec``; the records every command builds do that.
"""

import operator

_set = object.__setattr__

# the "default" of a field that equality, hashing and the repr skip
hidden = object()


def _frozen(message):
    # dataclasses is imported only when something tries to change a record
    from dataclasses import FrozenInstanceError

    return FrozenInstanceError(message)


def refuse_set(self, name, value):
    raise _frozen(f"cannot assign to field {name!r}")


def refuse_delete(self, name):
    raise _frozen(f"cannot delete field {name!r}")


def replace(obj, /, **changes):
    """A copy of the record obj with the given fields changed. It is made by
    the record's constructor, so __post_init__ checks it again."""
    values = {name: getattr(obj, name) for name in obj.__match_args__}
    values.update(changes)
    return obj.__class__(**values)


def _init(cls, names, defaults, post_init):
    # one exec per class: a function that sets each field by name runs as
    # fast as dataclasses' own __init__
    params = ", ".join(f"{n}=_default_{n}" if n in defaults else n for n in names)
    lines = [f"    _set(self, {n!r}, {n})" for n in names]
    if post_init:
        lines.append("    self.__post_init__()")
    scope = {"_set": _set, **{f"_default_{n}": v for n, v in defaults.items()}}
    exec(f"def __init__(self, {params}):\n" + "\n".join(lines), scope)
    init = scope["__init__"]
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    return init


class _LazyInit:
    """A record's ``__init__`` until its first lookup, which compiles it
    with _init and puts the function on the class in this one's place."""

    def __init__(self, names, defaults, post_init):
        self.fields = names, defaults, post_init
        self.init = None

    def __set_name__(self, owner, name):
        self.owner = owner

    def compiled(self):
        if self.init is None:
            self.init = _init(self.owner, *self.fields)
        return self.init

    def __get__(self, obj, objtype=None):
        init = self.compiled()
        setattr(self.owner, "__init__", init)
        return init.__get__(obj, objtype)

    def __call__(self, *args, **kwargs):
        # for a caller that took this descriptor from the class's __dict__
        # (to wrap it, say) and calls it in the function's place
        return self.compiled()(*args, **kwargs)


def record(cls):
    """The record made of cls (see the module docstring)."""
    body = dict(cls.__dict__)
    names = tuple(cls.__annotations__)
    given = {n: body.pop(n) for n in names if n in body}
    defaults = {n: v for n, v in given.items() if v is not hidden}
    shown = tuple(n for n in names if given.get(n) is not hidden)
    if len(shown) < 2:
        # attrgetter of one name gives the value, not a tuple
        raise TypeError(f"record {cls.__qualname__} needs at least two shown fields")
    key = operator.attrgetter(*shown)
    values = operator.attrgetter(*names)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return key(self) == key(other)

    def __hash__(self):
        return hash(key(self))

    def __repr__(self):
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in shown)
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):
        return self.__class__, values(self)

    methods = {
        "__init__": _LazyInit(names, defaults, "__post_init__" in body),
        "__eq__": __eq__, "__hash__": __hash__, "__repr__": __repr__,
        "__reduce__": __reduce__, "__replace__": replace,
        "__setattr__": refuse_set, "__delattr__": refuse_delete,
    }
    for name, method in methods.items():
        body.setdefault(name, method)
    body.pop("__dict__", None)
    body.pop("__weakref__", None)
    body.update(__slots__=names, __match_args__=names, _shown=shown,
                __qualname__=cls.__qualname__)
    return type(cls)(cls.__name__, cls.__bases__, body)
