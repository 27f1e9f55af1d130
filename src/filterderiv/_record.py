"""Immutable value records, without importing dataclasses.

``record`` gives a class the methods ``@dataclass(frozen=True)`` generates
on Python 3.11, for the fields its annotations name: ``__init__`` (defaults
from the class body, then ``__post_init__``), ``__repr__``, ``__eq__`` and
``__hash__`` on the field tuple, ``__setattr__``/``__delattr__`` that raise,
and ``__match_args__``. A method the class defines itself is kept. The
methods come from one generated source, one ``exec`` per class. Importing
``dataclasses`` (with ``inspect``, ``ast`` and ``dis``) and decorating with
it were over a quarter of ``import filterderiv.cli`` without a bytecode
cache (``BENCH_21.json``).
"""

from __future__ import annotations


def record(cls):
    names = tuple(cls.__annotations__)  # lazy on 3.14: read through the class
    params = [f"{n}=_cls.{n}" if n in vars(cls) else n for n in names]
    self_tuple = "".join(f"self.{n}," for n in names)
    setattrs = "".join(f"\n    _setattr(self, {n!r}, {n})" for n in names)
    post_init = "\n    self.__post_init__()" if hasattr(cls, "__post_init__") else ""
    fields_repr = ", ".join(f"{n}={{self.{n}!r}}" for n in names)
    source = f"""\
def __init__(self, {", ".join(params)}):{setattrs}{post_init}
def __repr__(self):
    return f"{{self.__class__.__qualname__}}({fields_repr})"
def __eq__(self, other):
    if other.__class__ is self.__class__:
        return ({self_tuple}) == ({"".join(f"other.{n}," for n in names)})
    return NotImplemented
def __hash__(self):
    return hash(({self_tuple}))
def __setattr__(self, name, value):
    if type(self) is _cls or name in {names!r}:
        raise AttributeError(f"cannot assign to field {{name!r}}")
    super(_cls, self).__setattr__(name, value)
def __delattr__(self, name):
    if type(self) is _cls or name in {names!r}:
        raise AttributeError(f"cannot delete field {{name!r}}")
    super(_cls, self).__delattr__(name)
"""
    namespace = {"_setattr": object.__setattr__, "_cls": cls}
    exec(source, namespace)
    for name in ("__init__", "__repr__", "__eq__", "__hash__", "__setattr__", "__delattr__"):
        if name not in vars(cls):
            fn = namespace[name]
            fn.__qualname__ = f"{cls.__qualname__}.{name}"
            setattr(cls, name, fn)
    if "__match_args__" not in vars(cls):
        cls.__match_args__ = names
    return cls
