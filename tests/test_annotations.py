"""Every annotation on the public API and the CLI resolves to a name."""

import inspect
import typing
from functools import cached_property

import tokenslide
from tokenslide import cli


def _callables(owner, prefix):
    """Functions of a module, or methods and accessors of a class."""
    for name, obj in vars(owner).items():
        if isinstance(obj, (staticmethod, classmethod)):
            obj = obj.__func__
        elif isinstance(obj, property):
            obj = obj.fget
        elif isinstance(obj, cached_property):
            obj = obj.func
        if inspect.isfunction(obj) and obj.__module__.startswith("tokenslide"):
            yield f"{prefix}.{name}", obj


def public_callables():
    for name in tokenslide.__all__:
        obj = getattr(tokenslide, name)
        if inspect.isclass(obj):
            yield from _callables(obj, name)
        elif inspect.isfunction(obj):
            yield name, obj
    yield from _callables(cli, "cli")


def test_annotations_resolve():
    unresolved = []
    for name, fn in public_callables():
        try:
            typing.get_type_hints(fn)
        except NameError as err:
            unresolved.append(f"{name}: {err}")
    assert not unresolved
