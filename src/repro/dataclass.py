"""``dataclass`` whose generated methods profile under their class's name.

:func:`dataclasses.dataclass` compiles every generated method from a
source named ``<string>``, so the ``__init__`` of every dataclass has the
same :mod:`cProfile` key, ``('<string>', 2, '__init__')``.  :mod:`pstats`
keeps one entry per key, and which one survives depends on code-object
addresses: a call count over a build changed from process to process.
This decorator is :func:`dataclasses.dataclass` with the generated code
renamed to ``<dataclass module.QualName>``, one key per class.  Every
dataclass in the package uses it.
"""

import dataclasses
import typing

__all__ = ["dataclass"]


@typing.dataclass_transform()
def dataclass(cls=None, /, **kwargs):
    """:func:`dataclasses.dataclass`, with the same keyword arguments."""
    if cls is None:
        return lambda cls: dataclass(cls, **kwargs)
    cls = dataclasses.dataclass(cls, **kwargs)
    source = f"<dataclass {cls.__module__}.{cls.__qualname__}>"
    for member in vars(cls).values():
        code = getattr(member, "__code__", None)
        if code is not None and code.co_filename == "<string>":
            member.__code__ = code.replace(co_filename=source)
    return cls
