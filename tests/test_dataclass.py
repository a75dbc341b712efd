"""Every dataclass in the package profiles under its own key, so a call
count over a build is the same in every process."""

import cProfile
import dataclasses
import importlib
import pkgutil
import pstats
from collections import Counter

import pytest

import repro
from repro.dataclass import dataclass
from repro.pipeline import SchemePipeline


def _package_dataclasses():
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        module = importlib.import_module(info.name)
        for value in vars(module).values():
            if (isinstance(value, type) and dataclasses.is_dataclass(value)
                    and value.__module__ == info.name):
                yield value


def _generated_codes(cls):
    for member in vars(cls).values():
        code = getattr(member, "__code__", None)
        if code is not None and code.co_filename.startswith(("<string>",
                                                              "<dataclass")):
            yield code


def test_generated_methods_are_named_after_their_class():
    classes = list(_package_dataclasses())
    assert len(classes) > 40
    for cls in classes:
        codes = list(_generated_codes(cls))
        assert codes, cls
        for code in codes:
            assert code.co_filename == \
                f"<dataclass {cls.__module__}.{cls.__qualname__}>"


def test_the_decorator_keeps_dataclass_behaviour():
    @dataclass(frozen=True, order=True)
    class Pair:
        u: int
        v: int = 0
        tags: list = dataclasses.field(default_factory=list)

    assert Pair(1) == Pair(1, 0, []) and Pair(1) < Pair(2)
    assert repr(Pair(3, 4)) == \
        "test_the_decorator_keeps_dataclass_behaviour.<locals>.Pair(" \
        "u=3, v=4, tags=[])"
    assert [f.name for f in dataclasses.fields(Pair)] == ["u", "v", "tags"]
    with pytest.raises(dataclasses.FrozenInstanceError):
        Pair(1).u = 2


def test_a_profiled_build_merges_no_entries():
    """pstats keeps one entry per (file, line, name): a key shared by two
    code objects would drop calls depending on their addresses."""
    pipeline = SchemePipeline().workload("random", 64).params(3).seed(7)
    profile = cProfile.Profile()
    profile.enable()
    pipeline.build()
    pipeline.compile("dense")
    profile.disable()
    raw = profile.getstats()
    keys = Counter(
        entry.code if isinstance(entry.code, str) else
        (entry.code.co_filename, entry.code.co_firstlineno,
         entry.code.co_name) for entry in raw)
    assert [key for key, count in keys.items() if count > 1] == []
    assert pstats.Stats(profile).total_calls == \
        sum(entry.callcount for entry in raw)
