"""The deep-copy and layout contract of whole trees (``Program``,
``CuredProgram``).

Every front-end command cures a private ``copy.deepcopy`` of a shared
pristine tree.  A copy must print the same C, share no IR object with
the original (so curing it cannot leak into the pristine tree), keep
``deepcopy``'s sharing semantics when nested in a larger copy, and
leave the cyclic collector as it found it; so must a cure-cache load.
No object a tree is made of carries a ``__dict__``.
"""

import collections
import copy
import enum
import gc
import os
import pickle
import types
from typing import Iterator

import pytest

from repro.bench.harness import (clear_program_cache, pristine_cure,
                                 pristine_parse)
from repro.cache import get_cache
from repro.cache.store import CureCache
from repro.cil.expr import Varinfo
from repro.cil.printer import program_to_c
from repro.cil.program import Program
from repro.cil.stmt import Fundec
from repro.cil.types import CompInfo
from repro.core import CureOptions, cure
from repro.core.qualifiers import Node
from repro.workloads import get

WORKLOADS = ("olden_power", "ptrdist_anagram", "bind_like")
IR_KINDS = (Varinfo, Fundec, CompInfo, Node)


def _objects(root) -> Iterator[object]:
    """Every object reachable from ``root``, once each; classes,
    modules and functions are not followed."""
    seen: set[int] = set()
    todo = [root]
    while todo:
        obj = todo.pop()
        if id(obj) in seen or isinstance(
                obj, (type, types.ModuleType, types.FunctionType)):
            continue
        seen.add(id(obj))
        yield obj
        todo.extend(gc.get_referents(obj))


def _reachable(root) -> dict[int, object]:
    """Every IR object (:data:`IR_KINDS`) reachable from ``root``,
    keyed by identity."""
    return {id(o): o for o in _objects(root) if isinstance(o, IR_KINDS)}


def _assert_disjoint(original, dup) -> None:
    a, b = _reachable(original), _reachable(dup)
    assert not a.keys() & b.keys()
    for kind in IR_KINDS:
        assert (sum(isinstance(o, kind) for o in a.values())
                == sum(isinstance(o, kind) for o in b.values())), kind


@pytest.mark.parametrize("name", WORKLOADS)
def test_program_copy_prints_same_c_and_shares_nothing(name):
    prog = pristine_parse(get(name))
    dup = copy.deepcopy(prog)
    assert program_to_c(dup) == program_to_c(prog)
    _assert_disjoint(prog, dup)


@pytest.mark.parametrize("name", WORKLOADS)
def test_cured_copy_prints_same_c_and_shares_nothing(name):
    cured = pristine_cure(get(name))
    dup = copy.deepcopy(cured)
    assert dup.to_c() == cured.to_c()
    assert dup.report() == cured.report()
    assert any(isinstance(o, Node) for o in _reachable(dup).values())
    _assert_disjoint(cured, dup)


@pytest.mark.parametrize("name", WORKLOADS)
def test_curing_a_copy_leaves_the_pristine_tree_alone(name):
    w = get(name)
    prog = pristine_parse(w)
    before = program_to_c(prog, annotate_kinds=True)
    cured = cure(copy.deepcopy(prog),
                 options=CureOptions(trust_bad_casts=w.trust_bad_casts))
    assert cured.to_c() != before
    assert program_to_c(prog, annotate_kinds=True) == before


def test_nested_copy_shares_with_the_enclosing_copy():
    prog = pristine_parse(get(WORKLOADS[0]))
    out = copy.deepcopy({"p": prog, "f": prog.functions["main"]})
    assert out["p"] is not prog
    assert out["f"] is out["p"].functions["main"]
    cured = pristine_cure(get(WORKLOADS[0]))
    out = copy.deepcopy([cured, cured.prog])
    assert out[0] is not cured
    assert out[1] is out[0].prog


def test_copy_restores_the_collector_state():
    prog = pristine_parse(get(WORKLOADS[0]))
    was = gc.isenabled()
    try:
        gc.enable()
        copy.deepcopy(prog)
        assert gc.isenabled()
        bad = copy.deepcopy(prog)
        bad.unpicklable = lambda: None
        with pytest.raises((pickle.PicklingError, AttributeError)):
            copy.deepcopy(bad)
        assert gc.isenabled()
        gc.disable()
        copy.deepcopy(prog)
        assert not gc.isenabled()
    finally:
        if was:
            gc.enable()
        else:
            gc.disable()


class _SeesCollector:
    """A stored value that records, as it unpickles, whether the
    cyclic collector is enabled."""

    seen: list[bool] = []

    def __init__(self) -> None:
        self.tag = 1

    def __setstate__(self, state: dict) -> None:
        _SeesCollector.seen.append(gc.isenabled())
        self.__dict__.update(state)


def test_cache_load_pauses_the_collector_and_restores_it(tmp_path):
    disk = CureCache(str(tmp_path), enabled=True)
    hit, corrupt = "a" * 64, "b" * 64
    assert disk.store(hit, _SeesCollector())
    was = gc.isenabled()
    try:
        for enabled in (True, False):
            (gc.enable if enabled else gc.disable)()
            _SeesCollector.seen.clear()
            assert isinstance(disk.load(hit), _SeesCollector)
            assert _SeesCollector.seen == [False]
            assert gc.isenabled() is enabled
            assert disk.load("c" * 64) is None          # a miss
            assert gc.isenabled() is enabled
            os.makedirs(os.path.dirname(disk._path(corrupt)),
                        exist_ok=True)
            with open(disk._path(corrupt), "wb") as f:
                f.write(b"\x80corrupt")
            assert disk.load(corrupt) is None           # invalidated
            assert gc.isenabled() is enabled
        assert disk.session.invalidated == 2
    finally:
        if was:
            gc.enable()
        else:
            gc.disable()


def _tree_object(obj) -> bool:
    """An instance of a class trees are made of: everything in
    ``repro.cil`` and the qualifier ``Node``, except enum members and
    the one ``Program`` container per tree."""
    mod = type(obj).__module__
    return ((mod.startswith("repro.cil.") or mod == "repro.core.qualifiers")
            and not isinstance(obj, (enum.Enum, Program)))


@pytest.mark.parametrize("name", ("spec_ijpeg", "bind_like"))
def test_no_tree_object_carries_a_dict(name, tmp_path, monkeypatch):
    """Tree classes declare ``__slots__`` (DESIGN.md, IR): a class that
    forgets them, a new subclass included, brings back one dict per
    object.  Checked on trees as made and as loaded from the cure
    cache, with structs, RTTI and (without RTTI) WILD pointers."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.delenv("REPRO_CACHE", raising=False)
    w = get(name)
    no_rtti = CureOptions(use_rtti=False)
    for hits in (0, 3):
        clear_program_cache()
        before = get_cache().session.hits
        trees = [pristine_parse(w), pristine_cure(w),
                 pristine_cure(w, no_rtti)]
        assert get_cache().session.hits - before == hits
        seen: collections.Counter = collections.Counter()
        for tree in trees:
            for obj in _objects(tree):
                if _tree_object(obj):
                    assert not hasattr(obj, "__dict__"), type(obj)
                    seen[type(obj).__name__] += 1
                    if isinstance(obj, Node):
                        seen[obj.kind.name] += 1
        assert seen["CompInfo"] and seen["RTTI"] and seen["WILD"], seen
    clear_program_cache()
