"""The deep-copy contract of whole trees (``Program``, ``CuredProgram``).

Every front-end command cures a private ``copy.deepcopy`` of a shared
pristine tree.  A copy must print the same C, share no IR object with
the original (so curing it cannot leak into the pristine tree), keep
``deepcopy``'s sharing semantics when nested in a larger copy, and
leave the cyclic collector as it found it.
"""

import copy
import gc
import pickle
import types

import pytest

from repro.bench.harness import pristine_cure, pristine_parse
from repro.cil.expr import Varinfo
from repro.cil.printer import program_to_c
from repro.cil.stmt import Fundec
from repro.cil.types import CompInfo
from repro.core import CureOptions, cure
from repro.core.qualifiers import Node
from repro.workloads import get

WORKLOADS = ("olden_power", "ptrdist_anagram", "bind_like")
IR_KINDS = (Varinfo, Fundec, CompInfo, Node)


def _reachable(root) -> dict[int, object]:
    """Every IR object (:data:`IR_KINDS`) reachable from ``root``,
    keyed by identity."""
    found: dict[int, object] = {}
    seen: set[int] = set()
    todo = [root]
    while todo:
        obj = todo.pop()
        if id(obj) in seen or isinstance(
                obj, (type, types.ModuleType, types.FunctionType)):
            continue
        seen.add(id(obj))
        if isinstance(obj, IR_KINDS):
            found[id(obj)] = obj
        todo.extend(gc.get_referents(obj))
    return found


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
