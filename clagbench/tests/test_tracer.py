import pytest

import clag
from clag import classify, clsets, exact, geometry, incidence
from clag.geometry import ambient

import tracer
from tracer import Tracer, aggregate, check_tree, self_times


def _span(name, start, end, parent):
    return (name, start, end, parent, "r")


def test_self_time_on_synthetic_tree():
    spans = [
        _span("root", 0.0, 10.0, -1),
        _span("a", 1.0, 4.0, 0),
        _span("a.x", 1.5, 2.0, 1),
        _span("b", 5.0, 9.0, 0),
        _span("a", 9.5, 10.0, 0),
    ]
    assert self_times(spans) == pytest.approx([10 - 3 - 4 - 0.5, 2.5, 0.5,
                                               4.0, 0.5])
    agg = aggregate(spans, {"b": {"cells": 8}})
    assert agg["a.self_s"] == pytest.approx(3.0)
    assert agg["a.calls"] == 2
    assert agg["root.self_s"] == pytest.approx(2.5)
    assert agg["b.cells"] == 8
    assert check_tree(spans, self_times(spans)) == []


def test_overlapping_children_are_counted_once():
    spans = [_span("p", 0.0, 4.0, -1), _span("c", 1.0, 3.0, 0),
             _span("c", 2.0, 5.0, 0)]
    # the children cover [1, 4] of the parent
    assert self_times(spans)[0] == pytest.approx(1.0)
    bad = check_tree(spans, self_times(spans))
    assert bad == ["c: outside its parent p"]


def _bindings():
    """Every attribute of every clag module and traced class, by identity."""
    out = {}
    for name, mod in tracer._clag_modules().items():
        for attr, val in vars(mod).items():
            out[(name, attr)] = id(val)
    for short, clsname, meth in tracer.TRACED_METHODS.values():
        cls = getattr(tracer._clag_modules()[f"clag.{short}"], clsname)
        out[(clsname, meth)] = id(cls.__dict__[meth])
    return out


def test_tracer_patches_every_binding_and_restores_them():
    import clag.cli  # noqa: F401  (bind every module the workloads use)
    before = _bindings()
    original = clsets.is_cameron_liebler
    t = Tracer()
    with t:
        # `from .clsets import is_cameron_liebler` copies: all are wrapped
        assert classify.is_cameron_liebler is clsets.is_cameron_liebler
        assert clag.is_cameron_liebler is clsets.is_cameron_liebler
        assert clsets.is_cameron_liebler is not original
        space = ambient(3, 2, "affine")
        ok, _ = clag.is_cameron_liebler(
            clsets.point_pencil(space, space.points[0], 1))
        assert ok
    assert _bindings() == before
    assert clsets.is_cameron_liebler is original
    names = [s[0] for s in t.spans]
    assert "clsets.is_cameron_liebler" in names
    assert "incidence.row_space_membership" in names
    assert "exact.solve_left" in names
    member = names.index("incidence.row_space_membership")
    parent = t.spans[member][3]
    assert t.spans[parent][0] == "clsets.is_cameron_liebler"
    assert check_tree(t.spans, self_times(t.spans)) == []
    assert t.counts["clsets.is_cameron_liebler"] == {"accepted": 1}


def test_span_names_cover_the_benchmark_per_layer_metrics():
    import clag.cli  # noqa: F401
    import run
    spec = run.load_spec()
    spans = set(tracer.traced_functions()) | set(tracer.TRACED_METHODS)
    derived = {"classify.nodes", "classify.forced", "classify.nodes_per_s",
               "classify.pruned_by_elimination",
               "classify.pruned_by_pencil_counts", "trace.overhead_s"}
    for m in spec["per_layer"]:
        if m["name"] in derived:
            continue
        base, stat = m["name"].rsplit(".", 1)
        assert base in spans, m["name"]
        assert stat in ("self_s", "calls", "cells", "accept_ratio")
