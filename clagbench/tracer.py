"""Spans around clag's public functions, recorded from outside the
program.

`Tracer.install` replaces each traced function object in every `clag`
module namespace that binds it (``from .x import f`` copies the binding
into the importing module) and each traced method on its class;
`Tracer.uninstall` restores every replaced binding.  Spans are tuples
(name, start, end, parent, run_id) kept in memory until the caller
writes them out; `aggregate` turns them into per-layer self times and
call counts.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

# Methods traced on their class, by span name.  Other classes' methods
# (field arithmetic, Subspace accessors) run per element and are left
# alone.
TRACED_METHODS = {
    **{f"geometry.AmbientSpace.{m}": ("geometry", "AmbientSpace", m)
       for m in ("spaces", "space_index", "points_of", "point_indices_of",
                 "space_point_indices", "infinity_pencils",
                 "infinite_subspaces")},
    **{f"incidence.{m}": ("incidence", "IncidenceMatrix", m)
       for m in ("rank", "kernel_basis", "in_row_space",
                 "row_space_membership", "verify_certificate")},
}

# Per-call cost below the tracer's own: wrapping these would measure the
# tracer.  Subspace.field calls field_for_order on every access.
UNTRACED = {"galois.field_for_order", "geometry.gaussian_binomial"}


def _cells(args, result):
    rel = args[0]
    return {"cells": int(rel.shape[0]) ** 3}


def _accepted(args, result):
    return {"accepted": 1 if result[0] else 0}


# Extra counts taken at the boundary, from the arguments and result.
COUNT_HOOKS = {
    "_kernels.triple_counts": _cells,
    "clsets.is_cameron_liebler": _accepted,
}


def _clag_modules() -> dict:
    return {name: mod for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == "clag" or name.startswith("clag."))}


def traced_functions() -> dict:
    """Span name -> function object for every public module-level
    function (named in `__all__` where the module has one) of every
    imported clag submodule.  A function bound under several names in
    its own module is named by the shortest one."""
    found = {}
    for modname, mod in _clag_modules().items():
        if modname == "clag":
            continue
        short = modname.split(".", 1)[1]
        public = getattr(mod, "__all__", None)
        names = {}
        for attr, val in vars(mod).items():
            # a generator function returns before its work is done
            if (attr.startswith("_") or not inspect.isfunction(val)
                    or inspect.isgeneratorfunction(val)
                    or val.__module__ != modname
                    or (public is not None and attr not in public)):
                continue
            names.setdefault(val, []).append(attr)
        for fn, attrs in names.items():
            name = f"{short}.{min(attrs, key=len)}"
            if name not in UNTRACED:
                found[name] = fn
    return found


class Tracer:
    def __init__(self, run_id: str = "0"):
        self.run_id = run_id
        self.spans: list = []
        self.counts: dict = {}
        self._stack: list[int] = []
        self._saved: list = []

    def _wrap(self, name, fn):
        spans, stack, run_id = self.spans, self._stack, self.run_id
        hook = COUNT_HOOKS.get(name)
        counts = self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, run_id)
            if hook is not None:
                extra = counts.setdefault(name, {})
                for key, val in hook(args, result).items():
                    extra[key] = extra.get(key, 0) + val
            return result
        return wrapper

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        modules = _clag_modules()
        for name, fn in traced_functions().items():
            wrapper = self._wrap(name, fn)
            for mod in modules.values():
                for attr, val in list(vars(mod).items()):
                    if val is fn:
                        self._saved.append((mod, attr, val))
                        setattr(mod, attr, wrapper)
        for name, (short, clsname, meth) in TRACED_METHODS.items():
            cls = getattr(modules[f"clag.{short}"], clsname)
            fn = cls.__dict__[meth]
            self._saved.append((cls, meth, fn))
            setattr(cls, meth, self._wrap(name, fn))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, val = self._saved.pop()
            setattr(owner, attr, val)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False


# ---------------------------------------------------------------------------
# span arithmetic
# ---------------------------------------------------------------------------

def _covered(intervals, lo, hi) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> list[float]:
    """Per span: its duration minus the part its child spans cover."""
    children: list[list] = [[] for _ in spans]
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            children[parent].append((start, end))
    return [(end - start) - _covered(children[i], start, end)
            for i, (_, start, end, _, _) in enumerate(spans)]


def check_tree(spans, selfs) -> list[str]:
    """Violations of: end >= start, a child inside its parent, self >= 0."""
    bad = []
    for i, (name, start, end, parent, _) in enumerate(spans):
        if end < start:
            bad.append(f"{name}: negative duration")
        if selfs[i] < 0:
            bad.append(f"{name}: negative self time")
        if parent >= 0:
            _, pstart, pend, _, _ = spans[parent]
            if start < pstart or end > pend:
                bad.append(f"{name}: outside its parent {spans[parent][0]}")
    return bad


def aggregate(spans, counts) -> dict:
    """`<name>.self_s`, `<name>.calls` and hook counts per span name."""
    selfs = self_times(spans)
    out: dict = {}
    for (name, *_), s in zip(spans, selfs):
        out[f"{name}.self_s"] = out.get(f"{name}.self_s", 0.0) + s
        out[f"{name}.calls"] = out.get(f"{name}.calls", 0) + 1
    for name, extra in counts.items():
        for key, val in extra.items():
            out[f"{name}.{key}"] = val
    return out
