"""Job codec: pickling jobs whose closures stock pickle rejects.

Pool workers are forked once and then receive jobs over a queue, so
every job — driver bodies, plan UDFs, termination predicates, CPO
comparators — must cross the process boundary *by value* (there is no
fork-after-compilation path on which closures could transfer by
address-space inheritance).

Stock pickle refuses lambdas and nested functions (it serializes
functions by importable reference).  :class:`JobPickler` extends it with
a by-value fallback: a function that cannot be found under its
``module.qualname`` is reduced to its marshalled code object, the name
of its defining module (whose dict is re-bound as the function's
globals on the worker — under the ``fork`` start method the module is
either already imported or importable from the inherited ``sys.path``),
and its defaults / closure-cell contents / function attributes.  Cell
contents are restored through the pickle *state* step so that recursive
closures (a cell pointing back at its own function) round-trip.

Everything else — records, plans, configs, graphs, metric collectors —
pickles exactly as before.  ``loads`` is plain :func:`pickle.loads`:
the by-value encoding bottoms out in module-level rebuild helpers that
are themselves importable.
"""

from __future__ import annotations

import builtins
import importlib
import io
import marshal
import pickle
import sys
import types


class _EmptyCell:
    """Sentinel for a closure cell whose contents were never set."""


_EMPTY_CELL = _EmptyCell()


def _function_globals(module_name: str) -> dict:
    """The globals dict a rebuilt function should execute under.

    Prefer the live module (already imported in a forked worker, or
    importable from the inherited path); fall back to a bare namespace
    with builtins so pure lambdas still run.
    """
    if module_name:
        module = sys.modules.get(module_name)
        if module is None:
            try:
                module = importlib.import_module(module_name)
            except Exception:
                module = None
        if module is not None:
            return module.__dict__
    return {"__builtins__": builtins.__dict__}


def _rebuild_function(code_blob: bytes, module_name: str, qualname: str):
    """Recreate a by-value function shell; state is applied separately."""
    code = marshal.loads(code_blob)
    closure = tuple(types.CellType() for _ in code.co_freevars)
    fn = types.FunctionType(
        code, _function_globals(module_name), code.co_name, None, closure
    )
    fn.__qualname__ = qualname
    fn.__module__ = module_name
    return fn


def _apply_function_state(fn, state):
    fn.__defaults__ = state["defaults"]
    fn.__kwdefaults__ = state["kwdefaults"]
    for cell, value in zip(fn.__closure__ or (), state["cells"]):
        if value is not _EMPTY_CELL:
            cell.cell_contents = value
    attrs = state["attrs"]
    if attrs:
        fn.__dict__.update(attrs)


def _importable(fn) -> bool:
    """True when stock pickle's save-by-reference would round-trip ``fn``."""
    module_name = getattr(fn, "__module__", None)
    qualname = getattr(fn, "__qualname__", "")
    if module_name is None or "<locals>" in qualname or "<lambda>" in qualname:
        return False
    module = sys.modules.get(module_name)
    if module is None:
        return False
    obj = module
    try:
        for part in qualname.split("."):
            obj = getattr(obj, part)
    except AttributeError:
        return False
    return obj is fn


def _cell_contents(cell):
    try:
        return cell.cell_contents
    except ValueError:  # pragma: no cover - unset cell (rare)
        return _EMPTY_CELL


class JobPickler(pickle.Pickler):
    """Pickler with a by-value fallback for non-importable functions."""

    def reducer_override(self, obj):
        if isinstance(obj, types.FunctionType) and not _importable(obj):
            try:
                code_blob = marshal.dumps(obj.__code__)
            except ValueError:  # pragma: no cover - unmarshallable consts
                return NotImplemented
            state = {
                "defaults": obj.__defaults__,
                "kwdefaults": obj.__kwdefaults__,
                "cells": [
                    _cell_contents(cell) for cell in obj.__closure__ or ()
                ],
                "attrs": dict(obj.__dict__) if obj.__dict__ else None,
            }
            return (
                _rebuild_function,
                (code_blob, obj.__module__ or "", obj.__qualname__),
                state,
                None,
                None,
                _apply_function_state,
            )
        return NotImplemented


def dumps(obj) -> bytes:
    """Serialize a job (closures included) for a pool worker."""
    buffer = io.BytesIO()
    JobPickler(buffer, protocol=pickle.HIGHEST_PROTOCOL).dump(obj)
    return buffer.getvalue()


#: jobs decode with plain pickle — the by-value encoding bottoms out in
#: this module's importable rebuild helpers
loads = pickle.loads
