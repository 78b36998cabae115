"""Span tracer for the per-layer pass.

The layers are the modules of flecklab.  The tracer wraps every callable
named in a layer's ``__all__`` in every flecklab namespace that imported it
(the modules use ``from .x import y``, so patching the defining module alone
would miss every cross-module call), patches ``__init__`` and ``__call__`` of
the public classes in place, and swaps each catalog entry's check adapter for
a traced copy.  Calls a module makes to its own names are not wrapped: they
stay inside one layer and so inside its self time.

Each call is a span (name, start, end, parent, instance id); the instance id
counts check calls, so the spans of one instance share it.  Self time per
layer is derived from every span as it closes (its duration minus its
children's), and the spans of a sample of instances are kept in memory in
flat arrays and written out when the pass ends.  Nothing in flecklab changes on
disk, and ``uninstall`` restores every patched object.
"""

from __future__ import annotations

import dataclasses
import inspect
import json
import sys
import time
from array import array
from pathlib import Path
from types import ModuleType

# Every call is counted and timed; the full spans of one checked instance in
# KEEP_EVERY (and all spans outside instances) are also kept, which bounds the
# memory a pass of a few million instances needs.
KEEP_EVERY = 128
LAYERS = ("padic", "combinatorics", "sums", "quantities", "statements", "verifier")
# Class-sum calls whose term count is known from their arguments: the number
# of k in range(r % m, upper + 1, m), i.e. the binomial terms of one class.
# convolution_identity_holds sums over many classes and is not counted, nor
# are class loops written out inside other layers.
_N_R_M = tuple(
    f"sums.{f}"
    for f in ("alt_sum_f", "alt_sum_power", "alt_sum_binom", "plain_alt_sum", "unsigned_class_sum")
)
_TERM_CALLS = (*_N_R_M, "sums.restricted_sum", "sums.series_coefficient")


def class_terms(name: str, args: tuple) -> int:
    """Binomial terms in the residue class a call sums over."""
    if name in _N_R_M:
        n, r, m = args[:3]
        return len(range(r % m, n + 1, m))
    if name == "sums.restricted_sum":
        spec = args[0]
        return len(range(spec.r % spec.modulus, spec.n + 1, spec.modulus))
    if name == "sums.series_coefficient":
        pm, n, _l, r = args[:4]
        return len(range(r % pm.m, min(r, n) + 1, pm.m))
    return 0


def flecklab_modules() -> dict[str, ModuleType]:
    """Every imported flecklab module, the package itself included."""
    return {
        name: mod
        for name, mod in sys.modules.items()
        if mod is not None and (name == "flecklab" or name.startswith("flecklab."))
    }


class Tracer:
    """Records spans while installed.  One tracer serves one pass."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # Kept spans, one column per field.
        self.name_id = array("h")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("l")
        self.instance = array("l")
        # Totals over every span, kept or not.
        self.own_ns = [0] * len(LAYERS)
        self.calls = [0] * len(LAYERS)
        self.terms = 0
        self.instances = 0
        # Id of the instance being checked, 0 outside any check.
        self._current = 0
        # Per open span, the nanoseconds its children cover so far.
        self._stack = [0]
        # Indices of the open kept spans, under a -1 root.
        self._kept_stack = [-1]
        self._keep = [True]
        self._undo: list = []

    # -- recording -----------------------------------------------------------

    def _intern(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _wrap(self, name: str, fn, *, new_instance: bool = False):
        nid = self._intern(name)
        layer = LAYERS.index(name.split(".", 1)[0])
        # Arguments bound to positions, so that class_terms can read them
        # however the caller passed them.
        signature = inspect.signature(fn) if name in _TERM_CALLS else None
        own, calls, stack, keep = self.own_ns, self.calls, self._stack, self._keep
        clock = time.perf_counter_ns
        tracer = self

        def traced(*args, **kwargs):
            if new_instance:
                tracer.instances += 1
                tracer._current = tracer.instances
                keep[0] = tracer.instances % KEEP_EVERY == 1
            if signature is not None:
                tracer.terms += class_terms(
                    name, signature.bind(*args, **kwargs).args if kwargs else args
                )
            kept = tracer._open(nid) if keep[0] else -1
            stack.append(0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                dur = t1 - t0
                own[layer] += dur - stack.pop()
                stack[-1] += dur
                calls[layer] += 1
                if kept >= 0:
                    tracer._close(kept, t0, t1)
                if new_instance:
                    tracer._current = 0
                    keep[0] = True

        return traced

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._kept_stack[-1])
        self.instance.append(self._current)
        self.start.append(0)
        self.end.append(0)
        self._kept_stack.append(idx)
        return idx

    def _close(self, idx: int, t0: int, t1: int) -> None:
        self.start[idx] = t0
        self.end[idx] = t1
        self._kept_stack.pop()

    # -- installing ----------------------------------------------------------

    def install(self) -> None:
        mods = flecklab_modules()
        statements = mods["flecklab.statements"]
        for table in (statements.STATEMENTS, statements.SEARCHES):
            for sid, st in list(table.items()):
                traced = self._wrap(f"statements.check.{sid}", st.check, new_instance=True)
                self._undo.append((table.__setitem__, sid, st))
                table[sid] = dataclasses.replace(st, check=traced)
        for layer in LAYERS:
            home = mods[f"flecklab.{layer}"]
            for attr in getattr(home, "__all__", ()):
                obj = getattr(home, attr)
                name = f"{layer}.{attr}"
                if isinstance(obj, type):
                    self._patch_class(name, obj)
                elif callable(obj):
                    traced = self._wrap(name, obj)
                    for ns in mods.values():
                        if ns is not home and ns.__dict__.get(attr) is obj:
                            self._setattr(ns, attr, traced)

    def _patch_class(self, name: str, cls: type) -> None:
        for method in ("__init__", "__call__"):
            fn = cls.__dict__.get(method)
            if fn is not None:
                self._setattr(cls, method, self._wrap(f"{name}.{method}", fn))

    def _setattr(self, owner, attr: str, value) -> None:
        self._undo.append((lambda a, v, o=owner: setattr(o, a, v), attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            restore, key, value = self._undo.pop()
            restore(key, value)

    # -- results -------------------------------------------------------------

    def self_ns(self) -> dict[str, int]:
        """Nanoseconds per layer: each span's duration minus the part of it
        its child spans cover, summed as the spans close."""
        return dict(zip(LAYERS, self.own_ns))

    def call_counts(self) -> dict[str, int]:
        return dict(zip(LAYERS, self.calls))

    def write(self, path: Path) -> None:
        """Kept spans as text: a JSON header naming the spans, then one line
        per span with name index, start and end in ns, parent span (-1 at the
        top) and instance id (0 outside any check)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as out:
            out.write(json.dumps({"names": self.names, "keep_every": KEEP_EVERY}) + "\n")
            for row in zip(self.name_id, self.start, self.end, self.parent, self.instance):
                out.write("%d %d %d %d %d\n" % row)
