"""Per-layer spans recorded from outside the program.

`Tracer.install` wraps every function and method defined in the loaded
``mfcert.*`` modules and rebinds *every* name bound to a wrapped function
object: the defining attribute, re-exports such as ``mfcert.verify``, imports
such as ``from .complexes import is_homotopy`` and renames such as
``verify as kcert_verify``, and class aliases such as
``__rmul__ = __mul__``.  A layer is one module of ``src/mfcert``.

A span opens when a call enters a layer from another layer (or from the
benchmark), and at every call of a function in `NAMED`.  Calls that stay
inside one layer only count.  A span's self time is its duration minus the
durations of the spans it opened.  The self times of all layers, the time
spent in counting hooks and the time the caller spent outside its calls into
the program add up to the traced wall time; `Tracer.accounting_error` checks
that they do.

Properties are not wrapped: their time belongs to the caller's layer, apart
from the wrapped methods they call.
"""

from __future__ import annotations

import functools
import sys
import time
import types

# Functions whose inclusive time feeds a per-layer metric.  The value is the
# metric stem; functions sharing a stem (the ParityMap arithmetic) count as
# one group whose inclusive time is taken at the outermost call only.
NAMED = {
    "supermod.ParityMap.compose": "supermod.compose",
    "supermod.ParityMap.__init__": "supermod.map_init",
    "supermod.ParityMap.__add__": "supermod.arith",
    "supermod.ParityMap.__neg__": "supermod.arith",
    "supermod.ParityMap.__sub__": "supermod.arith",
    "supermod.ParityMap.scale": "supermod.arith",
    "supermod.ParityMap.evaluate": "supermod.evaluate",
    "complexes.strict_exactness_sample": "complexes.exactness",
    "complexes.CurvedComplex.digest": "complexes.digest",
    "complexes.curvature_check": "complexes.curvature_check",
    "complexes.is_homotopy": "complexes.is_homotopy",
    "complexes.filtration_verify": "complexes.filtration",
    "polynomials.Poly.__mul__": "polynomials.mul",
    "polynomials.Poly.__str__": "polynomials.str",
    "polynomials.PolyRing.parse": "polynomials.parse",
    "kcert.verify": "kcert.verify",
    "kcert.HomotopyMove.replay": "kcert.homotopy_replay",
    "kcert.FiltrationMove.replay": "kcert.filtration_replay",
    "kcert.IsoMove.replay": "kcert.iso_replay",
    "serialize.parse_bundle": "serialize.parse_bundle",
    "serialize.parse_instance": "serialize.parse_instance",
    "serialize.write_bundle": "serialize.write_bundle",
}

# Dunder methods that the interpreter calls in ways a wrapper cannot stand in for.
_SKIP = {"__new__", "__init_subclass__", "__class_getitem__", "__getattr__",
         "__getattribute__", "__setattr__", "__delattr__", "__del__"}

# Plain functions, and functions decorated with functools.lru_cache.
_CALLABLE_TYPES = (types.FunctionType, functools._lru_cache_wrapper)


def compose_counts(left, right) -> tuple[int, int, int]:
    """Slots, nonzero pairs and term products of the product ``left * right``.

    Slots are rows x inner x columns, the multiply-adds of a dense product.
    A pair is a nonzero entry of ``left`` meeting a nonzero entry of
    ``right`` on the same inner index; its term products are the products of
    their term counts.
    """
    a, b = left.entries, right.entries
    inner = len(b)
    col_nnz = [0] * inner
    col_terms = [0] * inner
    for row in a:
        for k, p in enumerate(row):
            n = len(p.terms)
            if n:
                col_nnz[k] += 1
                col_terms[k] += n
    pairs = products = 0
    for k, row in enumerate(b):
        if not col_nnz[k]:
            continue
        nnz = terms = 0
        for p in row:
            n = len(p.terms)
            if n:
                nnz += 1
                terms += n
        pairs += col_nnz[k] * nnz
        products += col_terms[k] * terms
    cols = len(b[0]) if b else 0
    return len(a) * inner * cols, pairs, products


class Tracer:
    """Span stack and per-layer / per-function accumulators for one process."""

    def __init__(self, package: str = "mfcert"):
        self.package = package
        self.clock = time.perf_counter_ns
        self.stack: list[list] = []
        self.layers: dict[str, list[int]] = {}      # layer -> [self_ns, entries]
        self.functions: dict[str, list[int]] = {}   # layer.qualname -> [calls]
        self.groups: dict[str, list[int]] = {}      # NAMED stem -> [incl_ns, self_ns, depth]
        self.compose = [0, 0, 0]                    # slots, pairs, term products
        self.hook_ns = 0
        self.wall_ns = 0
        self._started = 0
        self._restore: list[tuple[object, str, object]] = []

    # -- installing ------------------------------------------------------------

    def install(self) -> int:
        """Wrap and rebind; returns the number of bindings replaced."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        mods = {name: mod for name, mod in sys.modules.items()
                if name == self.package or name.startswith(self.package + ".")}
        originals: dict[int, tuple[object, object]] = {}   # id -> (original, wrapper)
        containers: list[object] = list(mods.values())
        for name, mod in mods.items():
            if name == self.package:
                continue
            layer = name[len(self.package) + 1:]
            for obj in list(vars(mod).values()):
                if isinstance(obj, _CALLABLE_TYPES) and getattr(obj, "__module__", None) == name:
                    self._adopt(obj, layer, originals)
                elif isinstance(obj, type) and obj.__module__ == name:
                    containers.append(obj)
                    for attr, member in vars(obj).items():
                        if attr in _SKIP:
                            continue
                        func = member.__func__ if isinstance(member, (classmethod, staticmethod)) else member
                        if isinstance(func, types.FunctionType):
                            self._adopt(func, layer, originals)
        for container in containers:
            for attr, member in list(vars(container).items()):
                if attr in _SKIP:
                    continue
                kind = type(member) if isinstance(member, (classmethod, staticmethod)) else None
                func = member.__func__ if kind else member
                hit = originals.get(id(func))
                if hit is None or hit[0] is not func:
                    continue
                setattr(container, attr, kind(hit[1]) if kind else hit[1])
                self._restore.append((container, attr, member))
        self._started = self.clock()
        return len(self._restore)

    def uninstall(self):
        self.wall_ns += self.clock() - self._started
        for container, attr, member in reversed(self._restore):
            setattr(container, attr, member)
        self._restore.clear()

    def _adopt(self, func, layer: str, originals: dict):
        if id(func) not in originals:
            originals[id(func)] = (func, self._wrap(func, layer))

    def _wrap(self, fn, layer: str):
        key = f"{layer}.{fn.__qualname__}"
        stem = NAMED.get(key)
        fstat = self.functions.setdefault(key, [0])
        lstat = self.layers.setdefault(layer, [0, 0])
        gstat = self.groups.setdefault(stem, [0, 0, 0]) if stem else None
        hook = self._count_compose if key == "supermod.ParityMap.compose" else None
        stack, clock, tracer = self.stack, self.clock, self

        def counted(*args, **kwargs):
            """Opens a span only when the call enters this layer."""
            fstat[0] += 1
            if stack and stack[-1][0] is lstat:
                return fn(*args, **kwargs)
            lstat[1] += 1
            frame = [lstat, 0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                lstat[0] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur

        def named(*args, **kwargs):
            """Always opens a span, and feeds the function's own metrics."""
            fstat[0] += 1
            if not (stack and stack[-1][0] is lstat):
                lstat[1] += 1
            t0 = clock()
            hooked = 0
            if hook is not None:
                hook(*args)
                hooked = clock() - t0
                tracer.hook_ns += hooked
            frame = [lstat, hooked]
            stack.append(frame)
            gstat[2] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                gstat[2] -= 1
                own = dur - frame[1]
                lstat[0] += own
                gstat[1] += own
                if gstat[2] == 0:
                    gstat[0] += dur - hooked
                if stack:
                    stack[-1][1] += dur

        return functools.wraps(fn)(counted if gstat is None else named)

    def _count_compose(self, left, right):
        slots, pairs, products = compose_counts(left, right)
        self.compose[0] += slots
        self.compose[1] += pairs
        self.compose[2] += products

    # -- reading ---------------------------------------------------------------

    def calls(self, key: str) -> int:
        """Calls of one function, by ``layer.qualname``, over all its aliases."""
        return self.functions.get(key, [0])[0]

    def group_s(self, stem: str) -> float:
        return self.groups.get(stem, [0])[0] / 1e9

    def group_self_s(self, stem: str) -> float:
        return self.groups.get(stem, [0, 0])[1] / 1e9

    def layer_self_s(self, layer: str) -> float:
        return self.layers.get(layer, [0])[0] / 1e9

    def layer_entries(self, layer: str) -> int:
        return self.layers.get(layer, [0, 0])[1]

    def accounting_error(self, measured_ns: int) -> float:
        """How far the spans miss the traced wall time, as a share of it.

        ``measured_ns`` is the time of the traced operations as the caller
        clocked them around each call into the program; the rest of the wall
        time is unattributed.  Layer self times plus hook time plus the
        unattributed time should add up to the wall time.
        """
        if not self.wall_ns:
            return 0.0
        unattributed = self.wall_ns - measured_ns
        total = sum(s[0] for s in self.layers.values()) + self.hook_ns + unattributed
        return abs(total - self.wall_ns) / self.wall_ns
