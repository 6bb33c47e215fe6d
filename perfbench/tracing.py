"""Tracing from outside the program.

``Tracer.install`` rebinds every public function of the qtwist modules
already imported, plus each name another module bound to it with
``from .x import y`` (patching ``exactnum.vp`` alone would miss the ``vp``
inside ``localdata`` and ``graphs``). It also wraps the two third-party
kernels where qtwist calls them: ``sympy.factorint`` (imported inside
``localdata`` functions at call time) and ``mpmath.polyroots`` (called as
``mp.polyroots`` in ``oracle``), and ``Signature.__post_init__``, which
runs the c4^3 - c6^2 = 1728 Delta check on every construction.

Each call becomes a span: name, bucket (an argument-derived label such as
the prime of ``classify``), start, end, parent span and operation id. Spans
stay in memory and are written out by ``write``. Self time is a span's
duration minus the time its child spans cover, accumulated as spans close.
"""

from __future__ import annotations

import gzip
import inspect
import sys
import time
from array import array

from workloads import delta_bucket, height_digits

# prefix of the stderr line on which a traced CLI child reports its spans
CHILD_TAG = "PERFBENCH_TRACE "

MODULES = ("exactnum", "weierstrass", "localdata", "graphs", "families", "oracle", "cli")

# span names outside the module they are listed under
KERNELS = {"localdata.factorint": ("sympy", "factorint"),
           "oracle.polyroots": ("mpmath", "polyroots")}


def _arg(args, kwargs, i, name, default=None):
    return args[i] if len(args) > i else kwargs.get(name, default)


def _bucket_squarefree(args, kwargs):
    return "d_le1e6" if abs(_arg(args, kwargs, 0, "n")) <= 10**6 else "d_gt1e6"


def _bucket_classify(args, kwargs):
    p = _arg(args, kwargs, 1, "p")
    return "p2" if p == 2 else "p3" if p == 3 else "p5plus"


def _bucket_global_minimal(args, kwargs):
    return delta_bucket(height_digits(_arg(args, kwargs, 0, "s").delta))


def _bucket_lattice(args, kwargs):
    return f"bits{_arg(args, kwargs, 1, 'precision_bits', 128)}"


BUCKETS = {
    "exactnum.is_squarefree": _bucket_squarefree,
    "localdata.classify": _bucket_classify,
    "localdata.global_minimal": _bucket_global_minimal,
    "oracle.lattice_volume": _bucket_lattice,
}

# (span name, required parent) -> ratio counter fed with "result != 1"
RATIOS = {
    "localdata.classify": ("localdata.global_minimal", lambda r: r.u_p != 1,
                           "localdata.global_minimal.nontrivial_ratio"),
    "localdata.pal_u": ("localdata.global_pal", lambda r: r != 1,
                        "localdata.global_pal.nontrivial_ratio"),
}


class Tracer:
    def __init__(self):
        self.names: list = []
        self._name_idx: dict = {}
        # one entry per closed span, in closing order
        self.span_id = array("q")
        self.span_name = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("q")
        self.span_op = array("q")
        self.stack: list = []  # frames: [child_time, span_id, name]
        self.next_id = 0
        self.op_id = -1
        self.enabled = True
        self.calls: dict = {}
        self.self_s: dict = {}
        self.ratios: dict = {}
        self._undo: list = []

    # -- recording -------------------------------------------------------

    def _key(self, name: str, bucket) -> int:
        key = name if bucket is None else f"{name}[{bucket}]"
        idx = self._name_idx.get(key)
        if idx is None:
            idx = self._name_idx[key] = len(self.names)
            self.names.append(key)
        return idx

    def wrap(self, name: str, fn):
        bucket_of = BUCKETS.get(name)
        ratio = RATIOS.get(name)
        stack = self.stack
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            bucket = bucket_of(args, kwargs) if bucket_of else None
            parent = stack[-1] if stack else None
            sid = tracer.next_id
            tracer.next_id += 1
            frame = [0.0, sid, name]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                if parent is not None:
                    parent[0] += dur
                key = tracer._key(name, bucket)
                tracer.calls[key] = tracer.calls.get(key, 0) + 1
                tracer.self_s[key] = tracer.self_s.get(key, 0.0) + dur - frame[0]
                tracer.span_id.append(sid)
                tracer.span_name.append(key)
                tracer.span_start.append(start)
                tracer.span_end.append(end)
                tracer.span_parent.append(parent[1] if parent is not None else -1)
                tracer.span_op.append(tracer.op_id)
            if ratio is not None and parent is not None and parent[2] == ratio[0]:
                hit, total = tracer.ratios.get(ratio[2], (0, 0))
                tracer.ratios[ratio[2]] = (hit + bool(ratio[1](result)), total + 1)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- installing ------------------------------------------------------

    def _rebind(self, obj, attr, new):
        self._undo.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, new)

    def install(self) -> None:
        mods = {m: sys.modules[f"qtwist.{m}"] for m in MODULES if f"qtwist.{m}" in sys.modules}
        holders = [m for name, m in sys.modules.items() if name == "qtwist" or name.startswith("qtwist.")]
        for short, mod in mods.items():
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                wrapper = self.wrap(f"{short}.{attr}", fn)
                for holder in holders:
                    for name, value in list(vars(holder).items()):
                        if value is fn:
                            self._rebind(holder, name, wrapper)
        weier = mods.get("weierstrass")
        if weier is not None:
            cls = weier.Signature
            self._rebind(cls, "__post_init__", self.wrap("weierstrass.Signature", cls.__post_init__))
        for name, (modname, attr) in KERNELS.items():
            mod = sys.modules.get(modname)
            if mod is not None:
                self._rebind(mod, attr, self.wrap(name, getattr(mod, attr)))

    def uninstall(self) -> None:
        while self._undo:
            obj, attr, old = self._undo.pop()
            setattr(obj, attr, old)

    # -- results ---------------------------------------------------------

    def aggregate(self) -> dict:
        """{"calls": {key: n}, "self_s": {key: s}, "ratios": {name: [hit, total]}}."""
        return {"calls": {self.names[k]: v for k, v in self.calls.items()},
                "self_s": {self.names[k]: v for k, v in self.self_s.items()},
                "ratios": {k: list(v) for k, v in self.ratios.items()}}

    def spans(self) -> list:
        """Closed spans as [id, name, start, end, parent] lists."""
        return [[i, self.names[n], s, e, p] for i, n, s, e, p in
                zip(self.span_id, self.span_name, self.span_start, self.span_end, self.span_parent)]

    def add_spans(self, spans, op_id: int) -> None:
        """Append spans recorded by another process (perf_counter is the
        system-wide monotonic clock on Linux, so times stay comparable)."""
        base = self.next_id
        for sid, name, start, end, parent in spans:
            self.span_id.append(base + sid)
            self.span_name.append(self._key(name, None))
            self.span_start.append(start)
            self.span_end.append(end)
            self.span_parent.append(base + parent if parent >= 0 else -1)
            self.span_op.append(op_id)
            self.next_id = max(self.next_id, base + sid + 1)

    def write(self, path) -> None:
        """Spans as CSV lines: id,name,start,end,parent,op (times in s)."""
        with gzip.open(path, "wt", compresslevel=1) as f:
            f.write("id,name,start,end,parent,op\n")
            names = self.names
            for row in zip(self.span_id, self.span_name, self.span_start, self.span_end,
                           self.span_parent, self.span_op):
                f.write(f"{row[0]},{names[row[1]]},{row[2]:.9f},{row[3]:.9f},{row[4]},{row[5]}\n")


def merge(into: dict, part: dict) -> None:
    """Add one aggregate (as returned by Tracer.aggregate) into another."""
    for field in ("calls", "self_s"):
        dst = into.setdefault(field, {})
        for k, v in part.get(field, {}).items():
            dst[k] = dst.get(k, 0) + v
    dst = into.setdefault("ratios", {})
    for k, (hit, total) in part.get("ratios", {}).items():
        h0, t0 = dst.get(k, (0, 0))
        dst[k] = [h0 + hit, t0 + total]
