"""In-memory span tracer that wraps functions from outside the program.

A span records its name, start, end, parent span and task id.  Spans are
kept in flat arrays while a run is going (the 460,819 spans of one decay
task take about 16 MB) and are analysed when the run ends.  Wrapping is reversible: `Tracer.off()` restores every patched slot
to the original object, so untraced tasks in a traced run execute the
unmodified code.
"""

from __future__ import annotations

import functools
import sys
from array import array
from time import perf_counter_ns

import numpy as np

FFT_FUNCTIONS = ("fft", "ifft", "rfft", "irfft", "hfft", "ihfft",
                 "fft2", "ifft2", "rfft2", "irfft2", "hfft2", "ihfft2",
                 "fftn", "ifftn", "rfftn", "irfftn", "hfftn", "ihfftn")


class Tracer:
    """Collects spans from wrapped callables; one instance per process."""

    def __init__(self):
        self.names = []                 # span-name id -> name
        self._name_ids = {}
        self._slots = []                # (owner, attr, original, wrapper)
        self._stack = []
        self.task = -1
        self.fft_points = 0             # points transformed in the current task
        self.clear()

    # -- span storage ---------------------------------------------------

    def clear(self):
        self.name = array("H")
        self.task_of = array("q")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")

    def _name_id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def begin(self, name_id):
        idx = len(self.start)
        self.name.append(name_id)
        self.task_of.append(self.task)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(perf_counter_ns())
        return idx

    def finish(self, idx):
        self.end[idx] = perf_counter_ns()
        self._stack.pop()

    def start_task(self, task):
        """Switch tracing on and open the root span of one task."""
        self.task = task
        self.fft_points = 0
        self.on()
        return self.begin(self._name_id("task"))

    def stop_task(self, root):
        self.finish(root)
        self.off()
        self.task = -1

    def spans(self):
        """Spans as numpy arrays, with each span's self time in ns."""
        name = np.frombuffer(self.name, dtype=np.uint16).astype(np.int64)
        parent = np.frombuffer(self.parent, dtype=np.int64).copy()
        start = np.frombuffer(self.start, dtype=np.int64).copy()
        end = np.frombuffer(self.end, dtype=np.int64).copy()
        dur = end - start
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        return {"name": name, "task": np.frombuffer(self.task_of, dtype=np.int64).copy(),
                "parent": parent, "start": start, "end": end, "dur": dur,
                "self": dur - child}

    # -- wrapping ---------------------------------------------------------

    def _span_wrapper(self, fn, name):
        nid = self._name_id(name)

        def traced(*args, **kwargs):
            idx = self.begin(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                self.finish(idx)

        return functools.wraps(fn)(traced)

    def _fft_wrapper(self, fn, name):
        nid = self._name_id(name)

        def counted(a, *args, **kwargs):
            idx = self.begin(nid)
            try:
                out = fn(a, *args, **kwargs)
            finally:
                self.finish(idx)
            self.fft_points += max(np.size(a), np.size(out))
            return out

        return functools.wraps(fn)(counted)

    def _patch(self, owner, attr, original, wrapper):
        self._slots.append((owner, attr, original, wrapper))
        setattr(owner, attr, wrapper)

    def install_fft_counters(self, modules):
        """Count every 1-D, 2-D and n-D FFT of the given modules (for example
        `numpy.fft` and `scipy.fft`).  Call before the program is imported,
        so that names it binds at import time are bound to the counters."""
        for mod in modules:
            prefix = mod.__name__
            for fname in FFT_FUNCTIONS:
                fn = getattr(mod, fname, None)
                if fn is not None:
                    self._patch(mod, fname,
                                fn, self._fft_wrapper(fn, f"{prefix}.{fname}"))

    def wrap(self, package, targets):
        """Wrap layer callables of an imported package.

        targets: (span name, module, qualified attribute) triples, where the
        attribute is a module-level function or `Class.method`.  A function
        is replaced in every module of the package that binds the same
        object, so a `from .x import f` copy is traced too.  Module slots
        that hold an FFT counter are recorded so `off()` restores them.
        """
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == package or n.startswith(package + "."))]
        for span, modname, qual in targets:
            mod = sys.modules[modname]
            if "." in qual:
                cls_name, meth = qual.split(".")
                cls = getattr(mod, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    wrapper = classmethod(self._span_wrapper(raw.__func__, span))
                else:
                    wrapper = self._span_wrapper(raw, span)
                self._patch(cls, meth, raw, wrapper)
                continue
            fn = getattr(mod, qual)
            wrapper = self._span_wrapper(fn, span)
            for m in modules:
                for attr, val in list(vars(m).items()):
                    if val is fn:
                        self._patch(m, attr, fn, wrapper)
        # names the package bound to an FFT counter at import time
        patched = {(id(owner), attr) for owner, attr, _, _ in self._slots}
        originals = {id(w): orig for _, _, orig, w in self._slots}
        for m in modules:
            for attr, val in list(vars(m).items()):
                if id(val) in originals and (id(m), attr) not in patched:
                    self._slots.append((m, attr, originals[id(val)], val))

    def on(self):
        for owner, attr, _, wrapper in self._slots:
            setattr(owner, attr, wrapper)

    def off(self):
        for owner, attr, original, _ in self._slots:
            setattr(owner, attr, original)
