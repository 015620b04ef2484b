"""Spans around calls into the program, recorded from outside it.

``Tracer.wrap`` replaces a module attribute by a wrapper that records a
span (name, start, end, parent span, operation id) around each call.
The program looks these functions up through their modules at call
time, so its own internal calls are traced as well.  Spans stay in
memory as flat arrays and are written to one file when the run ends.
"""

from __future__ import annotations

import time
from array import array
from typing import Callable, Dict, List, Optional

import numpy as np


class Tracer:
    def __init__(self):
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.name = array("l")
        self.op = array("l")
        self.stack: List[int] = []
        self.op_id = -1
        self._patched: list = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int) -> int:
        idx = len(self.start)
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.name.append(nid)
        self.op.append(self.op_id)
        self.stack.append(idx)
        return idx

    def close(self, idx: int, nid: Optional[int] = None) -> None:
        self.end[idx] = time.perf_counter()
        self.stack.pop()
        if nid is not None:
            self.name[idx] = nid

    def wrap(self, module, attr: str, name: str,
             classify: Optional[Callable[[object], str]] = None) -> None:
        """Trace calls of ``module.attr`` as spans called ``name``.

        A call made directly from a span of the same name (recursion) is
        not recorded again.  ``classify`` may rename the span from the
        call's result.
        """
        original = getattr(module, attr)
        nid = self.name_id(name)
        tracer = self

        def traced(*args, **kwargs):
            if tracer.stack and tracer.name[tracer.stack[-1]] == nid:
                return original(*args, **kwargs)
            idx = tracer.open(nid)
            try:
                result = original(*args, **kwargs)
            except BaseException:
                tracer.close(idx)
                raise
            tracer.close(idx, tracer.name_id(classify(result))
                         if classify else None)
            return result

        setattr(module, attr, traced)
        self._patched.append((module, attr, original))

    def unwrap(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def arrays(self) -> dict:
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        dur = end - start
        has_parent = parent >= 0
        children = np.bincount(parent[has_parent], weights=dur[has_parent],
                               minlength=len(dur))
        return {"start": start, "end": end, "parent": parent,
                "name": np.frombuffer(self.name, dtype=np.int64),
                "op": np.frombuffer(self.op, dtype=np.int64),
                "dur": dur, "self": dur - children}

    def totals(self) -> Dict[str, dict]:
        """Per span name: count, total duration and total self time (s)."""
        a = self.arrays()
        k = len(self.names)
        count = np.bincount(a["name"], minlength=k)
        dur = np.bincount(a["name"], weights=a["dur"], minlength=k)
        self_t = np.bincount(a["name"], weights=a["self"], minlength=k)
        return {n: {"count": int(count[i]), "dur": float(dur[i]),
                    "self": float(self_t[i])}
                for i, n in enumerate(self.names)}

    def child_dur(self, parent_name: str, names) -> float:
        """Total duration of spans named in ``names`` whose parent span is
        called ``parent_name``."""
        a = self.arrays()
        if parent_name not in self._ids:
            return 0.0
        pid = self._ids[parent_name]
        ids = [self._ids[n] for n in names if n in self._ids]
        has_parent = a["parent"] >= 0
        parent_name_of = np.full(len(a["dur"]), -1, dtype=np.int64)
        parent_name_of[has_parent] = a["name"][a["parent"][has_parent]]
        pick = (parent_name_of == pid) & np.isin(a["name"], ids)
        return float(a["dur"][pick].sum())

    def save(self, path: str) -> None:
        a = self.arrays()
        np.savez_compressed(path, names=np.array(self.names),
                            start=a["start"], end=a["end"],
                            parent=a["parent"], name=a["name"], op=a["op"])
