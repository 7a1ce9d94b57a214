"""Call tracer that wraps prplab functions from outside the package.

Each wrapped function gets a call count, an inclusive time and a self
time (its duration minus the durations of wrapped calls nested inside it
on the same thread). Durations are CPU seconds of the calling thread
(time.thread_time), so a thread waiting for the GIL, or for other threads,
accrues none, and the self times of all threads add up to at most the
process's CPU time. The hot functions run millions of times a pass, so
the tracer aggregates per function instead of keeping spans. Every thread
has its own counters and nesting stack; `snapshot` merges them. It also
counts (caller, callee) pairs of wrapped functions, which gives ratios
such as exact-equality fallbacks per visited-set insertion.

A name bound with `from .x import y` is a separate reference in each
importing module, so a module-level function is patched in every prplab
module that holds the same object. `restore` puts every original back.
"""

from __future__ import annotations

import functools
import sys
import threading
import time

# Fields of a per-function record.
CALLS, TOTAL, SELF, TRUE = range(4)


class _ThreadState:
    __slots__ = ("stack", "stats", "edges")

    def __init__(self) -> None:
        self.stack: list[list] = []  # frames: [child seconds, key]
        self.stats: dict[str, list] = {}
        self.edges: dict[tuple[str, str], int] = {}


class Tracer:
    def __init__(self) -> None:
        self._tls = threading.local()
        self._lock = threading.Lock()
        self._states: list[_ThreadState] = []
        self._patched: list[tuple[object, str, object]] = []  # (owner, attribute, original)
        self.instances: list[object] = []

    def _new_state(self) -> _ThreadState:
        state = _ThreadState()
        self._tls.state = state
        with self._lock:
            self._states.append(state)
        return state

    def _wrap(self, key: str, fn, count_true: bool):
        tls = self._tls
        new_state = self._new_state
        clock = time.thread_time

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            try:
                state = tls.state
            except AttributeError:
                state = new_state()
            stack = state.stack
            parent = stack[-1] if stack else None
            frame = [0.0, key]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                rec = state.stats.get(key)
                if rec is None:
                    rec = state.stats[key] = [0, 0.0, 0.0, 0]
                rec[CALLS] += 1
                rec[TOTAL] += dur
                rec[SELF] += dur - frame[0]
                if parent is not None:
                    parent[0] += dur
                    edge = (parent[1], key)
                    state.edges[edge] = state.edges.get(edge, 0) + 1
            if count_true and result:
                rec[TRUE] += 1
            return result

        return traced

    def _set(self, owner, attr: str, value) -> None:
        self._patched.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def patch_function(self, key: str, module, name: str, package: str) -> None:
        """Wrap a module-level function in every module of the package bound to it."""
        original = vars(module)[name]
        wrapper = self._wrap(key, original, False)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == package or mod_name.startswith(package + ".")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, wrapper)

    def patch_method(self, key: str, cls: type, name: str, count_true: bool = False) -> None:
        """Wrap a method defined in the class body; count_true also counts truthy results."""
        self._set(cls, name, self._wrap(key, vars(cls)[name], count_true))

    def watch_instances(self, cls: type) -> None:
        """Keep each new instance of cls in `instances` until the caller clears it."""
        original = vars(cls)["__init__"]
        instances = self.instances

        @functools.wraps(original)
        def init(obj, *args, **kwargs):
            original(obj, *args, **kwargs)
            instances.append(obj)

        self._set(cls, "__init__", init)

    def restore(self) -> list[str]:
        """Put every original back; returns the attributes that did not come back."""
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        bad = [
            f"{getattr(owner, '__name__', owner)}.{attr}"
            for owner, attr, original in self._patched
            if vars(owner).get(attr) is not original
        ]
        self._patched.clear()
        return bad

    @property
    def patched(self) -> list[tuple[object, str, object]]:
        return list(self._patched)

    def snapshot(self) -> dict:
        """Merged counters of every thread seen so far.

        Call it while no traced call is running on another thread.
        """
        stats: dict[str, list] = {}
        edges: dict[str, int] = {}
        thread_self: list[float] = []
        with self._lock:
            states = list(self._states)
        for state in states:
            for key, rec in state.stats.items():
                acc = stats.setdefault(key, [0, 0.0, 0.0, 0])
                for i, v in enumerate(rec):
                    acc[i] += v
            for (parent, child), n in state.edges.items():
                name = f"{parent}>{child}"
                edges[name] = edges.get(name, 0) + n
            thread_self.append(sum(rec[SELF] for rec in state.stats.values()))
        return {"stats": stats, "edges": edges, "thread_self": thread_self}
