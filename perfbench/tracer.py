"""Per-layer tracer for the hsagg benchmark.

Wraps every public module-level function of the given hsagg modules from the
outside and aggregates, per function, the call count and the self time (span
duration minus the time its child spans cover). Several modules bind helpers
by name (`protocol` binds `mat_add`/`mat_vec`, `scheme` binds `hstack`,
`linalg` binds `f_inv`, ...), so the wrapper replaces the function under every
name it is bound to, in every module; otherwise those calls would go
uncounted. Nothing inside the program changes.
"""

from __future__ import annotations

import contextlib
import hashlib
import inspect
import time

import numpy as np


class Stat:
    __slots__ = ("calls", "ok", "self_s", "total_s", "depth")

    def __init__(self):
        self.calls = 0
        self.ok = 0  # calls that returned instead of raising
        self.self_s = 0.0
        self.total_s = 0.0  # inclusive time of outermost calls only
        self.depth = 0


class Tracer:
    def __init__(self, modules):
        self.modules = modules
        self.stats: dict[str, Stat] = {}
        self.rank_cells = 0
        self.rank_contents: set[bytes] = set()
        self.mask_states = 0
        self.active = True
        self._children = []  # per open span: time covered by its child spans
        self._saved = []
        self._hooks = {"linalg.rank": self._on_rank, "audit.mask_distribution": self._on_mask}

    def install(self):
        wrappers = {}
        for mod in self.modules:
            for name, obj in list(vars(mod).items()):
                if (
                    name.startswith("_")
                    or not inspect.isfunction(obj)
                    or not obj.__module__.startswith("hsagg.")
                ):
                    continue
                if obj not in wrappers:
                    wrappers[obj] = self._wrap(obj)
                self._saved.append((mod, name, obj))
                setattr(mod, name, wrappers[obj])

    def uninstall(self):
        for mod, name, obj in reversed(self._saved):
            setattr(mod, name, obj)
        self._saved.clear()

    @contextlib.contextmanager
    def paused(self):
        """Run the benchmark's own output checks without recording them."""
        self.active = False
        try:
            yield
        finally:
            self.active = True

    def stat(self, name: str) -> Stat:
        return self.stats.get(name) or Stat()

    def module_self_s(self, module: str) -> float:
        return sum(st.self_s for n, st in self.stats.items() if n.split(".")[0] == module)

    def _wrap(self, fn):
        name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
        st = self.stats.setdefault(name, Stat())
        hook = self._hooks.get(name)
        children = self._children

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            st.depth += 1
            children.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                st.depth -= 1
                st.calls += 1
                st.self_s += dt - children.pop()
                if st.depth == 0:
                    st.total_s += dt
                if children:
                    children[-1] += dt
            st.ok += 1
            if hook is not None:
                t1 = time.perf_counter()
                hook(args, result)
                if children:
                    # The hook's cost is tracing overhead, not the caller's self time.
                    children[-1] += time.perf_counter() - t1
            return result

        return traced

    def _on_rank(self, args, result):
        m = args[0]
        self.rank_cells += m.rows * m.cols
        digest = hashlib.blake2b(digest_size=16)
        digest.update(f"{m.field.modulus}:{m.rows}x{m.cols}".encode())
        digest.update(np.ascontiguousarray(m.array, dtype=np.uint64).tobytes())
        self.rank_contents.add(digest.digest())

    def _on_mask(self, args, result):
        self.mask_states += result[0]
