"""Outside-in call tracer for the symtotient layers.

Every public function of a layer module is wrapped once, and the wrapper
is installed on every module attribute that refers to the function: its
home module, each consumer module that bound it with ``from .x import f``
(``totient.factorize``, ``symfield.is_prime``, ...), the package
re-exports, and function references held in module-level tuples and dicts
(``verify.MANIFEST``).  Modules resolve such names at call time, so no
call made through the library's own modules escapes.  Calls between
private helpers are charged to the public function that made them.

A span is (name, start, end, parent, operation id).  Spans live in flat
arrays while the workload runs and are summarised, or written out, only
after it ends.  Self time is a span's duration minus the durations of its
direct children; calls are strictly nested, so children never overlap.
"""

import importlib
import time
import types
from array import array

# Home modules whose public functions are traced, in dependency order.
LAYERS = ("arith", "budget", "symfield", "_kernels", "totient", "congruence", "verify", "cli")

KERNELS = ("count_sym_zeros", "count_sym_units", "lincong_histogram", "quadform_histogram")


def layer_label(module: str) -> str:
    """Metric prefix of a layer: the module name without its leading underscore."""
    return module.lstrip("_")


def _kernel_tuples(args, kwargs, result):
    # computed, not counted: every kernel walks the whole space Z_m^k
    m = args[0] if args else kwargs["m" if "m" in kwargs else "p"]
    k = args[1] if len(args) > 1 else kwargs["k"]
    return float(m**k)


# Per-span "work" number recorded from a call's arguments and result.
ANNOTATORS = {
    **{f"kernels.{name}": _kernel_tuples for name in KERNELS},
    "arith.factorize": lambda args, kwargs, result: float(len(result)),
    "symfield.count_zeros_closed": lambda args, kwargs, result: float(result is not None),
}


def _cell_checks(args, kwargs, result):
    return float(result.passed)


class Tracer:
    """Records a span for every call into a traced function while installed."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op_id = array("i")
        self.work = array("d")
        self.refused = array("b")
        self.op = -1  # set by the workload runner before each operation
        self._stack = [-1]
        self._undo: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer is already installed")
        pkg = importlib.import_module("symtotient")
        mods = [importlib.import_module(f"symtotient.{m}") for m in LAYERS]
        from symtotient.budget import BudgetExceededError

        wrappers = {}
        for mod in mods:
            label = layer_label(mod.__name__.rsplit(".", 1)[1])
            for attr, val in vars(mod).items():
                if (
                    isinstance(val, types.FunctionType)
                    and val.__module__ == mod.__name__
                    and not attr.startswith("_")
                ):
                    name = f"{label}.{attr}"
                    annotate = ANNOTATORS.get(name)
                    if label == "verify" and attr.startswith("cell_"):
                        annotate = _cell_checks
                    wrappers[val] = self._wrap(val, name, annotate, BudgetExceededError)
        for mod in [pkg, *mods]:
            for attr, val in list(vars(mod).items()):
                new = _swap(val, wrappers)
                if new is not val:
                    self._undo.append((mod, attr, val))
                    setattr(mod, attr, new)

    def uninstall(self) -> None:
        for mod, attr, val in reversed(self._undo):
            setattr(mod, attr, val)
        self._undo.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def _wrap(self, fn, name, annotate, refusal):
        nid = self._name_ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        names, parents, ops = self.name_id, self.parent, self.op_id
        starts, ends, work, refused = self.start, self.end, self.work, self.refused
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            ops.append(tracer.op)
            work.append(0.0)
            refused.append(0)
            stack.append(idx)
            t0 = clock()
            starts.append(t0)
            ends.append(t0)
            try:
                result = fn(*args, **kwargs)
            except refusal:
                refused[idx] = 1
                raise
            finally:
                ends[idx] = clock()
                stack.pop()
            if annotate is not None:
                work[idx] = annotate(args, kwargs, result)
            return result

        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        wrapper.__doc__ = fn.__doc__
        wrapper.__wrapped__ = fn
        return wrapper

    # -- results ------------------------------------------------------------

    def summary(self) -> dict[str, dict[str, float]]:
        """Per traced function: calls, inclusive seconds, self seconds, summed
        work and refusals.  Functions never called are absent."""
        n = len(self.name_id)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out: dict[str, dict[str, float]] = {}
        for i in range(n):
            rec = out.setdefault(
                self.names[self.name_id[i]],
                {"calls": 0, "s": 0.0, "self_s": 0.0, "work": 0.0, "refusals": 0},
            )
            dur = self.end[i] - self.start[i]
            rec["calls"] += 1
            rec["s"] += dur
            rec["self_s"] += dur - child[i]
            rec["work"] += self.work[i]
            rec["refusals"] += self.refused[i]
        return out

    def child_counts(self, parent_name: str) -> dict[str, dict[str, float]]:
        """Calls and summed work of the direct children of every span named
        parent_name, keyed by the child's name."""
        pid = self._name_ids.get(parent_name)
        out: dict[str, dict[str, float]] = {}
        if pid is None:
            return out
        for i in range(len(self.name_id)):
            p = self.parent[i]
            if p >= 0 and self.name_id[p] == pid:
                rec = out.setdefault(self.names[self.name_id[i]], {"calls": 0, "work": 0.0})
                rec["calls"] += 1
                rec["work"] += self.work[i]
        return out

    def write(self, path) -> None:
        """Write every span, columnwise, as a compressed numpy archive."""
        import numpy as np

        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            op=np.frombuffer(self.op_id, dtype=np.int32),
            work=np.frombuffer(self.work, dtype=np.float64),
        )


def _swap(val, wrappers):
    """val with every traced function in it replaced by its wrapper; val
    itself when it holds none (tuples, lists and dicts are searched)."""
    if isinstance(val, types.FunctionType):
        return wrappers.get(val, val)
    if isinstance(val, (tuple, list)):
        items = [_swap(v, wrappers) for v in val]
        if any(a is not b for a, b in zip(items, val)):
            return type(val)(items)
        return val
    if isinstance(val, dict):
        items = {key: _swap(v, wrappers) for key, v in val.items()}
        if any(items[key] is not v for key, v in val.items()):
            return items
        return val
    return val
