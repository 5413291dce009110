"""Per-layer tracing of abmc from outside the package.

``Tracer.install`` wraps every public module-level function of each layer,
the two elimination kernels and the construction-time validation of
``Module`` and ``Morphism``, and rebinds each wrapper in every namespace that
holds the original, so ``from .linalg import _np_rref`` in ``modules`` is
traced too.  A wrapper records the call and its exclusive time: its duration
minus the duration of the wrapped calls nested directly inside it.  Summed by
layer this is the layer's time minus its nested calls into other layers.

Wrappers pass straight through while the tracer is inactive, so set-up
replays and checks between measured batches add nothing.
"""

from __future__ import annotations

import functools
import inspect
import sys
from collections import defaultdict
from time import perf_counter

LAYERS = {
    "linalg": ("abmc.linalg",),
    "modules": ("abmc.modules",),
    "homology": ("abmc.homology",),
    "cotorsion": ("abmc.cotorsion",),
    "model": ("abmc.model",),
    "chains": ("abmc.chains",),
    "catalog": ("abmc.catalog", "abmc.presets"),
}

# private callables traced under a counter name of their own
KERNELS = {
    ("abmc.linalg", "_np_rref"): "linalg.fp_elim",
    ("abmc.linalg", "_snf_full"): "linalg.z_snf",
}

# public functions that also feed a named counter
COUNTERS = {
    ("abmc.linalg", "solve_congruence"): "linalg.congruence",
    ("abmc.linalg", "congruence_kernel"): "linalg.congruence",
    ("abmc.homology", "resolution"): "homology.resolution",
    ("abmc.homology", "hom_group"): "homology.hom",
    ("abmc.homology", "ext"): "homology.ext",
    ("abmc.cotorsion", "class_member"): "cotorsion.class_member",
    ("abmc.cotorsion", "gp_test"): "cotorsion.gp_test",
    ("abmc.cotorsion", "special_precover"): "cotorsion.approx",
    ("abmc.cotorsion", "special_preenvelope"): "cotorsion.approx",
    ("abmc.model", "factorize"): "model.factorize",
    ("abmc.model", "pushout_product"): "model.pushout_product",
    ("abmc.chains", "chain_ext1"): "chains.chain_ext1",
}

# caches whose cache_info() deltas give lookups and hits
CACHES = {
    "homology.hom": ("abmc.homology", "hom_group"),
    "homology.ext": ("abmc.homology", "ext"),
    "cotorsion.gp_test": ("abmc.cotorsion", "gp_test"),
}


def _np_cells(a, p):
    return a.shape[0] * a.shape[1]


def _mat_cells(A, *args, **kwargs):
    return A.rows * A.cols


def _unknowns(C, *args, **kwargs):
    return C.cols


# counter -> size of one call: matrix cells for kernels, unknowns for systems
SIZES = {
    "linalg.fp_elim": _np_cells,
    "linalg.z_snf": _mat_cells,
    "linalg.congruence": _unknowns,
}


def _is_cached(obj) -> bool:
    return hasattr(obj, "cache_info") and hasattr(obj, "__wrapped__")


class Tracer:
    def __init__(self):
        self.active = False
        self._stack: list[list[float]] = []
        self.wrapped: dict[tuple[str, str], object] = {}
        self.reset()

    def reset(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.sizes = defaultdict(int)
        self.max_sizes = defaultdict(int)
        self._cache_base = {
            name: self._cache_info(name) for name in CACHES if CACHES[name] in self.wrapped
        }

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, fn, keys: tuple[str, ...], size=None):
        """keys: the layer first, then any counter names fed by this callable."""
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            frame = [0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                exclusive = dt - frame[0]
                for k in keys:
                    self.calls[k] += 1
                    self.self_s[k] += exclusive
                if size is not None:
                    v = size(*args, **kwargs)
                    self.sizes[keys[-1]] += v
                    if v > self.max_sizes[keys[-1]]:
                        self.max_sizes[keys[-1]] = v

        return wrapper

    def install(self):
        """Wrap and rebind; call once, after abmc is imported."""
        modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "abmc" and m]
        targets = {}
        for layer, names in LAYERS.items():
            for modname in names:
                mod = sys.modules[modname]
                for name, obj in vars(mod).items():
                    public = not name.startswith("_") and (
                        inspect.isfunction(obj) or _is_cached(obj)
                    )
                    if (modname, name) in KERNELS or (
                        public and getattr(obj, "__module__", None) == modname
                    ):
                        counter = KERNELS.get((modname, name)) or COUNTERS.get((modname, name))
                        keys = (layer,) if counter is None else (layer, counter)
                        size = SIZES.get(counter)
                        targets[id(obj)] = (obj, self._wrap(obj, keys, size))
                        self.wrapped[(modname, name)] = obj
        for mod in modules:
            for name, obj in list(vars(mod).items()):
                hit = targets.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, name, hit[1])
        mods = sys.modules["abmc.modules"]
        for cls in (mods.Module, mods.Morphism):
            cls.__post_init__ = self._wrap(cls.__post_init__, ("modules", "modules.construct"))
        self.reset()

    # -- reading ----------------------------------------------------------

    def _cache_info(self, name):
        info = self.wrapped[CACHES[name]].cache_info()
        return info.hits, info.misses

    def cache_deltas(self) -> dict[str, tuple[int, int]]:
        """name -> (lookups, hits) since the last reset."""
        out = {}
        for name, base in self._cache_base.items():
            hits, misses = self._cache_info(name)
            out[name] = (hits + misses - base[0] - base[1], hits - base[0])
        return out

    def binding_problems(self) -> list[str]:
        """A wrapped cached function is looked up exactly once per traced call;
        a difference means some namespace still calls the unwrapped cache."""
        out = []
        for name, (lookups, _) in self.cache_deltas().items():
            if lookups != self.calls[name]:
                out.append(f"{name}: {self.calls[name]} traced calls, {lookups} cache lookups")
        return out

    def snapshot(self) -> dict[str, float]:
        out = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self.self_s[layer]
            out[f"{layer}.calls"] = self.calls[layer]
        for k in ("linalg.fp_elim", "linalg.z_snf"):
            out[f"{k}.calls"] = self.calls[k]
            out[f"{k}.self_s"] = self.self_s[k]
            out[f"{k}.cells"] = self.sizes[k]
            out[f"{k}.max_cells"] = self.max_sizes[k]
        out["linalg.congruence.calls"] = self.calls["linalg.congruence"]
        out["linalg.congruence.max_unknowns"] = self.max_sizes["linalg.congruence"]
        out["modules.construct.calls"] = self.calls["modules.construct"]
        out["modules.construct.self_s"] = self.self_s["modules.construct"]
        for name, (lookups, hits) in self.cache_deltas().items():
            out[f"{name}.lookups"] = lookups
            out[f"{name}.hits"] = hits
        for k in (
            "homology.resolution",
            "cotorsion.class_member",
            "cotorsion.approx",
            "model.factorize",
            "model.pushout_product",
            "chains.chain_ext1",
        ):
            out[f"{k}.calls"] = self.calls[k]
        return out
