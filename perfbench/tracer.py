"""Span tracer for one eisenzeta CLI run, installed from outside the package.

The tracer wraps the public functions that the eisenzeta modules call in
one another (plus a few hot internal entry points) and records, per call:
its name, start, end and parent span.  Nothing under ``src/`` is edited:
``install`` rebinds each function in its defining module and in every
``eisenzeta`` module that imported it by name, and ``uninstall`` puts the
original objects back.

Functions called once per cell or more than about 10^5 times per run are
*aggregated*: they keep a call count and total/self time but no per-call
span record.  Every call below an aggregated frame is aggregated too, so
every recorded span's parent is itself a recorded span.

Self time of a frame is its duration minus the time covered by its child
frames; a module's self time is the sum over its frames.  Summed over all
modules this equals the time covered by root frames, so
``sum(module self) + unattributed == wall`` for the wall interval the
caller measures.
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import defaultdict

CLOCK = time.monotonic

# (module, qualified name, aggregated) -- the layer boundaries that are timed.
WRAPS = [
    ("exact", "coset_reps", False),
    ("exact", "lattice_hnf", True),
    ("exact", "hnf", True),
    ("exact", "snf", True),
    ("exact", "resultant_norm", False),
    ("exact", "MultiPoly.compose_matrix", False),
    ("exact", "MultiPoly.__pow__", False),
    ("cyclotomic", "CycloElement.inverse", False),
    ("bernoulli", "B_e_Q", True),
    ("bernoulli", "B_e_Q_plus", True),
    ("dedekind", "d_ell", False),
    ("dedekind", "b_L_z_direct", False),
    ("dedekind", "b1_L_z_fast", True),
    ("dedekind", "DedekindCache.key", True),
    ("dedekind", "DedekindCache.get", True),
    ("dedekind", "DedekindCache.put", True),
    ("dedekind", "DedekindCache.load", False),
    ("dedekind", "DedekindCache.save", False),
    ("cocycle", "symmetrized_chain", False),
    ("cocycle", "psi_ell_chain", False),
    ("cocycle", "psi_ell", False),
    ("cocycle", "pr_coefficients", False),
    ("numberfield", "NumberField.__init__", False),
    ("numberfield", "NumberField.sign_at", True),
    ("numberfield", "NumberField.refine_root", True),
    ("numberfield", "Ideal.from_generators", False),
    ("numberfield", "Ideal.from_columns", False),
    ("numberfield", "Ideal.inverse", False),
    ("numberfield", "prime_over", False),
    ("numberfield", "adapted_basis", False),
    ("numberfield", "unit_basis", False),
    ("numberfield", "dual_basis", False),
    ("numberfield", "embedding_matrix_det_sign", False),
    ("numberfield", "regulator_det_sign", False),
    ("zeta", "build_zeta_data", False),
    ("zeta", "norm_form", False),
    ("zeta", "zeta_minus_k", False),
    ("zeta", "zeta_star_minus_k", False),
    ("zeta", "EmbeddedForms.sign_matrix", True),
    ("padic", "MeasureHandle.__init__", False),
    ("padic", "MeasureHandle.cell_numerators", False),
    ("padic", "region_units", False),
    ("padic", "region_oov", False),
    ("padic", "integrate_cells", False),
    ("padic", "padic_zeta", False),
    ("padic", "oov_integrals", False),
    ("padic", "agreement_precision", True),
    ("padic", "PadicInt.from_fraction", True),
    ("cli", "main", False),
    ("cli", "load_config", False),
    ("cli", "build_common", False),
    ("cli", "cmd_zeta", False),
    ("cli", "cmd_padic_zeta", False),
    ("cli", "cmd_oov", False),
]

MODULES = ("exact", "cyclotomic", "bernoulli", "dedekind", "cocycle",
           "numberfield", "zeta", "padic", "cli")

INTEGRAND = "padic.integrand"


class Frame:
    __slots__ = ("name", "module", "agg", "parent", "child", "span_id",
                 "chains")

    def __init__(self, name, module, agg, parent, span_id):
        self.name = name
        self.module = module
        self.agg = agg
        self.parent = parent
        self.span_id = span_id
        self.child = 0.0
        self.chains = 0  # psi_ell_chain calls made directly from this frame


class Tracer:
    """In-memory span recorder; ``call`` is the single entry point."""

    def __init__(self, clock=CLOCK):
        self.clock = clock
        self.stack: list[Frame] = []
        self.spans: list[tuple] = []  # (id, name, start, end, parent id)
        self.stats: dict[str, list] = {}  # name -> [calls, total, self, depth]
        self.module_self: dict[str, float] = defaultdict(float)
        self.counters: dict[str, float] = defaultdict(int)
        self.root_total = 0.0
        self._next_id = 0

    def call(self, name, module, aggregate, fn, args, kwargs, after=None):
        parent = self.stack[-1] if self.stack else None
        agg = aggregate or (parent is not None and parent.agg)
        span_id = -1
        if not agg:
            span_id = self._next_id
            self._next_id += 1
        frame = Frame(name, module, agg, parent, span_id)
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = [0, 0.0, 0.0, 0]
        st[3] += 1
        self.stack.append(frame)
        start = self.clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = self.clock()
            self.stack.pop()
            dur = end - start
            own = dur - frame.child
            st[0] += 1
            st[2] += own
            st[3] -= 1
            if st[3] == 0:  # count a recursive call's time once
                st[1] += dur
            self.module_self[module] += own
            if parent is not None:
                parent.child += dur
            else:
                self.root_total += dur
            if not agg:
                self.spans.append((span_id, name, start, end,
                                   parent.span_id if parent else -1))
        if after is not None:
            after(self, frame, args, kwargs, result, dur)
        return result

    def export(self) -> dict:
        return {
            "stats": {k: v[:3] for k, v in self.stats.items()},
            "module_self": dict(self.module_self),
            "counters": dict(self.counters),
            "root_total": self.root_total,
            "spans": self.spans,
        }


# --- hooks: work counts measured where the work happens --------------------

def _after_coset_reps(tr, frame, args, kwargs, result, dur):
    tr.counters["exact.cosets"] += len(result)


def _after_direct(tr, frame, args, kwargs, result, dur):
    e, L = args[0], args[1]
    tr.counters["dedekind.levelset_points"] += L.ell ** (len(e) - 1)


def _after_fast(tr, frame, args, kwargs, result, dur):
    parent = frame.parent
    if parent is not None and parent.name == "padic.integrate_cells":
        tr.counters["padic.fallback_cells"] += 1


def _after_cache_get(tr, frame, args, kwargs, result, dur):
    key = "dedekind.cache_misses" if result is None else "dedekind.cache_hits"
    tr.counters[key] += 1


def _after_cache_save(tr, frame, args, kwargs, result, dur):
    tr.counters["dedekind.cache_entries"] += len(args[0].data)


def _after_d_ell(tr, frame, args, kwargs, result, dur):
    if frame.parent is not None and frame.parent.name == "cocycle.psi_ell":
        tr.counters["cocycle.d_ell_terms"] += 1


def _after_chain(tr, frame, args, kwargs, result, dur):
    tr.counters[f"cocycle.psi_ell_chain_s.deg{args[1].P.degree()}"] += dur
    parent = frame.parent
    if parent is not None and parent.name == "zeta.zeta_minus_k":
        # zeta_minus_k evaluates the chain once; later evaluations are checks
        parent.chains += 1
        if parent.chains > 1:
            tr.counters["zeta.crosscheck_s"] += dur


def _after_kernel(tr, frame, args, kwargs, result, dur):
    maps = len(result.maps)
    tr.counters["padic.kernel_maps"] = max(tr.counters["padic.kernel_maps"],
                                           maps)


def _after_region(tr, frame, args, kwargs, result, dur):
    tr.counters["padic.region_cells"] += result.cell_count()


def _after_oov(tr, frame, args, kwargs, result, dur):
    tr.counters[f"padic.oov_integrals_s.level{args[3]}"] += dur


HOOKS = {
    "exact.coset_reps": _after_coset_reps,
    "dedekind.b_L_z_direct": _after_direct,
    "dedekind.b1_L_z_fast": _after_fast,
    "dedekind.DedekindCache.get": _after_cache_get,
    "dedekind.DedekindCache.save": _after_cache_save,
    "dedekind.d_ell": _after_d_ell,
    "cocycle.psi_ell_chain": _after_chain,
    "padic.MeasureHandle.cell_numerators": _after_kernel,
    "padic.region_units": _after_region,
    "padic.region_oov": _after_region,
    "padic.oov_integrals": _after_oov,
}


def _integrate_cells_wrapper(tr, fn):
    """integrate_cells: count the cells of the sweep and wrap each integrand
    (called once per region cell) in an aggregated frame."""
    sig = inspect.signature(fn)

    def wrapper(*args, **kwargs):
        bound = sig.bind(*args, **kwargs)
        h, region, M = bound.arguments["h"], bound.arguments["region"], \
            bound.arguments["M"]
        level = max(M, region.t if region is not None else 0)
        total = (h.p ** level) ** h.n
        inside = total
        if region is not None and region.t > 0:
            inside = total // (h.p ** region.t) ** h.n * len(region.mask)
        tr.counters["padic.cells_swept"] += total
        tr.counters["padic.cells_in_region"] += inside

        def wrap_integrand(f):
            return lambda *j: tr.call(INTEGRAND, "padic", True, f, j, {})

        bound.arguments["integrands"] = [
            wrap_integrand(f) for f in bound.arguments["integrands"]]
        return tr.call("padic.integrate_cells", "padic", False, fn,
                       bound.args, bound.kwargs)

    return wrapper


def _make_wrapper(tr, name, module, aggregate, fn):
    if name == "padic.integrate_cells":
        return _integrate_cells_wrapper(tr, fn)
    after = HOOKS.get(name)

    def wrapper(*args, **kwargs):
        return tr.call(name, module, aggregate, fn, args, kwargs, after)

    return wrapper


def install(tr: Tracer) -> list[tuple]:
    """Wrap every entry of WRAPS; returns the patch list for ``uninstall``.

    A module-level function is rebound in its own module and in each
    ``eisenzeta`` module holding the same object under the same name; a
    method is rebound on its class, keeping staticmethod/classmethod.
    """
    loaded = {name: mod for name, mod in sys.modules.items()
              if mod is not None and (name == "eisenzeta"
                                      or name.startswith("eisenzeta."))}
    patches = []
    for module, qual, aggregate in WRAPS:
        home = loaded[f"eisenzeta.{module}"]
        name = f"{module}.{qual}"
        if "." in qual:
            cls_name, attr = qual.split(".")
            cls = getattr(home, cls_name)
            raw = cls.__dict__[attr]
            if isinstance(raw, (staticmethod, classmethod)):
                new = type(raw)(_make_wrapper(tr, name, module, aggregate,
                                              raw.__func__))
            else:
                new = _make_wrapper(tr, name, module, aggregate, raw)
            patches.append((cls, attr, raw))
            setattr(cls, attr, new)
            continue
        fn = getattr(home, qual)
        new = _make_wrapper(tr, name, module, aggregate, fn)
        for mod in loaded.values():
            if getattr(mod, qual, None) is fn:
                patches.append((mod, qual, fn))
                setattr(mod, qual, new)
    return patches


def uninstall(patches: list[tuple]) -> bool:
    """Restore every patched binding; True when each one reads back as the
    original object."""
    for owner, attr, original in reversed(patches):
        setattr(owner, attr, original)
    ok = True
    for owner, attr, original in patches:
        current = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        ok = ok and current is original
    return ok
