"""Outside-in tracing: wrappers around the program's public functions.

The wrappers are installed from the benchmark's own code, never inside the
program.  Each wrapper records one span per call and folds it into
per-function totals straight away: call count, self time (duration minus the
time its wrapped children covered), and call counts per parent function.
Some wrappers also read work counts off the return value.

A wrapper replaces the function in every roughkleene module that holds it,
because modules copy names at import (build_rs lives in rough, represent,
reports, sweeps and cli).  The package attribute roughkleene.represent is
the function, not the module, so modules are taken from sys.modules.  Hot
helpers (Tolerance.lower/upper, approximations, bits, mask_of, leq) are not
wrapped: their call overhead would swamp them.  Generator functions are not
wrapped either, since their work runs after the call returns.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from collections import Counter

PACKAGE = "roughkleene"

# (module, function or Class.method), in report order.
TARGETS = (
    ("posets", "validate_order"),
    ("posets", "Poset.from_covers"),
    ("posets", "Poset.downsets"),
    ("posets", "Lattice.from_poset"),
    ("posets", "join_irreducibles"),
    ("posets", "is_distributive"),
    ("posets", "has_two_levels"),
    ("demorgan", "validate_demorgan"),
    ("demorgan", "is_kleene"),
    ("demorgan", "compute_g"),
    ("demorgan", "neg_from_g"),
    ("demorgan", "build_kleene_from_jposet"),
    ("pseudo", "compute_pseudocomplements"),
    ("pseudo", "check_M_D_N"),
    ("pseudo", "heyting_implications"),
    ("pseudo", "skeletons"),
    ("pseudo", "prime_filters"),
    ("pseudo", "is_regular"),
    ("pseudo", "demorgan_pseudo_report"),
    ("rough", "tolerance_from_covering"),
    ("rough", "blocks_of"),
    ("rough", "is_irredundant"),
    ("rough", "induced_irredundant_covering"),
    ("rough", "formula_join_irreducibles"),
    ("rough", "join_closure_pairs"),
    ("rough", "build_rs"),
    ("rough", "build_rs_spatial"),
    ("rough", "rs_join_irreducibles"),
    ("rough", "rs_g_map"),
    ("rough", "isolated_blocks"),
    ("rough", "powerset_images"),
    ("rough", "powerset_image_report"),
    ("rough", "skeleton_isomorphism_report"),
    ("represent", "build_similarity"),
    ("represent", "build_tolerance_universe"),
    ("represent", "build_phi"),
    ("represent", "extend_iso"),
    ("represent", "represent"),
    ("reports", "check_report"),
    ("reports", "verify_report"),
    ("reports", "represent_bundle"),
    ("jsonio", "parse_poset"),
    ("jsonio", "parse_algebra"),
    ("jsonio", "parse_tolerance"),
    ("jsonio", "parse_covering"),
    ("jsonio", "dumps"),
    ("sweeps", "sweep_coverings"),
    ("sweeps", "sweep_tolerances"),
    ("sweeps", "sweep_demorgan"),
    ("sweeps", "run_enumeration"),
    ("isomorph", "canonical_key"),
    ("isomorph", "lattice_key"),
)

# Work counts read off return values; rough.powerset_yield is derived from
# the two powerset_* counts as P / 2^U over the powerset sweeps.
COUNTS = (
    "rough.rs_elements",
    "posets.table_cells",
    "represent.iso_checks",
    "sweeps.properties_checked",
)

ROOT_SPAN = "<benchmark>"


def _built_rs(tracer, name, rs):
    tracer.counts["rough.rs_elements"] += rs.n
    tol = rs.tolerance
    route = "powerset" if name == "rough.build_rs" else "spatial"
    if route == "powerset":
        tracer.counts["rough.powerset_pairs"] += rs.n
        tracer.counts["rough.powerset_subsets"] += 1 << tol.n
    ji = len(rs.ji.members) if rs.ji is not None else None
    blocks = len(rs.covering.blocks) if rs.covering is not None else None
    tracer.algebras[(tol.n, rs.n, ji, blocks, route)] += 1


def _built_lattice(tracer, name, lat):
    tracer.counts["posets.table_cells"] += lat.n * lat.n


def _extended_iso(tracer, name, result):
    tracer.counts["represent.iso_checks"] += sum(result[1].values())


def _enumerated(tracer, name, report):
    tracer.counts["sweeps.properties_checked"] += sum(
        o.checked for o in report.properties.values()
    )


HOOKS = {
    "rough.build_rs": _built_rs,
    "rough.build_rs_spatial": _built_rs,
    "posets.Lattice.from_poset": _built_lattice,
    "represent.extend_iso": _extended_iso,
    "sweeps.run_enumeration": _enumerated,
}


def metric_names():
    """Every per-layer metric name with its unit, in report order."""
    out = []
    for module, qual in TARGETS:
        out.append((f"{module}.{qual}.self_s", "s"))
        out.append((f"{module}.{qual}.calls", "count"))
    out.extend((name, "count") for name in COUNTS)
    out.append(("rough.powerset_yield", "ratio"))
    out.append(("trace.overhead_s", "s"))
    out.append(("trace.overhead_share", "ratio"))
    return out


class Tracer:
    """Per-function span totals for one process; install() activates it."""

    def __init__(self):
        self.calls = Counter()
        self.self_s = Counter()
        self.parents = Counter()      # (parent, child) -> calls
        self.counts = Counter()
        self.algebras = Counter()     # (U, P, |J|, blocks, route) -> built
        self._stack = []              # [name, seconds covered by children]

    def wrap(self, name, fn):
        stack = self._stack
        hook = HOOKS.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                self.calls[name] += 1
                self.self_s[name] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                    self.parents[(stack[-1][0], name)] += 1
                else:
                    self.parents[(ROOT_SPAN, name)] += 1
            if hook is not None:
                hook(self, name, result)
            return result

        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Wrap every target in every loaded roughkleene module."""
        importlib.import_module(PACKAGE + ".cli")  # loads every module
        modules = [m for key, m in sys.modules.items()
                   if key == PACKAGE or key.startswith(PACKAGE + ".")]
        for module, qual in TARGETS:
            mod = sys.modules[f"{PACKAGE}.{module}"]
            name = f"{module}.{qual}"
            if "." in qual:
                cls_name, attr = qual.split(".")
                cls = getattr(mod, cls_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, classmethod):
                    setattr(cls, attr, classmethod(self.wrap(name, raw.__func__)))
                else:
                    setattr(cls, attr, self.wrap(name, raw))
                continue
            original = getattr(mod, qual)
            if inspect.isgeneratorfunction(original):
                raise TypeError(f"{name} is a generator function; it cannot be timed by a wrapper")
            wrapper = self.wrap(name, original)
            for holder in modules:
                for key in [k for k, v in vars(holder).items() if v is original]:
                    setattr(holder, key, wrapper)

    def snapshot(self) -> dict:
        """JSON-ready totals of this process."""
        names = [f"{module}.{qual}" for module, qual in TARGETS]
        return {
            "self_s": {n: self.self_s[n] for n in names},
            "calls": {n: self.calls[n] for n in names},
            "counts": dict(self.counts),
            "parents": [[p, c, k] for (p, c), k in sorted(self.parents.items())],
            "algebras": [list(key) + [k] for key, k in sorted(
                self.algebras.items(), key=lambda item: repr(item[0]))],
        }
