"""Layer tracing for the hopfqt benchmark, done from outside the program.

``Tracer.install()`` replaces the public functions of each hopfqt module (and
a few public methods) with wrappers that record one span per call: name,
layer, start, end, parent span and job id.  Every binding of a wrapped
function is replaced, because ``cli`` and ``qtlab`` import functions by name
and ``CycloNumber.__rmul__`` is a second binding of ``__mul__``.

Scalar operations are counted, not spanned: a dim-147 run makes millions of
``CycloNumber`` products, and a span for each would swamp the trace.
``uninstall()`` puts every original binding back.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from collections import defaultdict

LAYERS = ("exactfield", "grouptool", "bismash", "hopfcore", "qtlab", "cli")

# Public functions called once per scalar or per group element; these get no
# span (their time stays in the caller's self time).
NOT_SPANNED = {
    "exactfield": {"zeta", "cyclo_arith", "euler_phi"},
    "qtlab": {"eta"},
}

# Public methods that do a layer's work and are spanned like functions.
SPANNED_METHODS = {
    "hopfcore": {"HopfAlgebra": ("mono_tables",)},
    "qtlab": {"IdemSupport": ("certify", "conj_perms")},
}

# What a span keeps of its call's result, for the ratio and count metrics.
PROBES = {
    "enumerate_bicharacters": len,
    "qt_group_algebra_enumerate": len,
    "qt_B_enumerate": len,
    "braiding_A_search": len,
    "no_qt_B_dual": lambda rep: rep.candidates_checked,
    "conj_perms": lambda rows: (sum(r is None for r in rows), len(rows)),
    "verify_coqt": lambda rep: rep.passed,
    "mono_tables": lambda tables: tables is not None,
}

ENUMERATORS = ("qt_group_algebra_enumerate", "qt_B_enumerate")

# span record fields
NAME, LAYER, START, END, PARENT, JOB, INFO = range(7)


class Tracer:
    def __init__(self, modules):
        """``modules`` maps each layer name to its imported hopfqt module;
        the key ``"hopfqt"`` is the package, whose re-exports are patched
        too."""
        self.modules = modules
        self.spans = []
        self.stack = []
        self.job = None
        self.mul_calls = 0
        self.mul_generic = 0
        self.add_calls = 0
        self.algebra_mul_calls = 0
        self._undo = []

    # -- recording

    def _span_wrapper(self, fn, name, layer):
        probe = PROBES.get(name)
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kw):
            rec = [name, layer, clock(), 0.0, stack[-1] if stack else -1,
                   self.job, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kw)
                if probe is not None:
                    rec[INFO] = probe(out)
                return out
            finally:
                rec[END] = clock()
                stack.pop()

        return traced

    def job_span(self, job_name, fn):
        """Run one benchmark job inside a root span of layer ``bench``."""
        self.job = job_name
        return self._span_wrapper(fn, job_name, "bench")()

    # -- patching

    def _rebind(self, orig, new):
        """Point every module attribute and class attribute that holds
        ``orig`` at ``new``."""
        for mod in self.modules.values():
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, attr, new)
                    self._undo.append((mod, attr, orig))
                elif inspect.isclass(val) and val.__module__.startswith("hopfqt"):
                    for cattr, cval in list(vars(val).items()):
                        if cval is orig:
                            setattr(val, cattr, new)
                            self._undo.append((val, cattr, orig))

    def install(self):
        ef = self.modules["exactfield"]
        hc = self.modules["hopfcore"]
        for layer in LAYERS:
            mod = self.modules[layer]
            skip = NOT_SPANNED.get(layer, ())
            for name, fn in list(vars(mod).items()):
                if (name.startswith("_") or name in skip
                        or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                self._rebind(fn, self._span_wrapper(fn, name, layer))
            for cls_name, methods in SPANNED_METHODS.get(layer, {}).items():
                cls = getattr(mod, cls_name)
                for name in methods:
                    fn = vars(cls)[name]
                    self._rebind(fn, self._span_wrapper(fn, name, layer))
        self._install_counters(ef.CycloNumber, hc.AlgebraElement)
        return self

    def _install_counters(self, cyclo, algebra_element):
        mul, add, amul = cyclo.__mul__, cyclo.__add__, algebra_element.__mul__

        def monomial(x):
            # a scaled root of unity, zero, or a plain rational operand
            if isinstance(x, cyclo):
                return x.is_zero() or x.as_root() is not None
            return True

        def counted_mul(a, b):
            self.mul_calls += 1
            if not (monomial(a) and monomial(b)):
                self.mul_generic += 1
            return mul(a, b)

        def counted_add(a, b):
            self.add_calls += 1
            return add(a, b)

        def counted_amul(a, b):
            self.algebra_mul_calls += 1
            return amul(a, b)

        self._rebind(mul, counted_mul)
        self._rebind(add, counted_add)
        self._rebind(amul, counted_amul)

    def uninstall(self):
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- output

    def write(self, path):
        keys = ("name", "layer", "start", "end", "parent", "job", "info")
        with open(path, "w") as fh:
            json.dump({"spans": [dict(zip(keys, rec)) for rec in self.spans]},
                      fh)

    def layer_metrics(self):
        """The per-layer metrics of everything recorded so far."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for rec in spans:
            if rec[PARENT] >= 0:
                child_time[rec[PARENT]] += rec[END] - rec[START]
        self_s = defaultdict(float)
        for i, rec in enumerate(spans):
            self_s[rec[LAYER]] += rec[END] - rec[START] - child_time[i]

        def ancestors(rec):
            while rec[PARENT] >= 0:
                rec = spans[rec[PARENT]]
                yield rec[NAME]

        calls = defaultdict(int)
        total_s = defaultdict(float)      # outermost calls of each name only
        info = defaultdict(list)
        enumerated = 0
        for rec in spans:
            name = rec[NAME]
            calls[name] += 1
            up = set(ancestors(rec))
            if name not in up:
                total_s[name] += rec[END] - rec[START]
            if rec[INFO] is not None:
                info[name].append(rec[INFO])
            if name == "enumerate_bicharacters" and up.intersection(ENUMERATORS):
                enumerated += rec[INFO]

        def ratio(num, den):
            return num / den if den else 0.0

        conj_rows = info["conj_perms"]
        coqt = info["verify_coqt"]
        mono = info["mono_tables"]
        return {
            "exactfield.mul_calls": self.mul_calls,
            "exactfield.add_calls": self.add_calls,
            "exactfield.mul_generic_ratio": ratio(self.mul_generic,
                                                  self.mul_calls),
            "exactfield.nullspace_s": total_s["nullspace"],
            "exactfield.self_s": self_s["exactfield"],
            "grouptool.self_s": self_s["grouptool"],
            "grouptool.enumerate_bicharacters_s":
                total_s["enumerate_bicharacters"],
            "grouptool.conjugation_map_calls": calls["conjugation_map"],
            "bismash.validate_calls": calls["validate_matched_pair"],
            "bismash.validate_s": total_s["validate_matched_pair"],
            "bismash.build_calls": calls["build_bismash"],
            "bismash.build_s": total_s["build_bismash"],
            "bismash.self_s": self_s["bismash"],
            "hopfcore.verify_axioms_s": total_s["verify_hopf_axioms"],
            "hopfcore.mono_hit_ratio": ratio(sum(mono), len(mono)),
            "hopfcore.algebra_mul_calls": self.algebra_mul_calls,
            "hopfcore.load_structure_s": total_s["load_structure"],
            "hopfcore.self_s": self_s["hopfcore"],
            "qtlab.verify_qt_calls": calls["verify_qt"],
            "qtlab.verify_qt_s": total_s["verify_qt"],
            "qtlab.certify_s": total_s["certify"],
            "qtlab.conj_perms_s": total_s["conj_perms"],
            "qtlab.conj_fallback_ratio": ratio(sum(n for n, _ in conj_rows),
                                               sum(m for _, m in conj_rows)),
            "qtlab.verify_coqt_calls": calls["verify_coqt"],
            "qtlab.verify_coqt_s": total_s["verify_coqt"],
            "qtlab.coqt_pass_ratio": ratio(sum(coqt), len(coqt)),
            "qtlab.candidates": (enumerated + calls["verify_coqt"]
                                 + sum(info["no_qt_B_dual"])),
            "qtlab.survivors": sum(sum(info[n]) for n in
                                   ENUMERATORS + ("braiding_A_search",)),
            "qtlab.self_s": self_s["qtlab"],
            "cli.self_s": self_s["cli"],
        }
