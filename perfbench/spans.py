"""Span tracing of the package's public functions, installed from outside.

Each wrapped function records a span: its name, the span that called it,
its duration and its self time (duration minus the time of child spans).
The wrappers also time their own bookkeeping, which is what tracing adds
to a run.
Spans are aggregated in memory per (name, parent) and written out when the
run ends.  A function imported with `from ... import` is bound in several
modules, so every binding of the original object in every loaded spdelab
module is replaced.
"""

from __future__ import annotations

import functools
import sys
import time
import weakref

import numpy as np

# (module, attribute, span name)
FUNCTIONS = [
    ("torus", "dft_forward", "torus.dft_forward"),
    ("torus", "dft_inverse", "torus.dft_inverse"),
    ("torus", "hermitian_gaussian", "torus.hermitian_gaussian"),
    ("schemes", "eval_f", "schemes.eval_f"),
    ("schemes", "eval_g", "schemes.eval_g"),
    ("schemes", "eval_h", "schemes.eval_h"),
    ("experiments", "exp_second_chaos", "experiments.exp_second_chaos"),
    ("experiments", "holder_norm_batch", "experiments.holder_norm_batch"),
    ("hierarchy", "run_hierarchy", "hierarchy.run_hierarchy"),
    ("hierarchy", "sample_linear_trajectory", "hierarchy.sample_linear_trajectory"),
    ("hierarchy", "solve_level2", "hierarchy.solve_level2"),
    ("hierarchy", "solve_level3", "hierarchy.solve_level3"),
    ("hierarchy", "solve_K", "hierarchy.solve_K"),
    ("hierarchy", "picard_y4", "hierarchy.picard_y4"),
    ("hierarchy", "diamond_constants", "hierarchy.diamond_constants"),
    ("constants", "active_modes", "constants.active_modes"),
    ("constants", "c0_matrix", "constants.c0_matrix"),
    ("constants", "ck", "constants.ck"),
    ("constants", "ck_tilde", "constants.ck_tilde"),
    ("constants", "ck2_limit", "constants.ck2_limit"),
    ("constants", "c22_family", "constants.c22_family"),
    ("constants", "c13_block", "constants.c13_block"),
]
# (module, class, method, span name)
METHODS = [
    ("hierarchy", "ProductEngine", "pair_matrix", "hierarchy.pair_matrix"),
    ("fields", "CoupledOUEnsemble", "step", "fields.CoupledOUEnsemble.step"),
]


class Tracer:
    def __init__(self):
        self.enabled = False
        self.stats: dict = {}  # (name, parent) -> [calls, total_s, self_s]
        self.stack: list = []  # open spans: [name, child_s]
        self.fft_bytes = 0
        self.modes_built = 0  # modes of each distinct mode set returned
        self._mode_sets = weakref.WeakValueDictionary()  # id -> live mode set
        self.pairs = 0
        self.picard_sweeps = 0
        self.picard_step_sweeps = 0
        self.overhead_s = 0.0
        self._restore: list = []

    def _wrap(self, name, fn, after=None):
        tracer = self

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            t_in = time.perf_counter()
            parent = tracer.stack[-1] if tracer.stack else None
            frame = [name, 0.0]
            tracer.stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                tracer.stack.pop()
                if parent is not None:
                    parent[1] += dt
                rec = tracer.stats.setdefault((name, parent[0] if parent else None), [0, 0.0, 0.0])
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - frame[1]
            if after is not None:
                after(args, result)
            tracer.overhead_s += time.perf_counter() - t_in - dt
            return result

        return span

    # counters computed from arguments and results ---------------------------------

    def _transform_bytes(self, args, result):
        self.fft_bytes += np.asarray(args[1]).nbytes + result.nbytes

    def _gaussian_bytes(self, args, result):
        # real white noise in, complex cube out
        self.fft_bytes += result.size * 8 + result.nbytes

    def _mode_set(self, args, result):
        if self._mode_sets.get(id(result)) is not result:
            self._mode_sets[id(result)] = result
            self.modes_built += result.k.shape[0]

    def _double_sum(self, args, result):
        # (t, scheme, lattice) or (block, t, scheme, lattice); the mode set is cached
        scheme, lattice = args[-2], args[-1]
        m = self._originals["constants.active_modes"](scheme, lattice).k.shape[0]
        self.pairs += m * m

    def _picard(self, args, result):
        traj, report = result
        self.picard_sweeps += report.iterations
        self.picard_step_sweeps += report.iterations * (len(traj.times) - 1)

    def install(self):
        import spdelab
        from spdelab import constants, experiments, fields, hierarchy, schemes, torus

        mods = {"torus": torus, "schemes": schemes, "experiments": experiments,
                "hierarchy": hierarchy, "constants": constants, "fields": fields}
        after = {
            "torus.dft_forward": self._transform_bytes,
            "torus.dft_inverse": self._transform_bytes,
            "torus.hermitian_gaussian": self._gaussian_bytes,
            "constants.active_modes": self._mode_set,
            "constants.c22_family": self._double_sum,
            "constants.c13_block": self._double_sum,
            "hierarchy.picard_y4": self._picard,
        }
        self._originals = {}
        loaded = [m for n, m in sys.modules.items() if n == "spdelab" or n.startswith("spdelab.")]
        for modname, attr, name in FUNCTIONS:
            orig = getattr(mods[modname], attr)
            self._originals[name] = orig
            wrapped = self._wrap(name, orig, after.get(name))
            for mod in loaded:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, key, wrapped)
                        self._restore.append((mod, key, orig))
        for modname, cls_name, meth, name in METHODS:
            cls = getattr(mods[modname], cls_name)
            orig = cls.__dict__[meth]
            setattr(cls, meth, self._wrap(name, orig))
            self._restore.append((cls, meth, orig))
        if spdelab.dft_forward is self._originals["torus.dft_forward"]:
            raise RuntimeError("tracing did not reach the package namespace")

    def uninstall(self):
        for owner, key, orig in reversed(self._restore):
            setattr(owner, key, orig)
        self._restore.clear()

    # aggregation -------------------------------------------------------------------

    def by_name(self) -> dict:
        out: dict = {}
        for (name, _parent), (calls, total, self_s) in self.stats.items():
            rec = out.setdefault(name, [0, 0.0, 0.0])
            rec[0] += calls
            rec[1] += total
            rec[2] += self_s
        return out

    def spans(self) -> list:
        return [
            {"name": n, "parent": p, "calls": c, "total_s": t, "self_s": s}
            for (n, p), (c, t, s) in sorted(self.stats.items(), key=lambda kv: -kv[1][2])
        ]

    def per_layer(self, rounds: int) -> dict:
        """The per-layer metrics, per traced round: name -> (value, unit)."""
        agg = self.by_name()
        get = lambda name: agg.get(name, [0, 0.0, 0.0])
        out = {}
        for name in (
            "torus.dft_inverse", "torus.dft_forward", "torus.hermitian_gaussian",
            "experiments.holder_norm_batch", "hierarchy.pair_matrix",
            "constants.ck", "constants.ck_tilde", "fields.CoupledOUEnsemble.step",
            "constants.c13_block", "constants.active_modes", "schemes.eval_f",
            "schemes.eval_g", "schemes.eval_h", "constants.c0_matrix",
        ):
            out[f"{name}.calls"] = (get(name)[0] / rounds, "count")
            out[f"{name}.self_s"] = (get(name)[2] / rounds, "s")
        for name in (
            "hierarchy.picard_y4", "hierarchy.solve_level2", "hierarchy.solve_level3",
            "hierarchy.diamond_constants", "hierarchy.sample_linear_trajectory",
            "constants.c22_family", "constants.ck2_limit",
        ):
            out[f"{name}.self_s"] = (get(name)[2] / rounds, "s")
        in_picard = self.stats.get(("hierarchy.pair_matrix", "hierarchy.picard_y4"), [0])[0]
        out["hierarchy.pair_matrix_per_step"] = (
            in_picard / self.picard_step_sweeps if self.picard_step_sweeps else 0.0, "count")
        out["hierarchy.picard_sweeps"] = (self.picard_sweeps / rounds, "count")
        out["hierarchy.picard_sweep_s"] = (
            get("hierarchy.picard_y4")[1] / self.picard_sweeps if self.picard_sweeps else 0.0, "s")
        out["torus.fft_bytes"] = (self.fft_bytes / rounds, "B")
        out["constants.modes"] = (self.modes_built / rounds, "count")
        out["constants.pairs"] = (self.pairs / rounds, "count")
        sums_s = get("constants.c22_family")[1] + get("constants.c13_block")[1]
        out["constants.pairs_per_s"] = (self.pairs / sums_s if sums_s else 0.0, "1/s")
        out["trace.overhead_s"] = (self.overhead_s / rounds, "s")
        return out
