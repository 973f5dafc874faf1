"""Outside-in layer trace: spans around blockip's public functions.

Nothing inside blockip is edited.  While a Tracer is installed, each traced
function is replaced by a timing wrapper at the name its consumer looks it
up under: the route modules use ``from .x import f``, so ``ones`` calls
``blockip.ones.solve_transport``, not ``blockip.flow.solve_transport``.
Leaving the context restores every original.

A span's time includes its child spans; its self time is the span minus
the part its child spans cover.  The bench opens one root span per solve,
so the self times of all spans plus the root's self time (reported as
``trace.unattributed_ms``) add up to the traced solve time.
"""

from __future__ import annotations

import importlib
from collections import Counter, defaultdict
from time import perf_counter

from blockip.model import Infeasible
from blockip.ratlp import OPTIMAL

ROOT = "solve"


def _transport_done(tr, args, result, parent, dt):
    p = args[0]
    tr.counts["flow.solve_transport.cells"] += len(p.row_totals) * len(p.col_totals)
    if isinstance(result, Infeasible):
        tr.counts["flow.solve_transport.infeasible"] += 1
    if parent == "ones.round_bricks":
        tr.counts["flow.solve_transport.rounding_calls"] += 1


def _lp_done(tr, args, result, parent, dt):
    # ones calls solve_lp twice over: bound LPs of the aggregate search, and
    # the audit LP that re-solves the rounding transport inside round_bricks
    if parent == "ones.round_bricks":
        tr.seconds["ratlp.solve_lp.audit"] += dt
    else:
        tr.seconds["ratlp.solve_lp.bound"] += dt
        tr.counts["ratlp.solve_lp.bound_rows"] += len(args[0].eq_matrix)


def _mip_done(tr, args, result, parent, dt):
    tr.counts["smallip.solve_mip.nodes"] += result.nodes or 0
    tr.counts["smallip.solve_mip.optimal"] += result.status == OPTIMAL


def _cell_done(tr, args, result, parent, dt):
    tr.counts["fourblock_snf.solve_cell.optimal"] += result.status == OPTIMAL


# (module, attribute path, span name, hook run after each call)
FUNCTION_SPANS = (
    ("blockip.model", "classify", "model.classify", None),
    ("blockip.intlin", "integer_rank", "intlin.integer_rank", None),
    ("blockip.nfold_snf", "validate", "model.validate", None),
    ("blockip.nfold_snf", "classify", "model.classify", None),
    ("blockip.nfold_snf", "evaluate", "model.evaluate", None),
    ("blockip.nfold_snf", "smith_normal_form", "intlin.smith_normal_form", None),
    ("blockip.nfold_snf", "build_context", "nfold_snf.build_context", None),
    ("blockip.nfold_snf", "greedy_ip8", "nfold_snf.greedy_ip8", None),
    ("blockip.nfold_snf", "solve_nfold_snf", "nfold_snf.solve_nfold_snf", None),
    ("blockip.ones", "validate", "model.validate", None),
    ("blockip.ones", "classify", "model.classify", None),
    ("blockip.ones", "evaluate", "model.evaluate", None),
    ("blockip.ones", "smith_normal_form", "intlin.smith_normal_form", None),
    ("blockip.ones", "solve_transport", "flow.solve_transport", _transport_done),
    ("blockip.ones", "solve_lp", "ratlp.solve_lp", _lp_done),
    ("blockip.ones", "round_bricks", "ones.round_bricks", None),
    ("blockip.ones", "solve_ones", "ones.solve_ones", None),
    ("blockip.fourblock_snf", "validate", "model.validate", None),
    ("blockip.fourblock_snf", "evaluate", "model.evaluate", None),
    ("blockip.fourblock_snf", "integer_rank", "intlin.integer_rank", None),
    ("blockip.fourblock_snf", "smith_normal_form", "intlin.smith_normal_form", None),
    ("blockip.fourblock_snf", "elimination_from_snf", "fourblock_snf.elimination", None),
    ("blockip.fourblock_snf", "elimination_from_bezout", "fourblock_snf.elimination", None),
    ("blockip.fourblock_snf", "build_grid", "fourblock_snf.build_grid", None),
    ("blockip.fourblock_snf", "solve_cell", "fourblock_snf.solve_cell", _cell_done),
    ("blockip.fourblock_snf", "solve_mip", "smallip.solve_mip", _mip_done),
    ("blockip.fourblock_snf", "lift_solution", "fourblock_snf.lift_solution", None),
    ("blockip.fourblock_snf", "solve_4block_snf", "fourblock_snf.solve_4block_snf", None),
    ("blockip.smallip", "solve_lp_warm", "ratlp.solve_lp_warm", None),
    ("blockip.ratlp", "WarmLp.reoptimized", "ratlp.WarmLp.reoptimized", None),
)

# generator functions: the span covers each next() call, not the consumer's loop
GENERATOR_SPANS = (
    ("blockip.fourblock_snf", "enumerate_cells", "fourblock_snf.enumerate_cells"),
)


class Tracer:
    """Span and counter totals for the solves run while it is installed.

    Use as a context manager around the traced solves, and call the solve
    function through ``root``.  Totals are kept in memory: ``seconds`` and
    ``self_seconds`` per span name, ``counts`` per counter name (each span
    also counts its calls as ``<name>.calls``).
    """

    def __init__(self):
        self.seconds = defaultdict(float)
        self.self_seconds = defaultdict(float)
        self.counts = Counter()
        self._stack = []  # [name, seconds covered by child spans]
        self._undo = []

    def __enter__(self):
        for module, path, name, hook in FUNCTION_SPANS:
            self._patch(module, path, lambda f, name=name, hook=hook: self._wrap(f, name, hook))
        for module, path, name in GENERATOR_SPANS:
            self._patch(module, path, lambda f, name=name: self._wrap_generator(f, name))
        return self

    def __exit__(self, *exc):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _patch(self, module, path, make_wrapper):
        owner = importlib.import_module(module)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        original = getattr(owner, attr)
        self._undo.append((owner, attr, original))
        setattr(owner, attr, make_wrapper(original))

    def _enter(self, name):
        self._stack.append([name, 0.0])
        return perf_counter()

    def _leave(self, t0):
        dt = perf_counter() - t0
        name, covered = self._stack.pop()
        self.seconds[name] += dt
        self.self_seconds[name] += dt - covered
        self.counts[name + ".calls"] += 1
        if self._stack:
            self._stack[-1][1] += dt
        return dt

    def _parent(self):
        return self._stack[-1][0] if self._stack else None

    def _wrap(self, f, name, hook):
        def traced(*args, **kwargs):
            parent = self._parent()
            t0 = self._enter(name)
            try:
                result = f(*args, **kwargs)
            finally:
                dt = self._leave(t0)
            if hook is not None:
                hook(self, args, result, parent, dt)
            return result
        return traced

    def _wrap_generator(self, f, name):
        def traced(*args, **kwargs):
            it = f(*args, **kwargs)
            while True:
                t0 = self._enter(name)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self._leave(t0)
                self.counts[name + ".items"] += 1
                yield item
        return traced

    def root(self, solve):
        """solve, with each call traced as the root span of one solve."""
        return self._wrap(solve, ROOT, None)

    def layer_metrics(self, overhead: float) -> dict:
        """Per-solve layer metrics, named and ordered as in BENCHMARK.json."""
        n = self.counts[ROOT + ".calls"]
        s, own, c = self.seconds, self.self_seconds, self.counts

        def ms(seconds):
            return 1000.0 * seconds / n

        def frac(part, whole):
            return c[part] / c[whole] if c[whole] else 0.0

        return {
            # nfold-sched
            "model.validate.ms": ms(s["model.validate"]),
            "model.classify.ms": ms(s["model.classify"]),
            "model.evaluate.ms": ms(s["model.evaluate"]),
            "intlin.smith_normal_form.ms": ms(s["intlin.smith_normal_form"]),
            "intlin.integer_rank.ms": ms(s["intlin.integer_rank"]),
            "nfold_snf.build_context.ms": ms(s["nfold_snf.build_context"]),
            "nfold_snf.greedy_ip8.ms": ms(s["nfold_snf.greedy_ip8"]),
            "nfold_snf.solve_nfold_snf.self_ms": ms(own["nfold_snf.solve_nfold_snf"]),
            # ones-transport
            "flow.solve_transport.calls": c["flow.solve_transport.calls"] / n,
            "flow.solve_transport.ms": ms(s["flow.solve_transport"]),
            "flow.solve_transport.cells": c["flow.solve_transport.cells"] / n,
            "flow.solve_transport.infeasible_frac": frac(
                "flow.solve_transport.infeasible", "flow.solve_transport.calls"),
            "flow.solve_transport.rounding_calls": c["flow.solve_transport.rounding_calls"] / n,
            "ratlp.solve_lp.audit_ms": ms(s["ratlp.solve_lp.audit"]),
            "ones.solve_ones.self_ms": ms(own["ones.solve_ones"]),
            "ones.round_bricks.self_ms": ms(own["ones.round_bricks"]),
            # ones-lattice
            "ratlp.solve_lp.calls": c["ratlp.solve_lp.calls"] / n,
            "ratlp.solve_lp.bound_ms": ms(s["ratlp.solve_lp.bound"]),
            "ratlp.solve_lp.bound_rows": c["ratlp.solve_lp.bound_rows"] / n,
            # fourblock-cells
            "ratlp.solve_lp_warm.calls": c["ratlp.solve_lp_warm.calls"] / n,
            "ratlp.solve_lp_warm.ms": ms(s["ratlp.solve_lp_warm"]),
            "ratlp.WarmLp.reoptimized.calls": c["ratlp.WarmLp.reoptimized.calls"] / n,
            "ratlp.WarmLp.reoptimized.ms": ms(s["ratlp.WarmLp.reoptimized"]),
            "smallip.solve_mip.calls": c["smallip.solve_mip.calls"] / n,
            "smallip.solve_mip.self_ms": ms(own["smallip.solve_mip"]),
            "smallip.solve_mip.nodes": c["smallip.solve_mip.nodes"] / n,
            "smallip.solve_mip.optimal_frac": frac(
                "smallip.solve_mip.optimal", "smallip.solve_mip.calls"),
            "fourblock_snf.elimination.ms": ms(s["fourblock_snf.elimination"]),
            "fourblock_snf.build_grid.ms": ms(s["fourblock_snf.build_grid"]),
            "fourblock_snf.lift_solution.ms": ms(s["fourblock_snf.lift_solution"]),
            "fourblock_snf.enumerate_cells.cells": c["fourblock_snf.enumerate_cells.items"] / n,
            "fourblock_snf.enumerate_cells.ms": ms(s["fourblock_snf.enumerate_cells"]),
            "fourblock_snf.solve_cell.optimal_frac": frac(
                "fourblock_snf.solve_cell.optimal", "fourblock_snf.solve_cell.calls"),
            "fourblock_snf.solve_4block_snf.self_ms": ms(own["fourblock_snf.solve_4block_snf"]),
            # every workload
            "trace.solve_ms": ms(s[ROOT]),
            "trace.unattributed_ms": ms(own[ROOT]),
            "trace.overhead": overhead,
        }
