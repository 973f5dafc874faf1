"""Instance lists of the benchmark workloads, and how one is solved.

Every instance comes from blockip.generators with seeded_rate=0.9: about
one in ten is infeasible, which keeps the infeasibility proofs in the
traffic without letting the fast infeasible exits set the median.

Each workload is one fixed list, generated from LIST_SEED.  A run's --seed
only sets the order in which the list is visited.  Solve times vary about
tenfold between instances of one workload, so a fresh list per seed would
make the spread between runs mostly a matter of which instances were
drawn.  Resampling 100 of 300 measured fourblock-cells solve times put the
interquartile spread of p50 at 0.27 of its median from the draw alone.
A fixed list leaves only the host's own noise, and lets every run check
every verdict against the pinned one.  Its digest over model.dumps is
pinned too, so an edit to the generators cannot silently change the
traffic.
"""

from __future__ import annotations

import functools
import hashlib
import random
from dataclasses import dataclass
from typing import Callable

from blockip import fourblock_snf, generators, model, nfold_snf, ones
from blockip.model import Infeasible, Solution, StructureClass

LIST_SEED = 0
COUNT = 100  # instances per list: p90 then has ten latencies beyond it


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    make: Callable  # (rng, index) -> FourBlockInstance


def _nfold(rng, i):
    # every fourth instance carries 30-digit coefficients: the paper's
    # scheduling regime allows coefficients of any size
    return generators.random_nfold_instance(
        rng, n=2000, t_A=3, s_C=2, scale=10**30 if i % 4 == 3 else 1, seeded_rate=0.9)


def _ones_transport(rng, i):
    return generators.random_ones_instance(rng, n=30, t_A=3, t_B=1, s_C=1, seeded_rate=0.9)


def _ones_lattice(rng, i):
    return generators.random_ones_instance(rng, n=8, t_A=3, t_B=3, s_C=1, seeded_rate=0.9)


def _fourblock_cells(rng, i):
    return generators.random_snf_instance(rng, n=40, s_A=1, t_B=1, s_C=1, seeded_rate=0.9)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "nfold-sched",
            "many machines, few job types, any coefficient size: Smith elimination "
            "and greedy, no LP or flow, so the control for LP and flow changes",
            _nfold),
        Workload(
            "ones-transport",
            "all-ones bricks where the rounding audit LP, the transports and the "
            "bound LPs dominate: the place for audit removal and faster flow",
            _ones_transport),
        Workload(
            "ones-lattice",
            "all-ones bricks with a 4-dimensional aggregate lattice: cold bound LPs "
            "of the cutting-plane search dominate and flow is small",
            _ones_lattice),
        Workload(
            "fourblock-cells",
            "4-block cell enumeration: about 70 tiny warm-started cell MIPs per solve, "
            "the LP core used as many small warm solves",
            _fourblock_cells),
    )
}


def makers(name: str):
    """Zero-argument calls that make workload name's list, one instance each.

    They share one random stream, so they must be called in order.
    """
    w = WORKLOADS[name]
    rng = random.Random(f"{name}/{LIST_SEED}")
    return [functools.partial(w.make, rng, i) for i in range(COUNT)]


def generate(name: str, count: int | None = None):
    """The first count instances (default: all) of workload name's list."""
    return [make() for make in makers(name)[:count]]


def list_digest(instances) -> str:
    h = hashlib.sha256()
    for inst in instances:
        h.update(model.dumps(inst).encode())
    return h.hexdigest()[:16]


def solve(inst):
    """Classify, then call the route the class names, as a caller does today.

    The route functions are looked up on their modules at call time, so the
    tracer's wrappers apply.
    """
    cls = model.classify(inst)
    if cls == StructureClass.ALL_ONES_ROW:
        return ones.solve_ones(inst)
    if cls == StructureClass.NFOLD_SNF_ELIGIBLE:
        return nfold_snf.solve_nfold_snf(inst)
    if cls == StructureClass.SNF_ELIGIBLE:
        return fourblock_snf.solve_4block_snf(inst)
    raise ValueError(f"no structured route for class {cls.value}")


def verdict(inst, result) -> str | None:
    """'opt:<objective>' or 'infeasible:<reason>'; None if the result is wrong.

    A Solution counts only if model.evaluate finds it feasible with the
    objective it claims.
    """
    if isinstance(result, Infeasible):
        return f"infeasible:{result.reason}"
    if isinstance(result, Solution):
        report = model.evaluate(inst, result.x)
        if report.feasible and report.objective == result.objective:
            return f"opt:{result.objective}"
    return None
