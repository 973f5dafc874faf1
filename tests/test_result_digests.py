"""Pinned digests of every route's results on fixed-seed instances.

Each digest is a sha256 over the repr of a route's intermediate data and
final result on about 20 generator instances of one benchmark shape (the
shapes of perfbench/workloads.py, with n capped at 200), or on 6 of
ones-wide, an all-ones shape with an 8-dimensional aggregate lattice.  A
refactor that must keep results bit-identical leaves every pin as it is; a
change that moves a tie-break on purpose updates the pins and says why.

The all-ones shapes also pin the search path, not only where it ends: the
number of transports solved and of bound LPs solved (cold solves and warm
re-solves) over the same instances.  The 4-block shape pins its master
search the same way: the masters searched, the nodes of their searches
and the greedy evaluations of their separators.  A speed-up that must not
change the search leaves these counts as they are.

Run as a script, ``python tests/test_result_digests.py`` prints every
shape's digest and search path in the layout of PINNED, PINNED_PATHS and
PINNED_CELL_LPS, so a change that moves them on purpose re-pins from one
command.
"""

import hashlib
import os
import random
import sys
from collections import Counter

import pytest

# run as a script, the package is found under src/ without an install
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from blockip import fourblock_snf, generators, nfold_snf, ones, ratlp, smallip  # noqa: E402


def _nfold(rng, i):
    return generators.random_nfold_instance(
        rng, n=200, t_A=3, s_C=2, scale=10**30 if i % 4 == 3 else 1, seeded_rate=0.9)


def _ones_transport(rng, i):
    return generators.random_ones_instance(
        rng, n=30, t_A=3, t_B=1, s_C=1, scale=10**6 if i % 4 == 3 else 1, seeded_rate=0.9)


def _ones_lattice(rng, i):
    return generators.random_ones_instance(
        rng, n=8, t_A=3, t_B=3, s_C=1, scale=10**6 if i % 4 == 3 else 1, seeded_rate=0.9)


def _ones_wide(rng, i):
    # an aggregate lattice of dimension 8, where a bound LP point has up to
    # 2^8 lattice corners
    return generators.random_ones_instance(rng, n=100, t_A=6, t_B=4, s_C=1, seeded_rate=0.9)


def _ones_any_scale(rng, i):
    shape = dict(t_A=3, t_B=1, n=30) if i % 2 else dict(t_A=3, t_B=3, n=8)
    return generators.random_ones_instance(
        rng, s_C=1, scale=(1, 10**6, 10**30)[i % 3], seeded_rate=0.9, **shape)


def _fourblock_cells(rng, i):
    return generators.random_snf_instance(rng, n=40, s_A=1, t_B=1, s_C=1, seeded_rate=0.9)


def _ones_results(inst):
    return ones._aggregate_lattice(inst), ones.solve_ones(inst)


# shape -> (instance maker, instance count, what each instance contributes)
SHAPES = {
    "nfold-sched": (_nfold, 20, lambda inst: (
        nfold_snf.build_context(inst), nfold_snf.solve_nfold_snf(inst))),
    "ones-transport": (_ones_transport, 20, _ones_results),
    "ones-lattice": (_ones_lattice, 20, _ones_results),
    "ones-wide": (_ones_wide, 6, _ones_results),
    # the lattice set-up alone, cheap enough for more instances and scales
    "ones-lattice-forms": (_ones_any_scale, 120, ones._aggregate_lattice),
    "fourblock-cells": (_fourblock_cells, 20, lambda inst: (
        fourblock_snf.elimination_from_snf(inst), fourblock_snf.solve_4block_snf(inst))),
}

PINNED = {
    "nfold-sched": "a6849c412fe5101b",
    "ones-transport": "1c205b27607b7ece",
    "ones-lattice": "9b9b6ad5372bbc97",
    "fourblock-cells": "e1a8fc092b5793dd",
    "ones-lattice-forms": "045603e2eb18520e",
    "ones-wide": "c0920afc5696b31d",
}


def digest(shape):
    make, count, results = SHAPES[shape]
    rng = random.Random(f"{shape}/digest")
    h = hashlib.sha256()
    for i in range(count):
        h.update(repr(results(make(rng, i))).encode())
    return h.hexdigest()[:16]


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_results_match_the_pinned_digest(shape):
    assert digest(shape) == PINNED[shape]


# shape -> (transports solved, bound LPs solved cold, bound LPs re-solved warm)
PINNED_PATHS = {
    "ones-transport": (81, 17, 64),
    "ones-lattice": (350, 15, 401),
    "ones-wide": (352, 6, 661),
}


def _counted(calls, name, fn):
    def wrapper(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)
    return wrapper


def _solve_all(shape, solve):
    make, count, _ = SHAPES[shape]
    rng = random.Random(f"{shape}/digest")
    for i in range(count):
        solve(make(rng, i))


def search_path(shape, monkeypatch):
    """(solve_transport, solve_lp_warm, WarmLp.edited) calls over a shape's instances."""
    calls = Counter()
    monkeypatch.setattr(ones, "solve_transport", _counted(calls, "transport", ones.solve_transport))
    monkeypatch.setattr(smallip, "solve_lp_warm", _counted(calls, "cold", smallip.solve_lp_warm))
    monkeypatch.setattr(ratlp.WarmLp, "edited", _counted(calls, "warm", ratlp.WarmLp.edited))
    _solve_all(shape, ones.solve_ones)
    return calls["transport"], calls["cold"], calls["warm"]


@pytest.mark.parametrize("shape", sorted(PINNED_PATHS))
def test_search_path_matches_the_pinned_counts(shape, monkeypatch):
    assert search_path(shape, monkeypatch) == PINNED_PATHS[shape]


# shape -> (masters searched, nodes of their searches, greedy evaluations);
# a master settled at the few lattice points of its box adds no node.
# While the route searched cells this pinned (cell root LPs, warm re-solves)
# at (49, 0)
PINNED_CELL_LPS = {
    "fourblock-cells": (23, 47, 57),
}


def cell_lps(shape, monkeypatch):
    """(solve_cell calls, their nodes, _greedy_cut calls) over a shape's instances."""
    calls = Counter()
    search = fourblock_snf.solve_cell

    def searched(master, cutoff=None):
        res = search(master, cutoff)
        calls["searched"] += 1
        calls["nodes"] += res.nodes
        return res

    monkeypatch.setattr(fourblock_snf, "solve_cell", searched)
    monkeypatch.setattr(fourblock_snf, "_greedy_cut", _counted(calls, "greedy", fourblock_snf._greedy_cut))
    _solve_all(shape, fourblock_snf.solve_4block_snf)
    return calls["searched"], calls["nodes"], calls["greedy"]


@pytest.mark.parametrize("shape", sorted(PINNED_CELL_LPS))
def test_cell_lps_match_the_pinned_counts(shape, monkeypatch):
    assert cell_lps(shape, monkeypatch) == PINNED_CELL_LPS[shape]


def test_search_never_re_solves_an_unchanged_bound_lp(monkeypatch):
    # a box pushed back after fresh corners that added no cut reuses its
    # result; a re-solve with no box edge and no row would repeat it
    edited = ratlp.WarmLp.edited

    def changed_only(self, boxes=(), rows=()):
        boxes, rows = list(boxes), list(rows)
        assert boxes or rows, "bound LP re-solved with no box edge and no row"
        return edited(self, boxes, rows)

    monkeypatch.setattr(ratlp.WarmLp, "edited", changed_only)
    _solve_all("ones-lattice", ones.solve_ones)


if __name__ == "__main__":
    print("PINNED = {")
    for shape in list(PINNED) + [s for s in SHAPES if s not in PINNED]:
        print(f'    "{shape}": "{digest(shape)}",')
    print("}")
    print()
    print("PINNED_PATHS = {")
    for shape in PINNED_PATHS:
        with pytest.MonkeyPatch.context() as mp:
            print(f'    "{shape}": {search_path(shape, mp)},')
    print("}")
    print()
    print("PINNED_CELL_LPS = {")
    for shape in PINNED_CELL_LPS:
        with pytest.MonkeyPatch.context() as mp:
            print(f'    "{shape}": {cell_lps(shape, mp)},')
    print("}")
