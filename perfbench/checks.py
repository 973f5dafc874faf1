"""Tests of the benchmark itself, kept out of the package's test run.

    python3 -m pytest -q perfbench/checks.py

Run from the repository root.  The HiGHS cross-check needs scipy and is
skipped without it; it takes a few minutes.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402
from blockip import fourblock_snf, model  # noqa: E402
from blockip.model import Infeasible, Solution  # noqa: E402
from tracer import ROOT as ROOT_SPAN  # noqa: E402
from tracer import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
PINNED = json.loads((HERE / "pinned.json").read_text())
NAMES = list(workloads.WORKLOADS)


def _smoke(name, count=3):
    return workloads.generate(name, count)


def _traced(instances):
    with Tracer() as tr:
        solve = tr.root(workloads.solve)
        for inst in instances:
            solve(inst)
    return tr


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_spec_names_the_workloads_in_code():
    assert [(w["name"], w["why"]) for w in SPEC["workloads"]] == [
        (w.name, w.why) for w in workloads.WORKLOADS.values()]


def test_spec_names_every_layer_metric():
    tr = _traced(_smoke("ones-transport", 1))
    assert list(tr.layer_metrics(1.0)) == [m["name"] for m in SPEC["per_layer"]]


@pytest.mark.parametrize("name", NAMES)
def test_instance_list_is_pinned(name):
    insts = workloads.generate(name)
    assert workloads.list_digest(insts) == PINNED[name]["digest"]
    assert len(PINNED[name]["verdicts"]) == len(insts) == workloads.COUNT


def test_gate_fails_wrong_raising_and_changed_answers():
    inst = _smoke("ones-transport", 1)[0]
    good = workloads.solve(inst)
    assert isinstance(good, Solution)
    pinned = [workloads.verdict(inst, good)]
    assert pinned == PINNED["ones-transport"]["verdicts"][:1]

    def failed(result):
        return run.check_verdicts([inst], [(0, result, 0.1)], pinned)

    assert failed(good) == []
    assert failed(Solution(good.x, good.objective + 1, good.solver_tag)) == [0]
    assert failed(Solution((0,) * len(good.x), 0, good.solver_tag)) == [0]
    assert failed(ValueError("boom")) == [0]
    assert failed(Infeasible("NoLatticePoint")) == [0]


def test_latency_is_the_median_per_instance():
    samples = [(0, None, 1.0), (1, None, 2.0), (0, None, 3.0), (0, None, 8.0)]
    assert run.latencies(samples) == {0: 3.0, 1: 2.0}


def test_quantile_estimates_the_percentile():
    xs = list(range(1, 102))
    assert run.quantile(xs, 0.5) == pytest.approx(51)
    assert run.quantile([7.0] * 100, 0.9) == pytest.approx(7.0)
    ys = [x * x for x in xs]
    assert ys[49] < run.quantile(ys, 0.5) < ys[51]
    assert run.quantile(ys, 0.5) < run.quantile(ys, 0.9) < ys[-1]


def test_calls_are_scaled_by_the_calibrations_around_them(monkeypatch):
    chunks = iter([1.0, 2.0, 4.0, 8.0])
    monkeypatch.setattr(run, "calibrate", lambda: next(chunks) * run.CAL_REF_S)
    monkeypatch.setattr(run, "perf_counter", iter([0.0, 3.0, 10.0, 12.0, 20.0, 20.5]).__next__)
    timed, cals = run.timed_calls([lambda: "a", lambda: "b", lambda: "c"])
    assert len(cals) == 4
    assert [r for r, _ in timed] == ["a", "b", "c"]
    # each call is scaled by the median of up to two chunks on each side
    assert [t for _, t in timed] == pytest.approx([3.0 / 2.0, 2.0 / 3.0, 0.5 / 4.0])


def test_traced_counters_repeat_exactly():
    insts = [i for name in NAMES for i in _smoke(name, 2)]
    assert _traced(insts).counts == _traced(insts).counts


def test_cell_counter_matches_independent_enumeration():
    insts = _smoke("fourblock-cells", 4)
    expected = 0
    for inst in insts:
        elim = (fourblock_snf.elimination_from_bezout(inst) if (inst.s_A, inst.t_A) == (1, 2)
                else fourblock_snf.elimination_from_snf(inst))
        if isinstance(elim, Infeasible):
            continue
        grid = fourblock_snf.build_grid(
            elim,
            [inst.l[inst.brick_slice(i)] for i in range(inst.n)],
            [inst.u[inst.brick_slice(i)] for i in range(inst.n)],
        )
        expected += len(list(fourblock_snf.enumerate_cells(inst, elim, grid)))
    tr = _traced(insts)
    assert expected > 0
    assert tr.counts["fourblock_snf.enumerate_cells.items"] == expected
    m = tr.layer_metrics(1.0)
    assert m["fourblock_snf.enumerate_cells.cells"] * len(insts) == pytest.approx(expected)


@pytest.mark.parametrize("name", NAMES)
def test_layer_self_times_add_up_to_the_solve_time(name):
    tr = _traced(_smoke(name, 2))
    total = tr.seconds[ROOT_SPAN]
    assert sum(tr.self_seconds.values()) == pytest.approx(total, rel=1e-9)
    m = tr.layer_metrics(1.0)
    assert m["trace.unattributed_ms"] == pytest.approx(1000 * tr.self_seconds[ROOT_SPAN] / 2)
    assert m["trace.solve_ms"] == pytest.approx(1000 * total / 2)


def test_tracer_restores_the_program():
    from blockip import ones, ratlp
    before = (ones.solve_transport, ratlp.WarmLp.reoptimized, fourblock_snf.enumerate_cells)
    _traced(_smoke("ones-transport", 1))
    assert (ones.solve_transport, ratlp.WarmLp.reoptimized, fourblock_snf.enumerate_cells) == before


@pytest.mark.parametrize("trace,kind", [("0", "end_to_end"), ("1", "per_layer")])
def test_run_prints_the_contract_result(trace, kind):
    out = _run("--workload", "ones-transport", "--seed", "3", "--seconds", "1", "--trace", trace)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    context, result = json.loads(lines[-2])["context"], json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC[kind]}
    assert context["traffic_ok"] and context["instances"] == 100


def test_run_fails_without_the_program():
    # a directory holding only BENCHMARK.json and perfbench/, inside the ignored build dir
    bare = ROOT / ".bench_build" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        out = _run("--workload", "ones-transport", "--seed", "1", "--seconds", "1", cwd=bare)
    finally:
        shutil.rmtree(bare)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout


def _fits_double(inst):
    mats = (inst.A, inst.B, inst.C, inst.D)
    values = [v for m in mats for v in m.entries]
    values += [*inst.b0, *(v for bi in inst.b for v in bi), *inst.l, *inst.u, *inst.w]
    return all(abs(v) <= 2**53 for v in values)


def _highs_verdict(inst):
    """Verdict of scipy's HiGHS MIP, its point rounded and re-evaluated exactly."""
    opt = pytest.importorskip("scipy.optimize")
    sparse = pytest.importorskip("scipy.sparse")
    n, tA, tB, sA, sC = inst.n, inst.t_A, inst.t_B, inst.s_A, inst.s_C
    rows, cols, vals = [], [], []

    def put(r, c, v):
        if v:
            rows.append(r)
            cols.append(c)
            vals.append(float(v))

    for r in range(sC):
        for j in range(tB):
            put(r, j, inst.C.at(r, j))
        for i in range(n):
            for h in range(tA):
                put(r, tB + i * tA + h, inst.D.at(r, h))
    for i in range(n):
        for r in range(sA):
            row = sC + i * sA + r
            for j in range(tB):
                put(row, j, inst.B.at(r, j))
            for h in range(tA):
                put(row, tB + i * tA + h, inst.A.at(r, h))
    rhs = [float(v) for v in inst.b0] + [float(v) for bi in inst.b for v in bi]
    H = sparse.coo_matrix((vals, (rows, cols)), shape=(inst.num_rows, inst.num_vars)).tocsr()
    res = opt.milp(
        [-float(w) for w in inst.w],
        constraints=opt.LinearConstraint(H, rhs, rhs),
        integrality=[1] * inst.num_vars,
        bounds=opt.Bounds([float(v) for v in inst.l], [float(v) for v in inst.u]),
        options={"mip_rel_gap": 0, "time_limit": 60},
    )
    if res.status == 2:
        return "infeasible"
    assert res.status == 0, res.message
    x = tuple(int(round(v)) for v in res.x)
    report = model.evaluate(inst, x)
    assert report.feasible, report.violations[:3]
    return f"opt:{report.objective}"


@pytest.mark.parametrize("name", NAMES)
def test_pinned_verdicts_agree_with_highs(name):
    insts = workloads.generate(name)
    checked = 0
    for k, inst in enumerate(insts):
        if not _fits_double(inst):
            continue
        pinned = PINNED[name]["verdicts"][k]
        expected = "infeasible" if pinned.startswith("infeasible:") else pinned
        assert _highs_verdict(inst) == expected, (k, pinned)
        checked += 1
    assert checked >= len(insts) * 3 // 4
