"""Tests of the benchmark's own parts: inputs, checks, tracing arithmetic.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import io
import contextlib
import shutil
import subprocess
import sys
import time
from itertools import islice
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import oracles  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from lame3trf import cli, generating_functions as gf, integral_forms as itf  # noqa: E402
from lame3trf.lame_series import (  # noqa: E402
    EvaluationPoint, LameParams, eval_series, heun_correspondence, series_coefficients,
)
from lame3trf.scalar_kernels import jacobi_sn_cn_dn  # noqa: E402


# ----------------------------------------------------------------- inputs

@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_same_inputs(name):
    wl = workloads.WORKLOADS[name]()
    first = list(islice(wl.decks(7), 3))
    assert first == list(islice(wl.decks(7), 3))
    assert first != list(islice(wl.decks(8), 3))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_deck_holds_the_same_operation_mix(name):
    wl = workloads.WORKLOADS[name]()

    def kinds(deck):
        return sorted(str((op.get("kind"), op.get("target"), op.get("order"),
                           op.get("a_max") if name == "gf-deep" else None)) for op in deck)

    decks = list(islice(wl.decks(3), 4))
    assert all(kinds(d) == kinds(decks[0]) for d in decks)


def test_sweep_amax_reaches_the_overflow_only_on_the_last_rung():
    ops = [op for deck in islice(workloads.SweepOrder0().decks(1), 20) for op in deck]
    over = [op["a_max"] >= oracles.KAPPA_OVERFLOW_ALPHA0 for op in ops]
    assert sum(over) == 20
    assert max(op["a_max"] for op in ops) > 90
    assert len({op["a_max"] for op in ops}) > 5  # the seed draws --amax too


# ----------------------------------------------------------------- checks

def test_heun_check_rejects_a_perturbed_value():
    hp = heun_correspondence(LameParams(rho=0.6, alpha=2.5, h=-1.2))
    heun = dict(vars(hp))
    assert oracles.check_heun(0.6, -1.2, 2.5, heun) is None
    heun["q"] *= 1 + 1e-12
    assert oracles.check_heun(0.6, -1.2, 2.5, heun) is not None


def test_sn_check_rejects_a_perturbed_value():
    sn, cn, dn = jacobi_sn_cn_dn(1.3, 0.7)
    assert oracles.check_sn(0.7, sn, cn, dn) is None
    assert oracles.check_sn(0.7, sn * (1 + 1e-9), cn, dn) is not None
    assert oracles.check_sn(0.7, sn, cn, dn + 1e-9) is not None


@pytest.mark.parametrize("lam", [0.0, 0.5])
def test_series_check_rejects_a_perturbed_value(lam):
    params = LameParams(rho=0.45, alpha=5.2, h=2.1)
    value = eval_series(series_coefficients(params, lam, 1.0, 40),
                        EvaluationPoint.from_xi(0.31, 0.45))
    assert oracles.check_series(0.45, 2.1, 5.2, lam, 0.31, 40, value) is None
    assert oracles.check_series(0.45, 2.1, 5.2, lam, 0.31, 40, value * (1 + 1e-9)) is not None


def _gf_case(order, a_max, nodes):
    params = LameParams(rho=0.5, alpha=3.0, h=1.0)
    pt = EvaluationPoint.from_xi(0.15, 0.5)
    weights = gf.GFWeights(0.75, itf.SParameters((0.12, 0.1, 0.08)), a_max, 2)
    grid = itf.make_quadrature_grid(0.0, order, nodes=nodes)
    return params, weights, pt, grid


def test_order1_check_rejects_a_perturbed_value():
    params, weights, pt, grid = _gf_case(1, 14, 32)
    lhs = gf.gf_lhs_order(params, 0.0, weights, pt, 1, grid=grid)
    rhs = gf.gf_rhs_order(params, 0.0, weights, pt, 1, grid=grid)
    res = gf.gf_order1_origin_residue(params, 0.0, weights, pt, grid=grid)
    assert oracles.check_order1(lhs, rhs, res) is None
    assert oracles.check_order1(lhs, rhs, res + 1e-8) is not None


def test_order2_check_rejects_a_perturbed_value():
    params, weights, pt, grid = _gf_case(2, 3, 16)
    lhs = gf.gf_lhs_order(params, 0.0, weights, pt, 2, grid=grid)
    oracle = sum(
        w * itf.y_n_term_closed(params, 0.0, 2, itf.AlphaChain(chain), pt, grid)
        for chain, w in oracles.order2_chain_weights(0.75, weights.s.values, 3)
    )
    assert oracles.check_order2(lhs, oracle) is None
    assert oracles.check_order2(lhs * (1 + 1e-10), oracle) is not None


def test_verify_check_rejects_a_wrong_verdict():
    report = {"pass": True, "gap": 1e-16}
    assert oracles.check_verify("ode", 0, report) is None
    assert oracles.check_verify("ode", 1, report) is not None
    assert oracles.check_verify("gf-order1", 0, report) is not None
    assert oracles.check_verify("ode", 0, {"pass": False, "gap": 1e-16}) is not None
    assert oracles.check_verify("ode", 0, {"pass": True, "gap": float("nan")}) is not None


def _sweep(a_max):
    op = {"a_max": a_max, "grid": {"s0": [0.1, 0.3], "xi": [0.1], "rho": [0.5]}}
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(workloads.SweepOrder0.argv(op))
    return oracles.sweep_rows(buf.getvalue()), code


def test_sweep_check_rejects_a_failing_row():
    rows, code = _sweep(30)
    assert oracles.check_sweep(rows, code, 2, 30) is None
    rows[1]["passed"] = "false"
    assert oracles.check_sweep(rows, code, 2, 30) is not None
    assert oracles.check_sweep(rows[:1], code, 2, 30) is not None


def test_sweep_overflow_is_the_known_defect_only_past_its_threshold():
    with pytest.warns(RuntimeWarning):
        rows, code = _sweep(90)
    reason = oracles.check_sweep(rows, code, 2, 90)
    assert reason.startswith(oracles.KNOWN_DEFECT)
    # the same nan rows below the overflow threshold are an ordinary failure
    reason = oracles.check_sweep(rows, code, 2, 40)
    assert reason is not None and not reason.startswith(oracles.KNOWN_DEFECT)


# ---------------------------------------------------------------- tracing

def test_self_time_on_a_synthetic_span_tree():
    # root [0, 10] with 1 s of leaf calls; a [1, 4]; b [5, 9] holding c [6, 8]
    spans = [
        ["m.root", tracer.NO_PARENT, 0.0, 10.0, 1.0],
        ["m.a", 0, 1.0, 4.0, 0.0],
        ["m.b", 0, 5.0, 9.0, 0.0],
        ["m.c", 2, 6.0, 8.0, 0.5],
        ["m.a", 2, 8.5, 9.0, 0.0],
    ]
    folded = tracer.fold(spans)
    assert folded["m.root"] == [1, 10.0, 10.0 - 3.0 - 4.0 - 1.0]
    assert folded["m.b"] == [1, 4.0, 4.0 - 2.0 - 0.5]
    assert folded["m.c"] == [1, 2.0, 1.5]
    assert folded["m.a"] == [2, 3.5, 3.5]


def test_verify_left_side_is_span_minus_its_rhs_child():
    spans = [
        ["generating_functions.gf_verify_order[1]", tracer.NO_PARENT, 0.0, 5.0, 0.0],
        ["generating_functions.gf_rhs_order[1]", 0, 4.0, 4.5, 0.0],
        ["generating_functions.gf_rhs_order[1]", tracer.NO_PARENT, 6.0, 7.0, 0.0],
    ]
    assert tracer.verify_lhs_seconds(spans) == {"1": 4.5}
    m = tracer.op_metrics(spans, {})
    assert m["generating_functions.lhs1_s"] == 4.5
    assert m["generating_functions.rhs1_s"] == 1.5
    assert m["generating_functions.self_s"] == 4.5 + 1.5


def test_tracer_counts_leaves_and_restores_bindings():
    original = itf.pochhammer, itf.base_series_coefficients, gf.base_series_coefficients
    active = tracer.Tracer().install()
    try:
        assert gf.base_series_coefficients is itf.base_series_coefficients
        assert itf.base_series_coefficients is not original[1]
        gf.base_series_coefficients(5, 0.0)
    finally:
        active.uninstall()
    assert (itf.pochhammer, itf.base_series_coefficients,
            gf.base_series_coefficients) == original
    m = tracer.op_metrics(active.spans, active.leaves)
    assert m["integral_forms.base_series.calls"] == 1
    assert m["scalar_kernels.pochhammer.calls"] == 4 * 6
    assert m["integral_forms.self_s"] + m["scalar_kernels.self_s"] == pytest.approx(
        m["integral_forms.base_series_s"])


def test_importtime_parse():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |     numpy",
        "import time:        50 |         50 |       scipy._lib",
        "import time:        20 |         70 |     scipy",
        "import time:        30 |        200 |     scipy.special",
        "import time:        10 |        400 |   lame3trf.integral_forms",
        "import time:         5 |        405 | lame3trf.cli",
        "import time:         1 |          1 | lame3trf",
    ])
    assert run.parse_importtime(text) == (406e-6, 270e-6)


def test_tail_percentile_keeps_ten_samples_beyond():
    assert run.tail_percentile(19) is None
    assert run.tail_percentile(20) == 50
    assert run.tail_percentile(33) == 65
    assert run.tail_percentile(40) == 75
    assert run.tail_percentile(100) == 90
    assert run.tail_percentile(1000) == 99


def test_nominal_time_takes_out_the_machine_speed():
    """A machine twice as slow doubles operation and reference times alike."""
    for slow in (1.0, 2.0):
        assert reference.nominal(0.3 * slow, reference.NOMINAL_S * slow) == pytest.approx(0.3)


def test_a_child_reference_sample_is_a_time():
    assert 0 < reference.child_seconds() < 60


def test_each_operation_gets_the_reference_samples_around_it():
    samples = iter(range(1, 1000))

    def decks():
        while True:
            yield [0, 1, 2]

    untraced, _ = run.measure(decks(), 0.05, lambda _: time.sleep(0.005) or {},
                              reference=lambda: float(next(samples)))
    # a sample opens each deck and follows each operation
    assert [r["ref"] for r in untraced.records[:6]] == [1.5, 2.5, 3.5, 5.5, 6.5, 7.5]
    assert untraced.busy < 0.1  # the samples stay outside the timed region


def test_one_disturbed_reference_sample_does_not_move_the_nominal_times():
    pass_ = run.Pass()
    refs = [0.02, 0.02, 0.02, 0.2, 0.02, 0.02, 0.02]
    pass_.records = [{"wall": 0.5, "ref": r} for r in refs]
    assert run.nominal_walls(pass_) == pytest.approx([0.5 * reference.NOMINAL_S / 0.02] * 7)


def test_traced_decks_interleave_with_a_full_untraced_pass():
    """Untraced decks fill `seconds`; traced decks, run between them, take about half."""
    log = []

    def decks():
        while True:
            yield [0, 1]

    def op(kind):
        def run_op(_):
            log.append(kind)
            time.sleep(0.005)
            return {}
        return run_op

    untraced, traced = run.measure(decks(), 0.2, op("u"), traced_op=op("t"),
                                   reference=None)
    assert untraced.busy == pytest.approx(0.2, abs=0.011)
    assert traced.busy == pytest.approx(run.TRACED_SHARE * untraced.busy, abs=0.011)
    first_t, last_t = log.index("t"), len(log) - 1 - log[::-1].index("t")
    assert "u" in log[first_t:last_t]  # traced decks are spread, not one block
    assert len(untraced.records) == log.count("u")


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "gf-deep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
