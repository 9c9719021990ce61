"""The three workloads: seeded inputs, how one operation runs, and its check.

Inputs come in decks.  A deck holds one operation of every kind the workload
has, with fresh seeded parameters, in a seeded order.  A run issues whole
decks, so every run measures the same mix of operation costs whatever the
seed.  Only the generated inputs reach the program.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np

import oracles
import reference
import tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"


def child_env():
    """The caller's environment with the checkout's sources first on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p
    )
    return env


def _u(rng, lo, hi, digits=4):
    return round(float(rng.uniform(lo, hi)), digits)


def _cpu_children():
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


class CliVerify:
    """One `python -m lame3trf.cli ...` subprocess per operation."""

    name = "cli-verify"
    setup_code = "import lame3trf.cli"
    in_process = False
    # the operations run in child processes, so the speed they see is sampled
    # in a child too; a sample in the benchmark's own process does not follow it
    reference = staticmethod(reference.child_seconds)

    def __init__(self):
        self.env = child_env()

    def prepare(self):
        pass

    def decks(self, seed):
        rng = np.random.default_rng(seed)
        while True:
            ops = [{"kind": "verify", "target": t} for t in oracles.VERIFY_EXIT]
            # eval-series once per exponent family: 11 kinds put the median
            # inside a cluster of similar calls, not between two
            for lam in (0.0, 0.5):
                ops.append({
                    "kind": "eval-series", "rho": _u(rng, 0.2, 0.9), "h": _u(rng, -3, 3),
                    "alpha": _u(rng, 0, 8), "lambda": lam, "xi": _u(rng, 0.02, 0.45),
                })
            ops.append({"kind": "eval-sn", "rho": _u(rng, 0.1, 0.9), "z": _u(rng, -3, 3)})
            ops.append({"kind": "heun-map", "rho": _u(rng, 0.2, 0.9),
                        "h": _u(rng, -3, 3), "alpha": _u(rng, 0, 8)})
            yield [ops[i] for i in rng.permutation(len(ops))]

    @staticmethod
    def label(op):
        return op.get("target") or f"{op['kind']}-{op.get('lambda', '')}".rstrip("-")

    @staticmethod
    def argv(op):
        if op["kind"] == "verify":
            return ["verify", op["target"], "--format", "json"]
        flags = [f"--{k}={v!r}" for k, v in op.items() if k != "kind"]
        return [op["kind"], *flags, "--format", "json"]

    def _spawn(self, cmd):
        cpu0 = _cpu_children()
        proc = subprocess.run(cmd, env=self.env, cwd=ROOT, capture_output=True,
                              text=True, timeout=120)
        return {"code": proc.returncode, "stdout": proc.stdout,
                "stderr": proc.stderr, "cpu_s": _cpu_children() - cpu0}

    def run(self, op):
        return self._spawn([sys.executable, "-m", "lame3trf.cli", *self.argv(op)])

    def run_traced(self, op, _tracer):
        out = self._spawn([sys.executable, str(BENCH_DIR / "tracer.py"), *self.argv(op)])
        lines = [ln for ln in out["stderr"].splitlines()
                 if ln.startswith(tracer.TRACE_MARKER)]
        if not lines:
            raise RuntimeError(f"traced child left no trace: {out['stderr'][-400:]}")
        out["trace"] = json.loads(lines[-1][len(tracer.TRACE_MARKER):])
        return out

    def check(self, op, out):
        """Failure reason (or None) and the gaps the operation produced."""
        kind = op["kind"]
        if kind == "verify":
            # a one-line PASS/FAIL summary precedes the JSON report
            report = json.loads(out["stdout"].split("\n", 1)[1])
            gaps = {}
            if op["target"] == "gf-order0":
                gaps["order0_gap_max"] = report["gap"]
            elif op["target"] == "gf-order2":
                gaps["order2_gap_max"] = report["gap"]
            return oracles.check_verify(op["target"], out["code"], report), gaps
        if out["code"] != 0:
            return f"{kind} exited {out['code']}: {out['stderr'][-200:]}", {}
        obj = json.loads(out["stdout"])
        if kind == "eval-series":
            return oracles.check_series(op["rho"], op["h"], op["alpha"], op["lambda"],
                                        op["xi"], 40, obj["value"]), {}
        if kind == "eval-sn":
            return oracles.check_sn(op["rho"], obj["sn"], obj["cn"], obj["dn"]), {}
        return oracles.check_heun(op["rho"], op["h"], op["alpha"], obj["heun"]), {}


class InProcess:
    """A workload that calls the library in the benchmark's own process."""

    in_process = True
    reference = staticmethod(reference.seconds)

    def run_traced(self, op, active):
        active.reset()
        out = self.run(op)
        out["trace"] = tracer.op_metrics(active.spans, active.leaves)
        return out


class GfDeep(InProcess):
    """In-process order-1 (corrected) and order-2 (as written) identity checks."""

    name = "gf-deep"
    setup_code = (
        "import lame3trf.generating_functions\n"
        "from lame3trf.integral_forms import make_quadrature_grid\n"
        "for lam in (0.0, 0.5):\n"
        "    make_quadrature_grid(lam, 1, nodes=64)\n"
        "    make_quadrature_grid(lam, 2, nodes=32)\n"
    )
    ORDER1_A = (18, 21, 24)
    ORDER2_A = (7, 9)
    ORACLE_SHARE = 0.25  # order-2 operations also checked against the chain sum

    def prepare(self):
        from lame3trf import generating_functions, integral_forms, lame_series

        self.gf, self.itf, self.ls = generating_functions, integral_forms, lame_series
        self.grids = {
            lam: (integral_forms.make_quadrature_grid(lam, 1, nodes=64),
                  integral_forms.make_quadrature_grid(lam, 2, nodes=32))
            for lam in (0.0, 0.5)
        }

    def decks(self, seed):
        rng = np.random.default_rng(seed)

        def draw(order, a_max):
            return {
                "order": order, "a_max": a_max,
                "rho": _u(rng, 0.3, 0.8), "h": _u(rng, -2, 2), "alpha": _u(rng, 0, 6),
                "xi": _u(rng, 0.05, 0.3), "lambda": float(rng.choice([0.0, 0.5])),
                "s": [_u(rng, 0.05, 0.25) for _ in range(3)],
                "oracle": order == 2 and bool(rng.random() < self.ORACLE_SHARE),
            }

        while True:
            ops = [draw(1, a) for a in self.ORDER1_A] + [draw(2, a) for a in self.ORDER2_A]
            yield [ops[i] for i in rng.permutation(len(ops))]

    @staticmethod
    def label(op):
        return f"order{op['order']}-A{op['a_max']}"

    def _args(self, op):
        lam = op["lambda"]
        params = self.ls.LameParams(rho=op["rho"], alpha=op["alpha"], h=op["h"])
        pt = self.ls.EvaluationPoint.from_xi(op["xi"], op["rho"])
        weights = self.gf.GFWeights(lam + 0.75, self.itf.SParameters(tuple(op["s"])),
                                    op["a_max"], 2)
        grid = self.grids[lam][op["order"] - 1]
        return params, lam, weights, pt, grid

    def run(self, op):
        params, lam, weights, pt, grid = self._args(op)
        gf = self.gf
        if op["order"] == 2:
            return {
                "lhs": gf.gf_lhs_order(params, lam, weights, pt, 2, grid=grid),
                "rhs": gf.gf_rhs_order(params, lam, weights, pt, 2, grid=grid),
            }
        out = {}
        for p in (1, 2):
            out[p] = (
                gf.gf_lhs_order(params, lam, weights, pt, 1, grid=grid, op_power=p),
                gf.gf_rhs_order(params, lam, weights, pt, 1, grid=grid, op_power=p),
                gf.gf_order1_origin_residue(params, lam, weights, pt, grid=grid,
                                            op_power=p),
            )
        return out

    def order2_chain_sum(self, op):
        """Left side of the order-2 identity summed chain by chain."""
        params, lam, weights, pt, grid = self._args(op)
        total = 0.0
        for chain, weight in oracles.order2_chain_weights(lam + 0.75, op["s"], op["a_max"]):
            total += weight * self.itf.y_n_term_closed(
                params, lam, 2, self.itf.AlphaChain(chain), pt, grid
            )
        return total

    def check(self, op, out):
        if op["order"] == 2:
            lhs, rhs = out["lhs"], out["rhs"]
            if not (math.isfinite(lhs) and math.isfinite(rhs)):
                return f"order-2 sides not finite: {lhs!r} {rhs!r}", {}
            reason = None
            if op["oracle"]:
                reason = oracles.check_order2(lhs, self.order2_chain_sum(op))
            return reason, {"order2_gap_max": abs(lhs - rhs)}
        closures = []
        for p in (1, 2):
            reason = oracles.check_order1(*out[p])
            if reason:
                return f"op_power={p}: {reason}", {}
            closures.append(oracles.order1_closure(*out[p]))
        return None, {"order1_closure_max": max(closures)}


class SweepOrder0(InProcess):
    """In-process `lame3trf.cli.main(["sweep", "gf-order0", ...])` calls."""

    name = "sweep-order0"
    setup_code = "import lame3trf.cli"
    # one --amax near each rung per deck, drawn within AMAX_JITTER of it;
    # kappa overflows from alpha_0 = 86 on, so the last rung hits the known
    # defect on every deck.  The cost of a call grows about as amax^2.5, so
    # adjacent rungs differ by half and more and the median operation is
    # always a call near the middle rung; the narrow draw keeps every seed's
    # deck about as costly as every other's.
    AMAX_RUNGS = (44, 56, 68, 80, 92)
    AMAX_JITTER = 1
    AXIS_RANGE = {"s0": (0.05, 0.5), "xi": (0.05, 0.3), "rho": (0.3, 0.8)}

    def prepare(self):
        from lame3trf import cli

        self.cli = cli

    def decks(self, seed):
        rng = np.random.default_rng(seed)
        while True:
            ops = []
            for rung in self.AMAX_RUNGS:
                grid = {ax: sorted({_u(rng, lo_v, hi_v) for _ in range(2)})
                        for ax, (lo_v, hi_v) in self.AXIS_RANGE.items()}
                a_max = rung + int(rng.integers(-self.AMAX_JITTER, self.AMAX_JITTER + 1))
                ops.append({"a_max": a_max, "grid": grid})
            yield [ops[i] for i in rng.permutation(len(ops))]

    @classmethod
    def label(cls, op):
        rung = min(cls.AMAX_RUNGS, key=lambda r: abs(r - op["a_max"]))
        return f"amax{rung}"

    @staticmethod
    def argv(op):
        argv = ["sweep", "gf-order0", "--amax", str(op["a_max"])]
        for ax, values in op["grid"].items():
            argv += ["--grid", f"{ax}=" + ",".join(repr(v) for v in values)]
        return argv

    def run(self, op):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = self.cli.main(self.argv(op))
        return {"code": code, "stdout": buf.getvalue()}

    def check(self, op, out):
        rows = oracles.sweep_rows(out["stdout"])
        n_points = math.prod(len(v) for v in op["grid"].values())
        gaps = [float(r["gap"]) for r in rows]
        finite = [g for g in gaps if math.isfinite(g)]
        return (oracles.check_sweep(rows, out["code"], n_points, op["a_max"]),
                {"order0_gap_max": max(finite)} if finite else {})


WORKLOADS = {w.name: w for w in (CliVerify, GfDeep, SweepOrder0)}
