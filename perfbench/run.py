"""lame3trf benchmark: one workload, one seed, one closed-loop client.

    python3 perfbench/run.py --workload {cli-verify,gf-deep,sweep-order0} \
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the program is imported from its `src/`.
One client issues one operation at a time and waits for it (closed loop).
Every operation's output is checked after the timed region.

--trace 0 measures the end-to-end metrics with tracing off.  --trace 1 runs
the same untraced decks and, interleaved with them, traced decks for about
half as long again; it reports per-layer metrics.  The
last line of stdout is the result JSON; the line before it records the
environment, the raw timings, the tail percentile used and the reasons of any
failures.

The end-to-end times are given at a nominal machine speed.  The reference
loop of reference.py is timed, outside the timed region, around every
untraced operation and every set-up child, in the process where that work
runs; each time is scaled by reference.NOMINAL_S over the median of the
reference times beside it.  A shared machine's speed swings by half and
more over minutes, and the scaling takes that swing out of the comparison of
two runs made at different times.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter, process_time

import oracles
import reference
import tracer
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

SETUP_REPEATS = 7
REF_WINDOW = 5  # operations whose reference samples scale each operation
SPAWN_REPEATS = 5
IMPORTTIME_REPEATS = 3
TAIL_PERCENTILES = (*range(50, 100, 5), 99, 99.9)
TAIL_MIN_BEYOND = 10
TRACED_SHARE = 0.5

END_TO_END = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_s": "s"}


def tail_percentile(n):
    """Highest percentile of the fixed ladder with at least ten samples beyond it."""
    fit = [p for p in TAIL_PERCENTILES if n * (100 - p) / 100 >= TAIL_MIN_BEYOND]
    return max(fit) if fit else None


def percentile(values, p):
    """Linear-interpolated percentile of values (0 <= p <= 100)."""
    xs = sorted(values)
    pos = (len(xs) - 1) * p / 100
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def child_seconds(cmd, env, repeats):
    """Median wall time of a child process run `repeats` times."""
    times = []
    for _ in range(repeats):
        t0 = perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True, capture_output=True,
                       timeout=120)
        times.append(perf_counter() - t0)
    return statistics.median(times)


def setup_seconds(cmd, env, repeats):
    """Wall times of `repeats` set-up children, and the reference samples
    taken in a child process before each child and after the last."""
    walls, refs = [], [reference.child_seconds()]
    for _ in range(repeats):
        t0 = perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True, capture_output=True,
                       timeout=120)
        walls.append(perf_counter() - t0)
        refs.append(reference.child_seconds())
    return walls, refs


def parse_importtime(text):
    """Seconds importing lame3trf, and the part of it spent importing scipy.

    `-X importtime` prints one line per module after its children, indented
    two spaces per nesting level, with self and cumulative microseconds.
    """
    rows = []
    for line in text.splitlines():
        if not line.startswith("import time:") or "cumulative" in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        depth = (len(name) - len(name.lstrip(" ")) - 1) // 2
        rows.append((depth, name.strip(), int(cumulative)))

    def is_scipy(name):
        return name == "scipy" or name.startswith("scipy.")

    lame_us = sum(c for d, n, c in rows if d == 0 and n.split(".")[0] == "lame3trf")
    scipy_us = 0
    for i, (depth, name, cumulative) in enumerate(rows):
        if not is_scipy(name):
            continue
        parent = next((n for d, n, _ in rows[i + 1:] if d < depth), None)
        if parent is None or not is_scipy(parent):
            scipy_us += cumulative
    return lame_us / 1e6, scipy_us / 1e6


def import_seconds(env):
    runs = []
    for _ in range(IMPORTTIME_REPEATS):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import lame3trf.cli"],
                              env=env, cwd=ROOT, check=True, capture_output=True,
                              text=True, timeout=120)
        runs.append(parse_importtime(proc.stderr))
    return (statistics.median(r[0] for r in runs), statistics.median(r[1] for r in runs))


def environment():
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "thread_env": {k: os.environ.get(k) for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "generator": "one process, one closed-loop client",
    }


class Pass:
    """Timed operations of the decks of one kind (untraced or traced) in a run.

    With `reference`, reference samples are taken outside the timed region,
    at the start of each deck and after every operation; each record keeps
    the mean of the samples just before and just after it as "ref".
    """

    def __init__(self, reference=None):
        self.reference = reference
        self.records = []
        self.deck_walls = []
        self.cpu_s = 0.0

    @property
    def busy(self):
        return sum(self.deck_walls)

    def typical_deck(self):
        return statistics.median(self.deck_walls) if self.deck_walls else 0.0

    def ops_per_s(self):
        """Operations over the time the decks were busy.

        The machine's speed swings in episodes of some seconds; a mean over
        the run moves smoothly with the share of slow time, a median deck
        jumps between the fast and the slow speed.
        """
        return len(self.records) / self.busy

    def run_deck(self, deck, run_op):
        deck_wall = 0.0
        before = self.reference() if self.reference else None
        for op in deck:
            cpu0 = process_time()
            t0 = perf_counter()
            try:
                out = run_op(op)
            except Exception:  # the loop must go on; the failure is counted
                out = {"error": traceback.format_exc(limit=3)}
            wall = perf_counter() - t0
            self.cpu_s += process_time() - cpu0
            rec = {"op": op, "out": out, "wall": wall}
            if self.reference is not None:
                after = self.reference()
                rec["ref"] = (before + after) / 2
                before = after
            self.records.append(rec)
            deck_wall += wall
        self.deck_walls.append(deck_wall)

    def cpu_over_wall(self):
        return self.cpu_s / self.busy


def measure(decks, seconds, run_op, traced_op=None, traced_ctx=contextlib.nullcontext,
            reference=reference.seconds):
    """Issue whole decks until the untraced decks have run for about `seconds`.

    A further deck is issued only if it is expected to end nearer to `seconds`
    than the run stands now.  Untraced operations are bracketed by
    `reference` samples.  With `traced_op`, traced decks, each run inside
    `traced_ctx()`, are interleaved with the untraced ones and get about
    TRACED_SHARE of the untraced time, so a change in machine speed hits both
    kinds alike.
    """
    untraced, traced = Pass(reference), Pass()
    while True:
        if traced_op is not None and traced.busy < TRACED_SHARE * untraced.busy:
            with traced_ctx():
                traced.run_deck(next(decks), traced_op)
        elif not untraced.deck_walls or untraced.busy + untraced.typical_deck() / 2 < seconds:
            untraced.run_deck(next(decks), run_op)
        else:
            return untraced, traced


def check_all(workload, records):
    """Failure reason per record (None when correct), and the largest gaps."""
    gaps, reasons = {}, []
    for rec in records:
        out = rec["out"]
        if "error" in out:
            reasons.append("exception: " + out["error"].strip().splitlines()[-1])
            continue
        try:
            reason, op_gaps = workload.check(rec["op"], out)
        except Exception:
            reason, op_gaps = "check raised: " + traceback.format_exc(limit=2), {}
        reasons.append(reason)
        for key, value in op_gaps.items():
            gaps[key] = max(gaps.get(key, 0.0), float(value))
    return reasons, gaps


def nominal_walls(run):
    """Operation times of an untraced pass at the nominal machine speed.

    Each time is scaled by the median reference time of the REF_WINDOW
    operations around it: that follows the machine's speed through the run,
    but not one disturbed sample, such as one taken while the machine is
    still tearing down a child process.
    """
    refs = [r["ref"] for r in run.records]
    h = REF_WINDOW // 2
    return [reference.nominal(r["wall"], statistics.median(refs[max(0, i - h):i + h + 1]))
            for i, r in enumerate(run.records)]


def tail_seconds(walls):
    """Operation time at the tail percentile, and the percentile used."""
    p_tail = tail_percentile(len(walls))
    return percentile(walls, 100 if p_tail is None else p_tail), p_tail


def timing_metrics(workload, run):
    """Rate and median operation time at the nominal speed, and the raw figures."""
    walls = nominal_walls(run)
    by_kind = {}
    for r, wall in zip(run.records, walls):
        by_kind.setdefault(workload.label(r["op"]), []).append(wall)
    tail, p_tail = tail_seconds(walls)
    raw_walls = [r["wall"] for r in run.records]
    return {
        "ops_per_s": len(walls) / sum(walls),
        "op_p50_s": statistics.median(walls),
    }, {"raw": {"ops_per_s": run.ops_per_s(), "op_p50_s": statistics.median(raw_walls)},
        "samples": len(walls), "decks": len(run.deck_walls), "busy_s": run.busy,
        "op_walls": [round(w, 6) for w in raw_walls],
        "op_refs": [round(r["ref"], 7) for r in run.records],
        "op_tail_s": tail, "tail_percentile": p_tail,
        "p50_by_kind": {k: statistics.median(v) for k, v in sorted(by_kind.items())}}


def layer_metrics(workload, untraced, traced, env):
    """Per-layer metrics of a traced run (means per traced operation)."""
    n = len(traced.records)
    wall = sum(r["wall"] for r in traced.records)
    sums = {}
    for rec in traced.records:
        for key, value in rec["out"].get("trace", {}).items():
            sums[key] = sums.get(key, 0.0) + value
    m = {k: v / n for k, v in sums.items() if k != "cli.main_s"}
    for mod in tracer.MODULES:
        m[f"{mod}.share"] = sums.get(f"{mod}.self_s", 0.0) / wall
    m["cli.startup_share"] = 0.0
    m["cli.cpu_over_wall"] = 0.0
    if not workload.in_process:
        m["cli.startup_share"] = (wall - sums.get("cli.main_s", 0.0)) / wall
        ok = [r for r in untraced.records if "cpu_s" in r["out"]]
        m["cli.cpu_over_wall"] = (sum(r["out"]["cpu_s"] for r in ok)
                                  / sum(r["wall"] for r in ok))
    m["cli.spawn_s"] = child_seconds([sys.executable, "-c", "pass"], env, SPAWN_REPEATS)
    m["cli.import_s"], m["cli.import_scipy_s"] = import_seconds(env)
    m["trace.overhead_ops_per_s"] = untraced.ops_per_s() - traced.ops_per_s()
    m["op_tail_s"], _ = tail_seconds(nominal_walls(untraced))
    return m


PER_LAYER = {
    "cli.spawn_s": "s", "cli.import_s": "s", "cli.import_scipy_s": "s",
    "cli.self_s": "s", "cli.cpu_over_wall": "1", "cli.startup_share": "frac",
    "cli.share": "frac",
    "generating_functions.lhs0_s": "s", "generating_functions.lhs1_s": "s",
    "generating_functions.lhs2_s": "s", "generating_functions.rhs0_s": "s",
    "generating_functions.rhs1_s": "s", "generating_functions.rhs2_s": "s",
    "generating_functions.origin_residue_s": "s", "generating_functions.self_s": "s",
    "generating_functions.share": "frac",
    "generating_functions.order0_gap_max": "1",
    "generating_functions.order1_closure_max": "1",
    "generating_functions.order2_gap_max": "1",
    "integral_forms.y_n_term_closed_s": "s", "integral_forms.y_n_term_closed.calls": "count",
    "integral_forms.base_series_s": "s", "integral_forms.base_series.calls": "count",
    "integral_forms.quadrature_grid_s": "s", "integral_forms.contour_s": "s",
    "integral_forms.self_s": "s", "integral_forms.share": "frac",
    "lame_series.series_s": "s", "lame_series.self_s": "s", "lame_series.share": "frac",
    "scalar_kernels.pochhammer_s": "s", "scalar_kernels.pochhammer.calls": "count",
    "scalar_kernels.gauss_2f1_s": "s", "scalar_kernels.lemma1_s": "s",
    "scalar_kernels.sn_s": "s", "scalar_kernels.self_s": "s",
    "scalar_kernels.share": "frac",
    "trace.overhead_ops_per_s": "1/s", "failed_frac": "frac", "op_tail_s": "s",
}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True,
                        choices=("cli-verify", "gf-deep", "sweep-order0"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")

    if not (SRC / "lame3trf" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no lame3trf sources under {SRC}\n")
        return 2
    sys.path.insert(0, str(SRC))
    import lame3trf

    if not Path(lame3trf.__file__).resolve().is_relative_to(SRC):
        sys.stderr.write(f"perfbench: lame3trf imported from {lame3trf.__file__}\n")
        return 2

    load_before = os.getloadavg()
    env = workloads.child_env()
    workload = workloads.WORKLOADS[args.workload]()
    setup_walls, setup_refs = setup_seconds(
        [sys.executable, "-c", workload.setup_code], env, SETUP_REPEATS)
    workload.prepare()
    decks = workload.decks(args.seed)

    if not args.trace:
        untraced, _ = measure(decks, args.seconds, workload.run,
                              reference=workload.reference)
        records = untraced.records
    else:
        active = tracer.Tracer()
        untraced, traced = measure(
            decks, args.seconds, workload.run,
            traced_op=lambda op: workload.run_traced(op, active),
            traced_ctx=active.installed if workload.in_process else contextlib.nullcontext,
            reference=workload.reference)
        records = untraced.records + traced.records

    reasons, gaps = check_all(workload, records)
    # `failed` counts unexpected failures; failed_frac also counts the
    # operations that hit a documented known defect
    failing = [r for r in reasons if r is not None]
    failed = sum(not r.startswith(oracles.KNOWN_DEFECT) for r in failing)
    detail = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "environment": environment(), "load_before": load_before,
              "bench_process_cpu_over_wall": untraced.cpu_over_wall()}

    if not args.trace:
        metrics, info = timing_metrics(workload, untraced)
        info["raw"]["setup_s"] = statistics.median(setup_walls)
        metrics["setup_s"] = reference.nominal(info["raw"]["setup_s"],
                                               statistics.median(setup_refs))
        info["setup_walls"] = setup_walls
        detail.update(info)
    else:
        metrics = layer_metrics(workload, untraced, traced, env)
        for key in ("order0_gap_max", "order1_closure_max", "order2_gap_max"):
            metrics[f"generating_functions.{key}"] = gaps.get(key, 0.0)
        metrics["failed_frac"] = len(failing) / len(records)
        detail["samples"] = {"untraced": len(untraced.records),
                             "traced": len(traced.records)}
        detail["tail_percentile"] = tail_percentile(len(untraced.records))
    units = PER_LAYER if args.trace else END_TO_END
    if set(metrics) != set(units):
        raise RuntimeError(f"metric set mismatch: {sorted(set(metrics) ^ set(units))}")
    detail["failures"] = {}
    for reason in failing:
        key = reason[:160]
        detail["failures"][key] = detail["failures"].get(key, 0) + 1
    detail["known_defect_ops"] = len(failing) - failed
    detail["load_after"] = os.getloadavg()
    # the machine's speed: median reference sample at set-up and in the run
    detail["reference_ms"] = [statistics.median(setup_refs) * 1e3,
                              statistics.median(r["ref"] for r in untraced.records) * 1e3]
    print(json.dumps({"detail": detail}, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in sorted(metrics.items())},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
