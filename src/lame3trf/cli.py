"""Command-line front end: series evaluation, identity verification, sweeps.

Exit codes: 0 success / verification pass, 1 numerical verification failure,
2 usage error.  Output is deterministic: CSV uses snake_case headers and 17
significant digits, JSON reports use sorted keys, and sampled verifications
draw from a fixed seed, so re-running a command reproduces the bytes exactly.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import sys
import warnings
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from .scalar_kernels import (
    ConvergenceError,
    InvalidParameterError,
    SingularValueError,
    _principal_sqrt,
    jacobi_sn_cn_dn,
    lemma1_identity,
)
from .lame_series import (
    EvaluationPoint,
    LameParams,
    eval_series,
    eval_series_derivatives,
    heun_correspondence,
    ode_residual,
    series_coefficients,
)
from .integral_forms import SParameters, contour_integral, make_quadrature_grid
from .generating_functions import GFWeights, gf_verify_order, kernel_A, kernel_B

__all__ = ["RunConfig", "main", "run", "sweep_table"]

_SWEEP_TARGETS = ("eval-series", "gf-order0")
_RESIDUE_SEED = 20240817

_GF_ORDER_DEFAULTS = {
    # order: (a_max, nodes, contour_m, tolerance)
    0: (60, 64, 512, 1e-8),
    1: (30, 64, 512, 1e-6),
    2: (10, 32, 256, 1e-4),
}


class UsageError(Exception):
    """Invalid flags, config values, or parameter ranges (exit code 2)."""


@dataclass
class RunConfig:
    """Effective parameters of one CLI invocation after flag/file/default merge."""

    command: str
    target: str | None = None
    rho: float = 0.5
    h: float = 1.0
    alpha: float = 3.0
    lam: float = 0.0
    xi: float = 0.1
    z: float | None = None
    n_terms: int | None = None
    s: tuple = (0.3, 0.2, 0.1)
    gamma: float | None = None
    k: int | None = None
    n_max: int = 1
    a_max: int | None = None
    nodes: int | None = None
    contour_m: int | None = None
    tol: float | None = None
    fmt: str = "csv"
    out: str | None = None
    full_grid: bool = False
    grid_axes: dict = field(default_factory=dict)


# --------------------------------------------------------------- formatting

def _fmt_cell(v):
    """One CSV cell: bools as true/false, ints plain, floats at 17 digits."""
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, str):
        return v
    return "%.17g" % float(v)


def _csv_text(header, rows):
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt_cell(v) for v in row))
    return "\n".join(lines) + "\n"


def _json_text(obj):
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _emit(text, out):
    if out is None:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise UsageError(f"cannot write {out}: {exc}") from exc


def _params_dict(cfg, **extra):
    """Effective parameters for the machine-readable report."""
    d = {
        "rho": float(cfg.rho),
        "h": float(cfg.h),
        "alpha": float(cfg.alpha),
        "lambda": float(cfg.lam),
        "xi": float(cfg.xi),
        "z": None if cfg.z is None else float(cfg.z),
        "n_terms": None if cfg.n_terms is None else int(cfg.n_terms),
        "s": [float(v) for v in cfg.s],
        "gamma": None if cfg.gamma is None else float(cfg.gamma),
        "k": len(cfg.s) - 1,
        "n_max": int(cfg.n_max),
        "a_max": None if cfg.a_max is None else int(cfg.a_max),
        "nodes": None if cfg.nodes is None else int(cfg.nodes),
        "contour_m": None if cfg.contour_m is None else int(cfg.contour_m),
        "tol": None if cfg.tol is None else float(cfg.tol),
    }
    d.update(extra)
    return d


def _report_obj(command, params, lhs, rhs, gap, tail, ok):
    return {
        "command": command,
        "params": params,
        "lhs_re": float(np.real(lhs)),
        "lhs_im": float(np.imag(lhs)),
        "rhs_re": float(np.real(rhs)),
        "rhs_im": float(np.imag(rhs)),
        "gap": float(gap),
        "tail_estimate": float(tail),
        "pass": bool(ok),
    }


def _emit_record(cfg, header, row, fields, **params):
    """One-record output: a single CSV row, or a JSON report holding fields."""
    if cfg.fmt == "json":
        obj = {"command": cfg.command, "params": _params_dict(cfg, **params)}
        obj.update(fields)
        _emit(_json_text(obj), cfg.out)
    else:
        _emit(_csv_text(header, [row]), cfg.out)
    return 0


def _emit_verify(cfg, name, ok, summary, report, header, rows):
    sys.stdout.write(("PASS " if ok else "FAIL ") + name + ": " + summary + "\n")
    if cfg.fmt == "json":
        _emit(_json_text(report), cfg.out)
    elif cfg.out is not None:
        _emit(_csv_text(header, rows), cfg.out)
    return 0 if ok else 1


# ------------------------------------------------------------ config plumbing

_FILE_KEYS = {
    "rho": "rho", "h": "h", "alpha": "alpha", "lambda": "lam", "xi": "xi",
    "z": "z", "N": "n_terms", "s": "s", "gamma": "gamma", "K": "k",
    "nmax": "n_max", "amax": "a_max", "nodes": "nodes",
    "contour_m": "contour_m", "tol": "tol", "format": "fmt", "out": "out",
    "full_grid": "full_grid", "grid": "grid_axes",
}


def _parse_s(raw):
    if isinstance(raw, (list, tuple)):
        vals = [float(v) for v in raw]
    else:
        try:
            vals = [float(p) for p in str(raw).split(",") if p.strip() != ""]
        except ValueError as exc:
            raise UsageError(f"cannot parse --s value {raw!r}") from exc
    if not vals:
        raise UsageError("--s needs at least one value")
    return tuple(vals)


def _parse_grid_axes(entries, s_len):
    axes = {}
    allowed = {"rho", "h", "alpha", "xi"} | {f"s{i}" for i in range(s_len)}
    for entry in entries:
        if isinstance(entries, dict):
            name, vals = entry, entries[entry]
        else:
            name, _, tail = entry.partition("=")
            if not tail:
                raise UsageError(f"grid axis {entry!r} is not name=v1,v2,...")
            vals = tail.split(",")
        name = name.strip()
        if name not in allowed:
            raise UsageError(
                f"unknown sweep axis {name!r}; choose from {sorted(allowed)}"
            )
        try:
            axes[name] = tuple(sorted(float(v) for v in vals))
        except (TypeError, ValueError) as exc:
            raise UsageError(f"bad values for sweep axis {name!r}") from exc
        if not axes[name]:
            raise UsageError(f"sweep axis {name!r} has no values")
    return axes


def _load_config_file(path):
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise UsageError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise UsageError("config file must hold a flat JSON object")
    unknown = sorted(set(data) - set(_FILE_KEYS))
    if unknown:
        raise UsageError(f"unknown config keys: {', '.join(unknown)}")
    return data


def _build_config(args):
    cfg = RunConfig(command=args.command, target=getattr(args, "target", None))
    if getattr(args, "config", None) is not None:
        data = _load_config_file(args.config)
        for key, value in data.items():
            setattr(cfg, _FILE_KEYS[key], value)
    for name in (
        "rho", "h", "alpha", "lam", "xi", "z", "n_terms", "s", "gamma", "k",
        "n_max", "a_max", "nodes", "contour_m", "tol", "fmt", "out", "full_grid",
    ):
        value = getattr(args, name, None)
        if value is not None:
            setattr(cfg, name, value)
    if getattr(args, "grid", None):
        cfg.grid_axes = _parse_grid_axes(args.grid, len(_parse_s(cfg.s)))
    elif cfg.grid_axes:
        cfg.grid_axes = _parse_grid_axes(dict(cfg.grid_axes), len(_parse_s(cfg.s)))
    return cfg


def _validate(cfg):
    cfg.s = _parse_s(cfg.s)
    if cfg.lam not in (0.0, 0.5):
        raise UsageError(f"--lambda must be 0 or 0.5, got {cfg.lam}")
    if cfg.fmt not in ("csv", "json"):
        raise UsageError(f"--format must be csv or json, got {cfg.fmt!r}")
    if any(not abs(v) < 1 for v in cfg.s):
        raise UsageError("every s value must satisfy |s| < 1")
    if cfg.k is not None and cfg.k != len(cfg.s) - 1:
        raise UsageError(
            f"--K {cfg.k} does not match the {len(cfg.s)} supplied s values"
        )
    for name in ("n_terms", "a_max", "nodes", "contour_m"):
        value = getattr(cfg, name)
        if value is not None and int(value) < 1:
            raise UsageError(f"{name} must be positive")
        if value is not None:
            setattr(cfg, name, int(value))
    if cfg.n_max < 0:
        raise UsageError("nmax must be nonnegative")
    for name in ("gamma", "tol"):
        value = getattr(cfg, name)
        if value is not None and not math.isfinite(value):
            raise UsageError(f"--{name} must be finite, got {value}")
    if cfg.tol is not None and not cfg.tol > 0:
        raise UsageError("--tol must be positive")
    try:
        params = LameParams(rho=cfg.rho, alpha=cfg.alpha, h=cfg.h)
    except InvalidParameterError as exc:
        raise UsageError(str(exc)) from exc
    if cfg.z is not None:
        sn, _, _ = jacobi_sn_cn_dn(cfg.z, cfg.rho)
        cfg.xi = sn * sn
    if cfg.gamma is None:
        cfg.gamma = cfg.lam + 0.75
    elif not cfg.gamma > 0:
        raise UsageError("--gamma must be positive")
    return params


def _point(cfg):
    return EvaluationPoint.from_xi(cfg.xi, cfg.rho, z=cfg.z)


# ------------------------------------------------------------- eval commands

_SERIES_HEADER = ["rho", "h", "alpha", "lam", "xi", "n_terms", "value"]


def _series_row(cfg, params, pt):
    """Series value at pt as a row under _SERIES_HEADER (40 terms by default)."""
    n = 40 if cfg.n_terms is None else cfg.n_terms
    series = series_coefficients(params, cfg.lam, 1.0, n)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        value = eval_series(series, pt)
    return [cfg.rho, cfg.h, cfg.alpha, cfg.lam, cfg.xi, n, value]


def _run_eval_series(cfg, params):
    row = _series_row(cfg, params, _point(cfg))
    return _emit_record(
        cfg, _SERIES_HEADER, row, {"value": float(row[-1])}, n_terms=row[5]
    )


def _run_eval_sn(cfg, params):
    if cfg.z is None:
        raise UsageError("eval-sn requires --z")
    sn, cn, dn = jacobi_sn_cn_dn(cfg.z, cfg.rho)
    header = ["rho", "z", "sn", "cn", "dn", "xi"]
    row = [cfg.rho, cfg.z, sn, cn, dn, sn * sn]
    fields = {"sn": float(sn), "cn": float(cn), "dn": float(dn), "xi": float(sn * sn)}
    return _emit_record(cfg, header, row, fields)


def _run_heun_map(cfg, params):
    hp = heun_correspondence(params)
    header = [
        "rho", "h", "alpha", "gamma", "delta", "epsilon", "a",
        "alpha_h", "beta_h", "q",
    ]
    row = [
        cfg.rho, cfg.h, cfg.alpha, hp.gamma, hp.delta, hp.epsilon, hp.a,
        hp.alpha_h, hp.beta_h, hp.q,
    ]
    heun = {
        "gamma": hp.gamma, "delta": hp.delta, "epsilon": hp.epsilon,
        "a": hp.a, "alpha_h": hp.alpha_h, "beta_h": hp.beta_h, "q": hp.q,
    }
    return _emit_record(cfg, header, row, {"heun": heun})


# ----------------------------------------------------------- verify targets

def _verify_lemma1(cfg, params):
    n = 60 if cfg.n_terms is None else cfg.n_terms
    tol = 1e-9 if cfg.tol is None else cfg.tol
    pairs = ((0.75, 0.25), (1.25, 0.75), (1.3, 0.6))
    ws = (-0.3, -0.1, 0.1, 0.3)
    xs = (-0.4, 0.0, 0.3)
    header = ["gamma", "a_param", "w", "x", "n_terms", "lhs", "rhs", "gap", "passed"]
    rows, worst = [], None
    for gamma, a_param in pairs:
        for w in ws:
            for x in xs:
                # the convergence radius of the weighted sum shrinks below
                # 0.31 at x=-0.4, where |w|=0.3 cannot reach tolerance by
                # n=60; the default grid keeps the fast-converging points
                if not cfg.full_grid and x == -0.4 and abs(w) > 0.25:
                    continue
                res = lemma1_identity(gamma, a_param, w, x, n)
                ok = res["gap"] < tol
                rows.append(
                    [gamma, a_param, w, x, n, res["lhs"], res["rhs"], res["gap"], ok]
                )
                if worst is None or res["gap"] > worst[2]:
                    worst = (res["lhs"], res["rhs"], res["gap"])
    ok = all(r[-1] for r in rows)
    summary = f"points={len(rows)} max_gap={worst[2]:.3e} tol={tol:g}"
    report = _report_obj(
        "verify lemma1", _params_dict(cfg, n_terms=n, tol=tol, full_grid=cfg.full_grid),
        worst[0], worst[1], worst[2], 0.0, ok,
    )
    return _emit_verify(cfg, "lemma1", ok, summary, report, header, rows)


def _verify_ode(cfg, params):
    n = 40 if cfg.n_terms is None else cfg.n_terms
    tol = 1e-12 if cfg.tol is None else cfg.tol
    header = [
        "rho", "h", "alpha", "lam", "xi", "n_terms",
        "residual", "scale", "rel_residual", "passed",
    ]
    rows, worst = [], None
    for h in (0.0, 1.0):
        for alpha in (0.0, 3.0, 7.0):
            for lam in (0.0, 0.5):
                p = LameParams(rho=cfg.rho, alpha=alpha, h=h)
                series = series_coefficients(p, lam, 1.0, n)
                pt = EvaluationPoint.from_xi(cfg.xi, cfg.rho)
                res = ode_residual(p, series, pt, "algebraic")
                y, yp, ypp = eval_series_derivatives(series, cfg.xi)
                scale = max(abs(y), abs(yp), abs(ypp), 1e-300)
                rel = abs(res) / scale
                ok = rel < tol
                rows.append(
                    [cfg.rho, h, alpha, lam, cfg.xi, n, res, scale, rel, ok]
                )
                if worst is None or rel > worst[2]:
                    worst = (res, 0.0, rel)
    ok = all(r[-1] for r in rows)
    summary = f"points={len(rows)} max_rel_residual={worst[2]:.3e} tol={tol:g}"
    report = _report_obj(
        "verify ode", _params_dict(cfg, n_terms=n, tol=tol),
        worst[0], worst[1], worst[2], 0.0, ok,
    )
    return _emit_verify(cfg, "ode", ok, summary, report, header, rows)


def _verify_residue(cfg, params):
    m = 512 if cfg.contour_m is None else cfg.contour_m
    tol = 1e-10 if cfg.tol is None else cfg.tol
    e = 0.25 + cfg.lam
    rng = np.random.default_rng(_RESIDUE_SEED)
    header = [
        "sample", "s", "t", "u", "eta",
        "quad_re", "quad_im", "closed", "gap", "passed",
    ]
    rows, worst = [], None
    for idx in range(100):
        s = rng.uniform(0.02, 0.3)
        t = rng.uniform(0.05, 0.95)
        u = rng.uniform(0.05, 0.95)
        eta = rng.uniform(-0.2, -0.01)
        x = eta * (1 - t) * (1 - u)
        quad = contour_integral(
            lambda v: -((1 - x * v) ** -e) / (x * v * v + (s - 1) * v - s), m
        )
        root = _principal_sqrt((1 - s) ** 2 + 4 * x * s)
        closed = ((1 + s + root) / 2) ** -e / root
        gap = abs(quad - closed)
        ok = gap < tol
        rows.append([idx, s, t, u, eta, quad.real, quad.imag, closed, gap, ok])
        if worst is None or gap > worst[2]:
            worst = (quad, closed, gap)
    ok = all(r[-1] for r in rows)
    summary = f"samples={len(rows)} max_gap={worst[2]:.3e} tol={tol:g}"
    report = _report_obj(
        "verify residue", _params_dict(cfg, contour_m=m, tol=tol),
        worst[0], worst[1], worst[2], 0.0, ok,
    )
    return _emit_verify(cfg, "residue", ok, summary, report, header, rows)


def _gf_row_header(cfg):
    s_cols = [f"s{i}" for i in range(len(cfg.s))]
    return (
        ["rho", "h", "alpha", "lam", "xi", "gamma"] + s_cols
        + ["a_max", "op_power", "lhs", "rhs", "gap", "tail_estimate", "passed"]
    )


def _gf_row(cfg, a_max, op_power, rep, ok):
    return (
        [cfg.rho, cfg.h, cfg.alpha, cfg.lam, cfg.xi, cfg.gamma] + list(cfg.s)
        + [a_max, op_power, rep.lhs, rep.rhs, rep.gap, rep.truncation_estimate, ok]
    )


def _gf_report(cfg, order_n, a_max, nodes, m, op_power):
    params = LameParams(rho=cfg.rho, alpha=cfg.alpha, h=cfg.h)
    weights = GFWeights(cfg.gamma, SParameters(cfg.s), a_max, len(cfg.s) - 1)
    grid = None
    if order_n >= 1:
        grid = make_quadrature_grid(cfg.lam, order_n, nodes=nodes, contour_m=m)
    return gf_verify_order(
        params, cfg.lam, weights, _point(cfg), order_n,
        grid=grid, op_power=op_power,
    )


def _verify_gf_order(cfg, params, order_n):
    d_amax, d_nodes, d_m, d_tol = _GF_ORDER_DEFAULTS[order_n]
    a_max = d_amax if cfg.a_max is None else cfg.a_max
    nodes = d_nodes if cfg.nodes is None else cfg.nodes
    m = d_m if cfg.contour_m is None else cfg.contour_m
    tol = d_tol if cfg.tol is None else cfg.tol
    if order_n > len(cfg.s) - 1:
        raise UsageError(f"order {order_n} needs at least {order_n + 1} s values")
    name = f"gf-order{order_n}"
    pdict = _params_dict(
        cfg, a_max=a_max, nodes=nodes, contour_m=m, tol=tol, op_power=2
    )
    if order_n == 1:
        # both sides apply the same operator, so the identity must close at
        # both operator powers
        reps = {p: _gf_report(cfg, 1, a_max, nodes, m, p) for p in (1, 2)}
        passing = [p for p, rep in reps.items() if rep.passes(tol)]
        ok = len(passing) == 2
        summary = (
            f"gap(op_power=1)={reps[1].gap:.3e} gap(op_power=2)={reps[2].gap:.3e} "
            f"tol={tol:g} powers_passing={len(passing)} (need both)"
        )
        rep = reps[2]
        rows = [_gf_row(cfg, a_max, p, reps[p], reps[p].passes(tol)) for p in (1, 2)]
    else:
        rep = _gf_report(cfg, order_n, a_max, nodes, m, 2)
        ok = rep.passes(tol)
        summary = f"gap={rep.gap:.3e} tol={tol:g} tail={rep.truncation_estimate:.3e}"
        rows = [_gf_row(cfg, a_max, 2, rep, ok)]
    report = _report_obj(
        f"verify {name}", pdict, rep.lhs, rep.rhs, rep.gap,
        rep.truncation_estimate, ok,
    )
    return _emit_verify(cfg, name, ok, summary, report, _gf_row_header(cfg), rows)


def _verify_kernels(cfg, params):
    n = 60 if cfg.n_terms is None else cfg.n_terms
    tol = 1e-9 if cfg.tol is None else cfg.tol
    reduction_tol = 1e-14
    families = (
        ("first", 0.75, 0.0, 2.0**-0.75, kernel_A),
        ("second", 1.25, 0.5, 2.0**-0.25, kernel_B),
    )
    s_vals = (-0.3, -0.2, -0.1, 0.0, 0.1, 0.2, 0.3)
    x_vals = (-0.2, -0.15, -0.1, -0.05, -0.0025, 0.0)
    header = ["family", "check", "s", "x", "n_terms", "lhs", "rhs", "gap", "tol", "passed"]
    rows, worst = [], None
    for fam, gamma, lam, pref, kernel in families:
        for s in s_vals:
            for x in x_vals:
                # terms (gamma)_a/a! s^a 2F1(-a, a + 1/4 + lam; 3/4 + lam; x)
                total = lemma1_identity(gamma, 0.25 + lam, s, x, n)["lhs"]
                closed = pref * kernel(s, x)
                gap = abs(total - closed)
                ok = gap < tol
                rows.append([fam, "sum", s, x, n, total, closed, gap, tol, ok])
                if worst is None or gap > worst[2]:
                    worst = (total, closed, gap)
        reduction = pref * kernel(0.0, -0.1)
        gap = abs(reduction - 1.0)
        rows.append(
            [fam, "reduction", 0.0, -0.1, 0, reduction, 1.0, gap, reduction_tol,
             gap < reduction_tol]
        )
    ok = all(r[-1] for r in rows)
    red_gap = max(r[7] for r in rows if r[1] == "reduction")
    summary = (
        f"points={len(rows)} max_gap={worst[2]:.3e} tol={tol:g} "
        f"reduction_gap={red_gap:.3e}"
    )
    report = _report_obj(
        "verify kernels", _params_dict(cfg, n_terms=n, tol=tol),
        worst[0], worst[1], worst[2], 0.0, ok,
    )
    return _emit_verify(cfg, "kernels", ok, summary, report, header, rows)


_VERIFY_TARGETS = {
    "lemma1": _verify_lemma1,
    "ode": _verify_ode,
    "residue": _verify_residue,
    "gf-order0": partial(_verify_gf_order, order_n=0),
    "gf-order1": partial(_verify_gf_order, order_n=1),
    "gf-order2": partial(_verify_gf_order, order_n=2),
    "kernels": _verify_kernels,
}


def _run_verify(cfg, params):
    if cfg.target not in _VERIFY_TARGETS:
        raise UsageError(f"unknown verify target {cfg.target!r}")
    return _VERIFY_TARGETS[cfg.target](cfg, params)


# ------------------------------------------------------------------- sweep

def _apply_axis(cfg, name, value):
    if name.startswith("s"):
        idx = int(name[1:])
        s = list(cfg.s)
        s[idx] = value
        cfg.s = tuple(s)
    else:
        setattr(cfg, name, value)


def sweep_table(cfg):
    """Cartesian-product rows for the sweep target; axes ordered by name."""
    axes = sorted(cfg.grid_axes.items())
    names = [a[0] for a in axes]
    combos = list(itertools.product(*(a[1] for a in axes))) or [()]
    header, rows, all_ok = None, [], True
    for combo in combos:
        point = replace(cfg, s=tuple(cfg.s), grid_axes={})
        for name, value in zip(names, combo):
            _apply_axis(point, name, value)
        p = LameParams(rho=point.rho, alpha=point.alpha, h=point.h)
        if cfg.target == "eval-series":
            header = _SERIES_HEADER
            pt = EvaluationPoint.from_xi(point.xi, point.rho)
            rows.append(_series_row(point, p, pt))
        else:  # gf-order0
            d_amax, d_nodes, d_m, d_tol = _GF_ORDER_DEFAULTS[0]
            a_max = d_amax if point.a_max is None else point.a_max
            tol = d_tol if point.tol is None else point.tol
            rep = _gf_report(point, 0, a_max, d_nodes, d_m, 2)
            ok = rep.passes(tol)
            all_ok = all_ok and ok
            header = _gf_row_header(point)
            rows.append(_gf_row(point, a_max, 2, rep, ok))
    return header, rows, all_ok


def _run_sweep(cfg, params):
    if cfg.target not in _SWEEP_TARGETS:
        raise UsageError(f"sweep target must be one of {_SWEEP_TARGETS}")
    header, rows, all_ok = sweep_table(cfg)
    if cfg.fmt == "json":
        obj = {
            "command": "sweep",
            "target": cfg.target,
            "params": _params_dict(cfg),
            "rows": [
                {k: (v if isinstance(v, (str, bool)) else float(v))
                 for k, v in zip(header, row)}
                for row in rows
            ],
        }
        _emit(_json_text(obj), cfg.out)
    else:
        _emit(_csv_text(header, rows), cfg.out)
    return 0 if (cfg.target == "eval-series" or all_ok) else 1


# -------------------------------------------------------------------- driver

def run(cfg):
    """Execute one validated configuration; returns the process exit code."""
    params = _validate(cfg)
    dispatch = {
        "eval-series": _run_eval_series,
        "eval-sn": _run_eval_sn,
        "heun-map": _run_heun_map,
        "verify": _run_verify,
        "sweep": _run_sweep,
    }
    return dispatch[cfg.command](cfg, params)


def _add_common(parser):
    parser.add_argument("--rho", type=float, default=None)
    parser.add_argument("--h", type=float, default=None)
    parser.add_argument("--alpha", type=float, default=None)
    parser.add_argument("--lambda", dest="lam", type=float, default=None,
                        help="indicial exponent, 0 or 0.5")
    parser.add_argument("--xi", type=float, default=None)
    parser.add_argument("--z", type=float, default=None)
    parser.add_argument("--N", dest="n_terms", type=int, default=None)
    parser.add_argument("--s", type=str, default=None,
                        help='comma-separated chain weights "s0,s1,..."')
    parser.add_argument("--gamma", type=float, default=None)
    parser.add_argument("--K", dest="k", type=int, default=None)
    parser.add_argument("--nmax", dest="n_max", type=int, default=None)
    parser.add_argument("--amax", dest="a_max", type=int, default=None)
    parser.add_argument("--nodes", type=int, default=None)
    parser.add_argument("--contour-m", dest="contour_m", type=int, default=None)
    parser.add_argument("--tol", type=float, default=None)
    parser.add_argument("--config", type=str, default=None)
    parser.add_argument("--format", dest="fmt", choices=("csv", "json"), default=None)
    parser.add_argument("--out", type=str, default=None)


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="lame3trf",
        description="Series solutions, integral forms, and identity checks "
                    "for the Lame equation in Weierstrass form.",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("eval-series", "eval-sn", "heun-map"):
        _add_common(sub.add_parser(name))
    p_verify = sub.add_parser("verify")
    p_verify.add_argument("target", choices=_VERIFY_TARGETS)
    p_verify.add_argument("--full-grid", dest="full_grid", action="store_const",
                          const=True, default=None,
                          help="lemma1: include the slow-converging grid points")
    _add_common(p_verify)
    p_sweep = sub.add_parser("sweep")
    p_sweep.add_argument("target", nargs="?", default="eval-series",
                         choices=_SWEEP_TARGETS)
    p_sweep.add_argument("--grid", action="append", default=None,
                         help='sweep axis "name=v1,v2,..." (repeatable)')
    _add_common(p_sweep)
    return parser


def main(argv=None):
    """CLI entry point; returns the exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        cfg = _build_config(args)
        return run(cfg)
    except UsageError as exc:
        sys.stderr.write(f"lame3trf: error: {exc}\n")
        return 2
    except InvalidParameterError as exc:
        sys.stderr.write(f"lame3trf: error: {exc}\n")
        return 2
    except (SingularValueError, ConvergenceError) as exc:
        sys.stderr.write(f"lame3trf: numerical failure: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
