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
from dataclasses import asdict, dataclass, field, replace
from functools import partial
from operator import itemgetter

import numpy as np

from .scalar_kernels import (
    ConvergenceError,
    InvalidParameterError,
    SingularValueError,
    jacobi_gf_closed,
    jacobi_sn_cn_dn,
    lemma1_identity,
    lemma1_radius,
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
from .generating_functions import (_DEFAULT_TOLERANCES, GFWeights, gf_verify_order,
                                   kernel_A, kernel_B)

__all__ = ["RunConfig", "main", "run", "sweep_table"]

_RESIDUE_SEED = 20240817


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
    a_max: int | None = None
    nodes: int | None = None
    contour_m: int | None = None
    tol: float | None = None
    fmt: str = "csv"
    out: str | None = None
    full_grid: bool = False
    grid_axes: dict = field(default_factory=dict)


# The option set: flag, config-file key, RunConfig field, type, help.  It
# drives argparse, the config-file keys and their type checks, the
# flag-over-file merge and the JSON params block (the float, int and tuple
# options).  tuple is the chain weights, "s0,s1,..." or a list of numbers;
# list is the repeatable sweep axis, each entry "name=v1,v2,...".
_OPTIONS = (
    ("--rho", "rho", "rho", float, None),
    ("--h", "h", "h", float, None),
    ("--alpha", "alpha", "alpha", float, None),
    ("--lambda", "lambda", "lam", float, "indicial exponent, 0 or 0.5"),
    ("--xi", "xi", "xi", float, None),
    ("--z", "z", "z", float, None),
    ("--N", "N", "n_terms", int, None),
    ("--s", "s", "s", tuple, 'comma-separated chain weights "s0,s1,..."'),
    ("--gamma", "gamma", "gamma", float, None),
    ("--K", "K", "k", int, None),
    ("--amax", "amax", "a_max", int, None),
    ("--nodes", "nodes", "nodes", int, None),
    ("--contour-m", "contour_m", "contour_m", int, None),
    ("--tol", "tol", "tol", float, None),
    ("--format", "format", "fmt", str, "csv or json"),
    ("--out", "out", "out", str, None),
    ("--full-grid", "full_grid", "full_grid", bool,
     "lemma1: include the slow-converging grid points"),
    ("--grid", "grid", "grid_axes", list, 'sweep axis "name=v1,v2,..." (repeatable)'),
)
_COMMAND_ONLY = {"--full-grid": "verify", "--grid": "sweep"}
_FLAG_KWARGS = {
    bool: {"action": "store_const", "const": True},
    list: {"action": "append"},
    tuple: {"type": str},
}


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


def _emit(cfg, obj, header, rows):
    """The JSON object, or else the CSV rows, to --out or to stdout."""
    if cfg.fmt == "json":
        text = json.dumps(obj, indent=2, sort_keys=True) + "\n"
    else:
        text = _csv_text(header, rows)
    if cfg.out is None:
        sys.stdout.write(text)
        return
    try:
        with open(cfg.out, "w", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise UsageError(f"cannot write {cfg.out}: {exc}") from exc


def _params_dict(cfg, **extra):
    """Effective numeric parameters for the machine-readable report."""
    d = {}
    for _, _, name, typ, _ in _OPTIONS:
        if typ in (float, int, tuple):
            value = getattr(cfg, name)
            if typ is tuple:
                value = [float(v) for v in value]
            elif value is not None:
                value = typ(value)
            d["lambda" if name == "lam" else name] = value
    d.update(extra)
    return d


def _emit_record(cfg, header, row, fields):
    """One-record output: a single CSV row, or a JSON report holding fields."""
    _emit(cfg, {"command": cfg.command, "params": _params_dict(cfg), **fields},
          header, [row])
    return 0


# ------------------------------------------------------------ config plumbing

def _parse_s(raw):
    try:
        if isinstance(raw, (list, tuple)):
            vals = [float(v) for v in raw]
        else:
            vals = [float(p) for p in str(raw).split(",") if p.strip() != ""]
    except (TypeError, ValueError) as exc:
        raise UsageError(f"cannot parse --s value {raw!r}") from exc
    if not vals:
        raise UsageError("--s needs at least one value")
    return tuple(vals)


def _parse_grid_axes(entries, s_len):
    if not isinstance(entries, (list, tuple, dict)):
        raise UsageError(f"grid {entries!r} is not a list of name=v1,v2,... strings")
    axes = {}
    allowed = {"rho", "h", "alpha", "xi"} | {f"s{i}" for i in range(s_len)}
    for entry in entries:
        if isinstance(entries, dict):
            name, vals = entry, entries[entry]
        else:
            name, _, tail = str(entry).partition("=")
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


def _file_value(key, typ, value):
    """A config-file value converted with its option's type, as its flag's
    is; the chain weights and sweep axes go to their parsers as they are."""
    try:
        if value is None or isinstance(value, bool) != (typ is bool):
            raise TypeError(value)
        if typ in (tuple, list):
            return value
        if typ is str and not isinstance(value, str):
            raise TypeError(value)
        converted = typ(value)
        if typ is int and not isinstance(value, str) and converted != value:
            raise ValueError(value)
        return converted
    except (TypeError, ValueError, OverflowError) as exc:
        raise UsageError(
            f"config key {key!r} needs a {typ.__name__} value, got {value!r}"
        ) from exc


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
    unknown = sorted(set(data) - {key for _, key, *_ in _OPTIONS})
    if unknown:
        raise UsageError(f"unknown config keys: {', '.join(unknown)}")
    return data


def _build_config(args):
    """Flags over config-file values over the RunConfig defaults."""
    cfg = RunConfig(command=args.command, target=getattr(args, "target", None))
    data = {} if args.config is None else _load_config_file(args.config)
    for _, key, name, typ, _ in _OPTIONS:
        value = getattr(args, name, None)
        if value is None and key in data:
            value = _file_value(key, typ, data[key])
        if value is not None:
            setattr(cfg, name, value)
    cfg.grid_axes = _parse_grid_axes(cfg.grid_axes, len(_parse_s(cfg.s)))
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
    cfg.k = len(cfg.s) - 1
    for _, _, name, typ, _ in _OPTIONS:
        value = getattr(cfg, name)
        if typ is int and name != "k" and value is not None:
            if int(value) < 1:
                raise UsageError(f"{name} must be positive")
            setattr(cfg, name, int(value))
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


def _with_defaults(cfg, defaults):
    """A copy of cfg that takes each option it leaves unset from defaults."""
    return replace(cfg, **{k: v for k, v in defaults.items() if getattr(cfg, k) is None})


# ------------------------------------------------------------- eval commands

_SERIES_HEADER = ["rho", "h", "alpha", "lam", "xi", "n_terms", "value"]
_SERIES_DEFAULTS = {"n_terms": 40}


def _series_row(cfg, params, pt):
    """Series value at pt as a row under _SERIES_HEADER."""
    series = series_coefficients(params, cfg.lam, 1.0, cfg.n_terms)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        value = eval_series(series, pt)
    return [cfg.rho, cfg.h, cfg.alpha, cfg.lam, cfg.xi, cfg.n_terms, value]


def _run_eval_series(cfg, params):
    cfg = _with_defaults(cfg, _SERIES_DEFAULTS)
    row = _series_row(cfg, params, EvaluationPoint.from_xi(cfg.xi, cfg.rho, z=cfg.z))
    return _emit_record(cfg, _SERIES_HEADER, row, {"value": float(row[-1])})


def _run_eval_sn(cfg, params):
    if cfg.z is None:
        raise UsageError("eval-sn requires --z")
    sn, cn, dn = jacobi_sn_cn_dn(cfg.z, cfg.rho)
    header = ["rho", "z", "sn", "cn", "dn", "xi"]
    row = [cfg.rho, cfg.z, sn, cn, dn, sn * sn]
    fields = {"sn": float(sn), "cn": float(cn), "dn": float(dn), "xi": float(sn * sn)}
    return _emit_record(cfg, header, row, fields)


def _run_heun_map(cfg, params):
    heun = asdict(heun_correspondence(params))
    header = ["rho", "h", "alpha", *heun]
    row = [cfg.rho, cfg.h, cfg.alpha, *heun.values()]
    return _emit_record(cfg, header, row, {"heun": heun})


# ----------------------------------------------------------- verify targets
#
# Each check returns (header, rows, (lhs, rhs, gap) at the worst point, tail,
# summary, extra params); the last cell of a row says whether it passed, and
# the worst point is the first row with the largest gap.


def _verify_lemma1(cfg, params):
    pairs = ((0.75, 0.25), (1.25, 0.75), (1.3, 0.6))
    ws = (-0.3, -0.1, 0.1, 0.3)
    xs = (-0.4, 0.0, 0.3)
    header = ["gamma", "a_param", "w", "x", "n_terms", "lhs", "rhs", "gap", "passed"]
    rows = []
    for gamma, a_param in pairs:
        for w in ws:
            for x in xs:
                # the convergence radius r is 0.303 at x=-0.4, so the default grid
                # leaves out |w|=0.3 there; each point takes at least --N terms,
                # and enough for the geometric tail q^N/(1 - q), q = |w|/r, < tol
                if not cfg.full_grid and x == -0.4 and abs(w) > 0.25:
                    continue
                q = abs(w) / lemma1_radius(x)
                n = max(cfg.n_terms, math.ceil(math.log(cfg.tol * (1 - q)) / math.log(q)))
                res = lemma1_identity(gamma, a_param, w, x, n)
                rows.append([gamma, a_param, w, x, n, res["lhs"],
                             res["rhs"], res["gap"], res["gap"] < cfg.tol])
    worst = max(rows, key=itemgetter(7))
    summary = f"points={len(rows)} max_gap={worst[7]:.3e} tol={cfg.tol:g}"
    return header, rows, worst[5:8], 0.0, summary, {"full_grid": cfg.full_grid}


def _verify_ode(cfg, params):
    header = [
        "rho", "h", "alpha", "lam", "xi", "n_terms",
        "residual", "scale", "rel_residual", "passed",
    ]
    rows = []
    for h in (0.0, 1.0):
        for alpha in (0.0, 3.0, 7.0):
            for lam in (0.0, 0.5):
                p = LameParams(rho=cfg.rho, alpha=alpha, h=h)
                series = series_coefficients(p, lam, 1.0, cfg.n_terms)
                pt = EvaluationPoint.from_xi(cfg.xi, cfg.rho)
                res = ode_residual(p, series, pt, "algebraic")
                y, yp, ypp = eval_series_derivatives(series, cfg.xi)
                scale = max(abs(y), abs(yp), abs(ypp), 1e-300)
                rel = abs(res) / scale
                rows.append([cfg.rho, h, alpha, lam, cfg.xi, cfg.n_terms, res,
                             scale, rel, rel < cfg.tol])
    worst = max(rows, key=itemgetter(8))
    summary = f"points={len(rows)} max_rel_residual={worst[8]:.3e} tol={cfg.tol:g}"
    return header, rows, (worst[6], 0.0, worst[8]), 0.0, summary, {}


def _verify_residue(cfg, params):
    e = 0.25 + cfg.lam
    rng = np.random.default_rng(_RESIDUE_SEED)
    header = [
        "sample", "s", "t", "u", "eta",
        "quad_re", "quad_im", "closed", "gap", "passed",
    ]
    rows = []
    for idx in range(100):
        s = rng.uniform(0.02, 0.3)
        t = rng.uniform(0.05, 0.95)
        u = rng.uniform(0.05, 0.95)
        eta = rng.uniform(-0.2, -0.01)
        x = eta * (1 - t) * (1 - u)
        quad = contour_integral(
            lambda v: -((1 - x * v) ** -e) / (x * v * v + (s - 1) * v - s),
            cfg.contour_m,
        )
        closed = jacobi_gf_closed(0, e, 1 - 2 * x, s)
        gap = abs(quad - closed)
        rows.append([idx, s, t, u, eta, quad.real, quad.imag, closed, gap, gap < cfg.tol])
    worst = max(rows, key=itemgetter(8))
    summary = f"samples={len(rows)} max_gap={worst[8]:.3e} tol={cfg.tol:g}"
    lhs = complex(worst[5], worst[6])
    return header, rows, (lhs, worst[7], worst[8]), 0.0, summary, {}


def _gf_header(cfg):
    s_cols = [f"s{i}" for i in range(len(cfg.s))]
    return (
        ["rho", "h", "alpha", "lam", "xi", "gamma"] + s_cols
        + ["a_max", "op_power", "lhs", "rhs", "gap", "tail_estimate", "passed"]
    )


def _gf_row(cfg, params, order_n, op_power, grid):
    """One generating-identity check as a row under _gf_header(cfg)."""
    weights = GFWeights(cfg.gamma, SParameters(cfg.s), cfg.a_max, len(cfg.s) - 1)
    pt = EvaluationPoint.from_xi(cfg.xi, cfg.rho, z=cfg.z)
    rep = gf_verify_order(
        params, cfg.lam, weights, pt, order_n, grid=grid, op_power=op_power
    )
    return (
        [cfg.rho, cfg.h, cfg.alpha, cfg.lam, cfg.xi, cfg.gamma] + list(cfg.s)
        + [cfg.a_max, op_power, rep.lhs, rep.rhs, rep.gap, rep.truncation_estimate,
           rep.passes(cfg.tol)]
    )


def _verify_gf_order(cfg, params, order_n):
    if order_n > len(cfg.s) - 1:
        raise UsageError(f"order {order_n} needs at least {order_n + 1} s values")
    # both sides apply the same operator, so at order 1 the identity must
    # close at both operator powers; the report shows power 2
    powers = (1, 2) if order_n == 1 else (2,)
    grid = None if order_n == 0 else make_quadrature_grid(
        cfg.lam, order_n, nodes=cfg.nodes, contour_m=cfg.contour_m
    )
    rows = [_gf_row(cfg, params, order_n, p, grid) for p in powers]
    lhs, rhs, gap, tail = rows[-1][-5:-1]
    if order_n == 1:
        summary = (
            f"gap(op_power=1)={rows[0][-3]:.3e} gap(op_power=2)={gap:.3e} "
            f"tol={cfg.tol:g} powers_passing={sum(r[-1] for r in rows)} (need both)"
        )
    else:
        summary = f"gap={gap:.3e} tol={cfg.tol:g} tail={tail:.3e}"
    return _gf_header(cfg), rows, (lhs, rhs, gap), tail, summary, {"op_power": 2}


def _verify_kernels(cfg, params):
    reduction_tol = 1e-14
    families = (
        ("first", 0.75, 0.0, 2.0**-0.75, kernel_A),
        ("second", 1.25, 0.5, 2.0**-0.25, kernel_B),
    )
    s_vals = (-0.3, -0.2, -0.1, 0.0, 0.1, 0.2, 0.3)
    x_vals = (-0.2, -0.15, -0.1, -0.05, -0.0025, 0.0)
    header = ["family", "check", "s", "x", "n_terms", "lhs", "rhs", "gap", "tol", "passed"]
    rows = []
    for fam, gamma, lam, pref, kernel in families:
        for s in s_vals:
            for x in x_vals:
                # terms (gamma)_a/a! s^a 2F1(-a, a + 1/4 + lam; 3/4 + lam; x)
                total = lemma1_identity(gamma, 0.25 + lam, s, x, cfg.n_terms)["lhs"]
                closed = pref * kernel(s, x)
                gap = abs(total - closed)
                rows.append([fam, "sum", s, x, cfg.n_terms, total, closed, gap,
                             cfg.tol, gap < cfg.tol])
        reduction = pref * kernel(0.0, -0.1)
        gap = abs(reduction - 1.0)
        rows.append(
            [fam, "reduction", 0.0, -0.1, 0, reduction, 1.0, gap, reduction_tol,
             gap < reduction_tol]
        )
    worst = max((r for r in rows if r[1] == "sum"), key=itemgetter(7))
    red_gap = max(r[7] for r in rows if r[1] == "reduction")
    summary = (
        f"points={len(rows)} max_gap={worst[7]:.3e} tol={cfg.tol:g} "
        f"reduction_gap={red_gap:.3e}"
    )
    return header, rows, worst[5:8], 0.0, summary, {}


# target: (check, defaults of the options it reads)
_VERIFY_TARGETS = {
    "lemma1": (_verify_lemma1, {"n_terms": 60, "tol": 1e-9}),
    "ode": (_verify_ode, {"n_terms": 40, "tol": 1e-12}),
    "residue": (_verify_residue, {"contour_m": 512, "tol": 1e-10}),
    "gf-order0": (partial(_verify_gf_order, order_n=0),
                  {"a_max": 60, "tol": _DEFAULT_TOLERANCES[0]}),
    "gf-order1": (partial(_verify_gf_order, order_n=1),
                  {"a_max": 30, "nodes": 64, "contour_m": 512, "tol": _DEFAULT_TOLERANCES[1]}),
    "gf-order2": (partial(_verify_gf_order, order_n=2),
                  {"a_max": 10, "nodes": 32, "contour_m": 256, "tol": _DEFAULT_TOLERANCES[2]}),
    "kernels": (_verify_kernels, {"n_terms": 60, "tol": 1e-9}),
}


def _run_verify(cfg, params):
    """One target: PASS when every row passes.  Writes the summary line,
    then the JSON report, or with --out the CSV rows."""
    if cfg.target not in _VERIFY_TARGETS:
        raise UsageError(f"unknown verify target {cfg.target!r}")
    check, defaults = _VERIFY_TARGETS[cfg.target]
    cfg = _with_defaults(cfg, defaults)
    header, rows, (lhs, rhs, gap), tail, summary, extra = check(cfg, params)
    ok = all(row[-1] for row in rows)
    sys.stdout.write(f"{'PASS' if ok else 'FAIL'} {cfg.target}: {summary}\n")
    report = {
        "command": f"verify {cfg.target}",
        "params": _params_dict(cfg, **extra),
        "lhs_re": float(np.real(lhs)),
        "lhs_im": float(np.imag(lhs)),
        "rhs_re": float(np.real(rhs)),
        "rhs_im": float(np.imag(rhs)),
        "gap": float(gap),
        "tail_estimate": float(tail),
        "pass": bool(ok),
    }
    if cfg.fmt == "json" or cfg.out is not None:
        _emit(cfg, report, header, rows)
    return 0 if ok else 1


# ------------------------------------------------------------------- sweep

_SWEEP_TARGETS = ("eval-series", "gf-order0")


def sweep_table(cfg):
    """Cartesian-product rows for the sweep target; axes ordered by name."""
    axes = sorted(cfg.grid_axes.items())
    names = [a[0] for a in axes]
    combos = list(itertools.product(*(a[1] for a in axes))) or [()]
    gf = cfg.target == "gf-order0"
    rows = []
    for combo in combos:
        point, s = replace(cfg, grid_axes={}), list(cfg.s)
        for name, value in zip(names, combo):
            if name.startswith("s"):
                s[int(name[1:])] = value
            else:
                setattr(point, name, value)
        point.s = tuple(s)
        p = LameParams(rho=point.rho, alpha=point.alpha, h=point.h)
        if gf:
            point = _with_defaults(point, _VERIFY_TARGETS["gf-order0"][1])
            rows.append(_gf_row(point, p, 0, 2, None))
        else:
            point = _with_defaults(point, _SERIES_DEFAULTS)
            pt = EvaluationPoint.from_xi(point.xi, point.rho)
            rows.append(_series_row(point, p, pt))
    header = _gf_header(cfg) if gf else _SERIES_HEADER
    return header, rows, not gf or all(r[-1] for r in rows)


def _run_sweep(cfg, params):
    if cfg.target not in _SWEEP_TARGETS:
        raise UsageError(f"sweep target must be one of {_SWEEP_TARGETS}")
    header, rows, all_ok = sweep_table(cfg)
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
    _emit(cfg, obj, header, rows)
    return 0 if all_ok else 1


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


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="lame3trf",
        description="Series solutions, integral forms, and identity checks "
                    "for the Lame equation in Weierstrass form.",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command in ("eval-series", "eval-sn", "heun-map", "verify", "sweep"):
        p = sub.add_parser(command)
        if command == "verify":
            p.add_argument("target", choices=_VERIFY_TARGETS)
        elif command == "sweep":
            p.add_argument("target", nargs="?", default="eval-series",
                           choices=_SWEEP_TARGETS)
        for flag, _, name, typ, help_text in _OPTIONS:
            if _COMMAND_ONLY.get(flag, command) == command:
                kwargs = _FLAG_KWARGS.get(typ, {"type": typ})
                p.add_argument(flag, dest=name, help=help_text, **kwargs)
        p.add_argument("--config", help="JSON file of option values")
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
    except (UsageError, InvalidParameterError) as exc:
        sys.stderr.write(f"lame3trf: error: {exc}\n")
        return 2
    except (SingularValueError, ConvergenceError) as exc:
        sys.stderr.write(f"lame3trf: numerical failure: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
