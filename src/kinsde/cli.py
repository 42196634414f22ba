"""Command-line front end: config files in, CSV/JSON/snapshot artifacts out.

Every run writes a manifest carrying the config snapshot, its hash, and the
produced file list with each file's sha256, which ``kinsde verify`` rechecks;
rerunning from the same config reproduces all numeric
outputs bit-exactly on one machine.  All randomness flows from the single
seed in the config; there are no hidden entropy sources.

Exit codes: 0 success, 2 validation failure, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import ast
import hashlib
import json
import math
import os
import sys
import time
from pathlib import Path

import numpy as np

from kinsde import __version__
from kinsde.core import (
    DiracInit,
    HistogramSpec,
    PhaseState,
    SimConfig,
    localized_lpq_norm,
    AdmissiblePair,
)
from kinsde.ergodicity import NumericCheckError, fit_exponential_decay, h_envelope, tv_decay_experiment
from kinsde.fields import (
    ConfiningDrift,
    LyapunovV,
    MeanFieldKernel,
    PhiFamily,
    RieszDrift,
    bounded_sine_perturbation,
    confining_coefficients,
    linear_langevin_coefficients,
    scalar_ou_coefficients,
    zero_coefficients,
)
from kinsde.integrators import khasminskii_estimate, save_snapshot, simulate_ensemble
from kinsde.lyapunov import CertificationError, LogRadialSamples, check_drift_condition, search_constants
from kinsde.mckean import picard_fixed_point, uniform_ergodicity_sweep
from kinsde.zvonkin import (
    OutOfTransformDomainError,
    SmallnessNotAchievedError,
    equivalence_experiment,
)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERIC = 3

# The key registry: every config key any subcommand reads, by group.
_CORE_KEYS = {"T", "h", "N", "seed", "d1", "d2", "m", "scheme",
              "hist.min", "hist.max", "hist.bins"}
_FIELD_KEYS = {"drift", "c1", "c2", "c3", "delta", "z.scale", "sigma", "rate",
               "riesz.alpha", "riesz.atoms", "riesz.eta",
               "kernel", "kernel.w", "kappa"}
_RUN_KEYS = {"workers", "out.dir", "store_increments",
             "init.a", "init.b", "record.start", "record.stop", "record.step",
             "fit.from"}
_MODULE_KEYS = {
    "lyapunov.theta", "phi.kind", "phi.c0", "phi.beta", "eps.shell",
    "lyap.rmin", "lyap.rmax", "lyap.radii", "lyap.dirs", "lyap.kcap",
    "zvonkin.L", "zvonkin.n", "zvonkin.eps",
    "khasminskii.f", "khasminskii.a", "norm.p", "norm.q", "norm.extent",
    "picard.lam", "picard.maxiter", "picard.crn",
    "sweep.kappas",
    "hbound.k", "hbound.lam", "hbound.v0", "hbound.tmax", "hbound.dt",
}
KNOWN_KEYS = _CORE_KEYS | _FIELD_KEYS | _RUN_KEYS | _MODULE_KEYS


class ConfigError(ValueError):
    pass


class NumericFailure(RuntimeError):
    pass


def _parse_config(text: str) -> dict:
    """Parse and validate keys, reporting the offending line verbatim."""
    out: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: malformed (expected 'key = value'): {raw}")
        key, val = (s.strip() for s in line.split("=", 1))
        if key not in KNOWN_KEYS:
            raise ConfigError(f"line {lineno}: unknown key in config: {raw}")
        try:
            out[key] = ast.literal_eval(val)
        except (SyntaxError, ValueError):
            out[key] = val
    return out


def _whole(key: str, val) -> int:
    """``val`` as an int; integral floats such as 1e4 pass, anything else is refused."""
    if isinstance(val, int) or (isinstance(val, float) and val.is_integer()):
        return int(val)
    raise ConfigError(f"{key} must be a whole number, got {val!r}")


def _real(key: str, val) -> float:
    """``val`` as a float; numbers (and inf or nan spelt out) pass, anything else is refused."""
    if isinstance(val, (int, float, str)) and not isinstance(val, bool):
        try:
            return float(val)
        except ValueError:
            pass
    raise ConfigError(f"{key} must be a number, got {val!r}")


def _positive(key: str, val) -> float:
    """``val`` as a float greater than 0."""
    x = _real(key, val)
    if not x > 0.0:
        raise ConfigError(f"{key} must be greater than 0, got {val!r}")
    return x


def _text(key: str, val) -> str:
    """``val`` as a string; a number or a list is refused."""
    if isinstance(val, str):
        return val
    raise ConfigError(f"{key} must be a string, got {val!r}")


def _flag(key: str, val) -> bool:
    """``val`` as a bool; only True and False pass (``no`` or 1 is refused)."""
    if isinstance(val, bool):
        return val
    raise ConfigError(f"{key} must be True or False, got {val!r}")


def _atoms(key: str, val) -> list[tuple]:
    """``val`` as a non-empty list of (location, weight) pairs; a location is
    a number or a list of numbers."""
    pair = lambda a: isinstance(a, (list, tuple)) and len(a) == 2
    if not (isinstance(val, (list, tuple)) and val and all(map(pair, val))):
        raise ConfigError(f"{key} must be a non-empty list of (location, weight) pairs, "
                          f"got {val!r}")
    num = lambda v: [_real(key, c) for c in v] if isinstance(v, (list, tuple)) else _real(key, v)
    return [(num(loc), _real(key, w)) for loc, w in val]


def _sim_config(kv: dict) -> SimConfig:
    missing = [k for k in ("T", "h", "N") if k not in kv]
    if missing:
        raise ConfigError(f"missing required keys: {', '.join(missing)}")
    d1, d2 = _whole("d1", kv.get("d1", 1)), _whole("d2", kv.get("d2", 1))
    bins = kv.get("hist.bins", 16)
    bins = ([_whole("hist.bins", b) for b in bins] if isinstance(bins, (list, tuple))
            else _whole("hist.bins", bins))
    hist = HistogramSpec(kv.get("hist.min", -6.0), kv.get("hist.max", 6.0), bins, dim=d1 + d2)
    return SimConfig(
        T=_real("T", kv["T"]), h=_real("h", kv["h"]), N=_whole("N", kv["N"]),
        seed=_whole("seed", kv.get("seed", 0)), d1=d1, d2=d2,
        m=_whole("m", kv.get("m", d2)), scheme=str(kv.get("scheme", "euler")), hist=hist,
    )


def _build_kernel(kv: dict, d1: int) -> MeanFieldKernel | None:
    name = kv.get("kernel", "none")
    if name in ("none", None):
        return None
    if name == "constant":
        return MeanFieldKernel.constant(kv.get("kernel.w", 1.0))
    if name in ("tanh_y", "tanh_x", "mean_attraction") and d1 != 1:
        raise ConfigError(
            f"kernel = {name} bounds each coordinate by 1, so with d1 = {d1} "
            f"its magnitude reaches sqrt({d1}) > 1; it needs d1 = 1")
    if name == "tanh_y":
        return MeanFieldKernel.target(lambda xp, yp: np.tanh(yp), 1.0)
    if name == "tanh_x":
        return MeanFieldKernel.target(lambda xp, yp: np.tanh(xp), 1.0)
    if name == "mean_attraction":
        return MeanFieldKernel.clipped_difference()
    raise ConfigError(f"unknown kernel {name!r}")


def _build_riesz(kv: dict) -> RieszDrift | None:
    atoms = kv.get("riesz.atoms")
    if atoms is None:
        return None
    return RieszDrift(_atoms("riesz.atoms", atoms),
                      _real("riesz.alpha", kv.get("riesz.alpha", 0.5)),
                      _real("riesz.eta", kv.get("riesz.eta", 1e-6)))


def _build_coefficients(kv: dict, cfg: SimConfig, kappa: float | None = None):
    name = kv.get("drift", "confining")
    sigma = kv.get("sigma", 1.0)
    if name == "zero":
        return zero_coefficients(cfg.d1, cfg.d2, cfg.m, sigma=kv.get("sigma", 0.0))
    if name == "linear_langevin":
        # canonical benchmark noise is sqrt(2) unless the config overrides it
        return linear_langevin_coefficients(cfg.d1, sigma=kv.get("sigma"))
    if name == "scalar_ou":
        return scalar_ou_coefficients(_real("rate", kv.get("rate", 1.0)), sigma=sigma, d=cfg.d1)
    if name == "confining":
        pert = None
        if kv.get("z.scale"):
            pert = bounded_sine_perturbation(_real("z.scale", kv["z.scale"]))
        drift = ConfiningDrift(
            c1=_real("c1", kv.get("c1", 1.0)), c2=_real("c2", kv.get("c2", 0.0)),
            c3=_real("c3", kv.get("c3", 1.0)), delta=_real("delta", kv.get("delta", 0.0)),
            perturbation=pert,
        )
        kern = _build_kernel(kv, cfg.d1)
        kap = _real("kappa", kv.get("kappa", 0.0)) if kappa is None else kappa
        return confining_coefficients(
            drift, b=_build_riesz(kv), d=cfg.d1, sigma=sigma,
            kernel=kern, kappa=kap,
        )
    raise ConfigError(f"unknown drift {name!r}")


def _build_init(kv: dict, key: str, cfg: SimConfig) -> DiracInit:
    pt = kv.get(key)
    if pt is None:
        pt = [0.0] * (cfg.d1 + cfg.d2)
    pt = np.asarray(pt, dtype=float).ravel()
    if pt.size != cfg.d1 + cfg.d2:
        raise ConfigError(f"{key} needs {cfg.d1 + cfg.d2} coordinates")
    return DiracInit(PhaseState(pt[:cfg.d1], pt[cfg.d1:]))


def _record_times(kv: dict, cfg: SimConfig) -> np.ndarray:
    """start, start + step, ... up to stop; a time off the grid or outside [0, T]
    names the start, else the step (the second time), else the stop."""
    h = cfg.h
    start = _real("record.start", kv.get("record.start", 0.0))
    stop = _real("record.stop", kv.get("record.stop", cfg.T))
    if not (math.isfinite(start) and stop >= start):
        raise ConfigError(f"record.start = {start:g} and record.stop = {stop:g} "
                          f"give no record time in [0, T = {cfg.T:g}]")
    span = min(stop - start, cfg.T)  # never inf; a longer span fails below anyway
    step = _positive("record.step", kv.get("record.step", h * max(1, round(span / (16 * h)))))
    n = min((stop - start) / step, cfg.n_steps + 1)  # one time past T at most
    times = start + step * np.arange(math.floor(n + 1e-9) + 1)
    for key, val, head in (("record.start", start, 1), ("record.step", step, 2),
                           ("record.stop", stop, times.size)):
        try:
            cfg.record_steps(times[:head])
        except ValueError as exc:
            raise ConfigError(f"{key} = {val:g}: {exc}") from None
    return times


# --- artifact writers -------------------------------------------------------------

def config_hash(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def file_hash(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def write_csv(path: Path, header: list[str], rows, chash: str):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"# config_hash = {chash}\n")
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt_cell(v) for v in row) + "\n")


def _fmt_cell(v) -> str:
    if isinstance(v, float) or isinstance(v, np.floating):
        return format(float(v), ".17g")
    return str(v)


def write_json(path: Path, payload: dict, chash: str):
    payload = dict(payload)
    payload["config_hash"] = chash
    path.write_text(json.dumps(_jsonable(payload), indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, float) and math.isinf(obj):
        return "inf" if obj > 0 else "-inf"
    if isinstance(obj, float) and math.isnan(obj):
        return "nan"
    return obj


class Manifest:
    def __init__(self, subcommand: str, config_text: str, seed: int, n_steps: int):
        self.data = {
            "artifact_version": __version__,
            "subcommand": subcommand,
            "config_text": config_text,
            "config_hash": config_hash(config_text),
            "seed": seed,
            "step_count": n_steps,
            "outputs": [],
            "sha256": {},
        }
        self._t0 = time.time()

    @property
    def chash(self) -> str:
        return self.data["config_hash"]

    def add(self, path: Path):
        """List a written output and record its sha256."""
        self.data["outputs"].append(path.name)
        self.data["sha256"][path.name] = file_hash(path)

    def write(self, out_dir: Path):
        self.data["wall_clock_s"] = round(time.time() - self._t0, 3)
        p = out_dir / "manifest.json"
        p.write_text(json.dumps(self.data, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        return p


# --- subcommands ------------------------------------------------------------------

def cmd_simulate(kv, cfg, out, man):
    coeffs = _build_coefficients(kv, cfg)
    inc = observe = None
    if _flag("store_increments", kv.get("store_increments", False)):
        inc = np.empty((cfg.n_steps, cfg.N, cfg.m))

        def observe(k, t, x, y, dW):
            if dW is not None:
                inc[k] = dW

    ens = simulate_ensemble(cfg, coeffs, _build_init(kv, "init.a", cfg), observe=observe)
    if ens.unstable:
        raise NumericFailure(f"run unstable: {ens.n_dead} of {ens.n} particles blew up")
    b, j = save_snapshot(out / "snapshot", ens, man.chash, increments=inc)
    man.add(b); man.add(j)


def cmd_ergodicity(kv, cfg, out, man, replay: Path | None = None):
    if replay is not None:
        rows = np.loadtxt(replay, delimiter=",", comments="#", skiprows=_csv_skip(replay))
        times, tv = rows[:, 0], rows[:, 1]
        floor = float(rows[0, 2]) if rows.shape[1] > 2 else 0.0
    else:
        coeffs = _build_coefficients(kv, cfg)
        series = tv_decay_experiment(
            cfg, coeffs, _build_init(kv, "init.a", cfg), _build_init(kv, "init.b", cfg),
            _record_times(kv, cfg),
        )
        times, tv, floor = series.times, series.tv, series.noise_floor
    fit_from = _real("fit.from", kv.get("fit.from", 0.0))
    mask = times >= fit_from
    fit = fit_exponential_decay(times[mask], tv[mask], noise_floor=floor)
    csv = out / "distances.csv"
    write_csv(csv, ["t", "distance", "noise_floor"],
              [(t, d, floor) for t, d in zip(times, tv)], man.chash)
    man.add(csv)
    js = out / "fit.json"
    write_json(js, {
        "lambda_hat": fit.lam, "prefactor": fit.prefactor, "r2": fit.r2,
        "verdict": fit.verdict, "noise_floor": floor, "n_points_used": int(np.sum(fit.used)),
    }, man.chash)
    man.add(js)


def _csv_skip(path: Path) -> int:
    with open(path) as fh:
        n = 0
        for line in fh:
            if line.startswith("#") or any(c.isalpha() for c in line.split(",")[0]):
                n += 1
            else:
                break
    return n


def cmd_lyapunov_check(kv, cfg, out, man):
    coeffs = _build_coefficients(kv, cfg)
    V = LyapunovV(_real("lyapunov.theta", kv.get("lyapunov.theta", 1.0)), cfg.d1, cfg.d2)
    samples = LogRadialSamples(
        r_min=_real("lyap.rmin", kv.get("lyap.rmin", 0.05)),
        r_max=_real("lyap.rmax", kv.get("lyap.rmax", 50.0)),
        n_radii=_whole("lyap.radii", kv.get("lyap.radii", 24)),
        n_dirs=_whole("lyap.dirs", kv.get("lyap.dirs", 16)),
        seed=cfg.seed,
    )
    eps = _real("eps.shell", kv.get("eps.shell", 0.1))
    kind = kv.get("phi.kind", "linear")
    beta = kv.get("phi.beta")
    beta = None if beta is None else _real("phi.beta", beta)
    kcap = _real("lyap.kcap", kv.get("lyap.kcap", 50.0))
    payload: dict = {}
    if "phi.c0" in kv:
        phi = PhiFamily(kind, _real("phi.c0", kv["phi.c0"]), beta)
        report = check_drift_condition(coeffs, V, phi, kcap, eps, samples)
        payload.update({"mode": "check", "c0": phi.c0, "K": kcap})
    else:
        try:
            res = search_constants(coeffs, V, kind, eps, samples, beta=beta, k_cap=kcap)
            report = res.report
            payload.update({"mode": "search", "c0": res.c0, "K": res.K})
        except CertificationError as exc:
            write_json(out / "lyapunov.json", {"mode": "search", "verdict": "fails",
                                               "reason": str(exc)}, man.chash)
            man.add(out / "lyapunov.json")
            return
    payload.update({
        "verdict": report.verdict, "min_margin": report.min_margin,
        "worst_point": report.worst_point, "summary": report.summary(),
        "n_flagged": len(report.flagged),
    })
    js = out / "lyapunov.json"
    write_json(js, payload, man.chash)
    man.add(js)
    csv = out / "margins.csv"
    d = cfg.d1 + cfg.d2
    header = [f"z{i}" for i in range(d)] + ["lhs", "rhs", "margin"]
    rows = [tuple(p) + (l, r, mg) for p, l, r, mg in
            zip(report.points, report.lhs, report.rhs, report.margins)]
    write_csv(csv, header, rows, man.chash)
    man.add(csv)


def cmd_zvonkin(kv, cfg, out, man):
    coeffs = _build_coefficients(kv, cfg)
    L = _real("zvonkin.L", kv.get("zvonkin.L", 12.0))
    n = _whole("zvonkin.n", kv.get("zvonkin.n", 4001))
    eps = _real("zvonkin.eps", kv.get("zvonkin.eps", 0.1))
    report = equivalence_experiment(coeffs, cfg, _build_init(kv, "init.a", cfg),
                                    eps_target=eps, L=L, n_grid=n)
    sol = report.solution
    csv = out / "solution.csv"
    write_csv(csv, ["y", "u", "du", "d2u", "theta"],
              zip(sol.grid, sol.u, sol.du, sol.d2u, sol.theta_values), man.chash)
    man.add(csv)
    js = out / "zvonkin.json"
    write_json(js, {
        "lambda": sol.lam, "sup_bound": sol.sup_bound, "tv": report.tv,
        "noise_floor": report.noise_floor, "verdict": report.verdict,
        "out_of_domain_fraction": report.out_of_domain_fraction,
        "residual": sol.residual,
    }, man.chash)
    man.add(js)


def cmd_khasminskii(kv, cfg, out, man):
    coeffs = _build_coefficients(kv, cfg)
    kind = kv.get("khasminskii.f", "const")
    if kind == "const":
        a = _real("khasminskii.a", kv.get("khasminskii.a", 0.5))
        f = lambda t, y: np.full(y.shape[0], a)
    elif kind == "riesz":
        rz = _build_riesz(kv)
        if rz is None:
            raise ConfigError("khasminskii.f = riesz needs riesz.atoms")
        f = lambda t, y: np.sqrt(np.sum(rz(y) ** 2, axis=1))
    else:
        raise ConfigError(f"unknown khasminskii.f {kind!r}")
    res = khasminskii_estimate(cfg, coeffs, f, _build_init(kv, "init.a", cfg))
    p = _real("norm.p", kv.get("norm.p", 4.0))
    q = _real("norm.q", kv.get("norm.q", 4.0))
    extent = _real("norm.extent", kv.get("norm.extent", 3.0))
    centers = np.linspace(-extent, extent, 9)[:, None] if cfg.d2 == 1 else np.zeros((1, cfg.d2))
    norm = localized_lpq_norm(lambda t, pts: f(t, pts), AdmissiblePair(p, q, cfg.d2),
                              cfg.T, centers, n_time=9, n_ball=201)
    js = out / "khasminskii.json"
    write_json(js, {
        "estimate": res.estimate, "ci_lo": res.ci_lo, "ci_hi": res.ci_hi,
        "diverged": res.diverged, "lpq_norm": norm, "p": p, "q": q,
    }, man.chash)
    man.add(js)


def cmd_mkv_picard(kv, cfg, out, man):
    kappa = _real("kappa", kv.get("kappa", 0.0))
    coeffs = _build_coefficients(kv, cfg)
    lam = kv.get("picard.lam")
    res = picard_fixed_point(
        cfg, coeffs, _build_init(kv, "init.a", cfg), kappa,
        lam=None if lam is None else _real("picard.lam", lam),
        max_iter=_whole("picard.maxiter", kv.get("picard.maxiter", 20)),
        common_random_numbers=_flag("picard.crn", kv.get("picard.crn", True)),
    )
    csv = out / "rho.csv"
    write_csv(csv, ["iteration", "rho"],
              list(enumerate(res.state.rho_history, start=1)), man.chash)
    man.add(csv)
    js = out / "picard.json"
    write_json(js, {
        "converged": res.converged, "iterations": res.n_iterations,
        "noise_floor": res.noise_floor, "lambda": res.state.lam,
        "rho_history": res.state.rho_history,
    }, man.chash)
    man.add(js)


def cmd_mkv_sweep(kv, cfg, out, man):
    kappas = kv.get("sweep.kappas", [0.0, 0.1, 0.2])
    if not (isinstance(kappas, (list, tuple)) and kappas):
        raise ConfigError(f"sweep.kappas must be a non-empty list of numbers, got {kappas!r}")
    kappas = [_real("sweep.kappas", k) for k in kappas]
    factory = lambda kap: _build_coefficients(kv, cfg, kappa=kap)
    res = uniform_ergodicity_sweep(
        cfg, factory, kappas,
        _build_init(kv, "init.a", cfg), _build_init(kv, "init.b", cfg),
        _record_times(kv, cfg), fit_from=_real("fit.from", kv.get("fit.from", 1.0)),
    )
    summary = []
    for e in res.entries:
        csv = out / f"sweep_tv_{e.kappa:g}.csv"
        write_csv(csv, ["t", "distance", "noise_floor"],
                  [(t, d, e.noise_floor) for t, d in zip(e.times, e.tv)], man.chash)
        man.add(csv)
        summary.append({
            "kappa": e.kappa, "lambda_hat": e.fit.lam, "r2": e.fit.r2,
            "verdict": e.fit.verdict, "noise_floor": e.noise_floor,
        })
    js = out / "sweep.json"
    write_json(js, {"entries": summary, "kappa_star": res.kappa_star}, man.chash)
    man.add(js)


def cmd_h_bound(kv, cfg, out, man):
    phi = PhiFamily(kv.get("phi.kind", "superlinear"),
                    _real("phi.c0", kv.get("phi.c0", 1.0)),
                    _real("phi.beta", kv.get("phi.beta", 1.0)))
    v0 = _real("hbound.v0", kv.get("hbound.v0", 1.0))
    k = _real("hbound.k", kv.get("hbound.k", 1.0))
    lam = _real("hbound.lam", kv.get("hbound.lam", 1.0))
    tmax = _real("hbound.tmax", kv.get("hbound.tmax", 8.0))
    dt = _positive("hbound.dt", kv.get("hbound.dt", 0.25))
    times = np.round(np.arange(0.0, tmax + dt / 2, dt), 12)
    env = h_envelope(phi, v0, k, lam, times)
    csv = out / "envelope.csv"
    write_csv(csv, ["t", "envelope"], zip(times, env), man.chash)
    man.add(csv)


def cmd_verify(manifest_path: Path) -> int:
    try:
        man = json.loads(manifest_path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        print(f"verify: cannot read manifest: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    hashes = man.get("sha256")
    if not isinstance(hashes, dict):
        print("verify: manifest records no sha256 per output", file=sys.stderr)
        return EXIT_VALIDATION
    expect = man.get("config_hash", "")
    recomputed = config_hash(man.get("config_text", ""))
    ok = True
    if recomputed != expect:
        print(f"verify: manifest hash mismatch: {recomputed} != {expect}", file=sys.stderr)
        ok = False
    base = manifest_path.parent
    for name in man.get("outputs", []):
        p = base / name
        if not p.exists():
            print(f"verify: missing output {name}", file=sys.stderr)
            ok = False
            continue
        got = file_hash(p)
        if got != hashes.get(name):
            print(f"verify: {name} sha256 mismatch: {got} != manifest {hashes.get(name)}",
                  file=sys.stderr)
            ok = False
    if ok:
        print(f"verify: ok ({len(man.get('outputs', []))} outputs, hash {expect[:12]}...)")
        return EXIT_OK
    return EXIT_VALIDATION


_SUBCOMMANDS = {
    "simulate": cmd_simulate,
    "ergodicity": cmd_ergodicity,
    "lyapunov-check": cmd_lyapunov_check,
    "zvonkin": cmd_zvonkin,
    "khasminskii": cmd_khasminskii,
    "mkv-picard": cmd_mkv_picard,
    "mkv-sweep": cmd_mkv_sweep,
    "h-bound": cmd_h_bound,
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="kinsde",
        description="Simulation and verification engine for degenerate kinetic SDEs",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _SUBCOMMANDS:
        p = sub.add_parser(name)
        p.add_argument("config", type=Path)
        p.add_argument("--out", type=Path, default=None)
        p.add_argument("--workers", type=int, default=None)
        if name == "ergodicity":
            p.add_argument("--replay", type=Path, default=None,
                           help="fit a pre-recorded t,distance CSV instead of simulating")
    pv = sub.add_parser("verify")
    pv.add_argument("manifest", type=Path)
    args = parser.parse_args(argv)

    if args.command == "verify":
        return cmd_verify(args.manifest)

    try:
        text = args.config.read_text(encoding="utf-8")
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return EXIT_VALIDATION

    try:
        kv = _parse_config(text)
        cfg = _sim_config(kv)
        # checked and then ignored: the step loop is serial
        workers = _whole("workers", kv.get("workers", 1) if args.workers is None else args.workers)
        if workers < 1:
            raise ConfigError(f"workers must be at least 1, got {workers}")
        out_dir = args.out or Path(_text("out.dir", kv.get("out.dir", ""))
                                   or os.environ.get("KINSDE_OUT", "."))
        out_dir.mkdir(parents=True, exist_ok=True)
        man = Manifest(args.command, text, cfg.seed, cfg.n_steps)
        if args.command == "ergodicity":
            _SUBCOMMANDS[args.command](kv, cfg, out_dir, man, replay=getattr(args, "replay", None))
        else:
            _SUBCOMMANDS[args.command](kv, cfg, out_dir, man)
        man.write(out_dir)
    except (NumericFailure, ArithmeticError, SmallnessNotAchievedError,
            OutOfTransformDomainError, NumericCheckError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ConfigError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
