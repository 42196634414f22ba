"""Workloads, their ops, and the checks every op's outputs must pass.

An op is a shipped ``configs/*.cfg`` run through the CLI with its ``seed``
line replaced by the workload seed (plus any overrides), or the library op
in ``child.py``.  A check returns the problems it found (an op with any
problem counts as failed) and the values it records but does not gate on.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np


@dataclass(frozen=True)
class Op:
    name: str
    command: str | None     # CLI subcommand; None runs the library op
    config: str | None      # stem under configs/
    check: Callable         # (out_dir) -> (problems, recorded values)
    workers: int = 1
    overrides: dict = field(default_factory=dict)


def config_text(root: Path, op: Op, seed: int) -> str:
    """The shipped config with ``seed`` and each override set in place."""
    text = (root / "configs" / f"{op.config}.cfg").read_text(encoding="utf-8")
    for key, val in {"seed": seed, **op.overrides}.items():
        line = f"{key} = {val}"
        pattern = re.compile(rf"^{re.escape(key)}\s*=.*$", re.MULTILINE)
        text, n = pattern.subn(line, text)
        if n == 0:
            text = text.rstrip("\n") + f"\n{line}\n"
    return text


# --- generic output checks --------------------------------------------------------

def read_csv(path: Path) -> tuple[list[str], np.ndarray]:
    """Header and float rows of a CLI CSV (first line carries the config hash)."""
    with open(path, encoding="utf-8", newline="") as fh:
        lines = fh.read().splitlines()
    if not lines or not lines[0].startswith("# config_hash = "):
        raise ValueError(f"{path.name}: missing config hash line")
    rows = list(csv.reader(lines[1:]))
    header, body = rows[0], rows[1:]
    if any(len(r) != len(header) for r in body):
        raise ValueError(f"{path.name}: ragged rows")
    return header, np.array(body, dtype=float).reshape(len(body), len(header))


def read_snapshot(out: Path) -> tuple[np.ndarray, np.ndarray, dict]:
    meta = json.loads((out / "snapshot.json").read_text())
    raw = (out / "snapshot.bin").read_bytes()
    n, d1, d2 = meta["n"], meta["d1"], meta["d2"]
    want = 8 * n * (d1 + d2 + 1)
    if meta.get("has_increments"):
        want += 8 * math.prod(meta["increments_shape"])
    if len(raw) != want:
        raise ValueError(f"snapshot.bin holds {len(raw)} bytes, sidecar implies {want}")
    vals = np.frombuffer(raw, dtype="<f8")
    return vals[:n * d1].reshape(n, d1), vals[n * d1:n * (d1 + d2)].reshape(n, d2), meta


def output_hashes(out: Path) -> tuple[dict, list[str]]:
    """sha256 of the manifest (minus ``wall_clock_s``) and of every output it
    lists, after checking that each exists and parses."""
    problems: list[str] = []
    try:
        man = json.loads((out / "manifest.json").read_text())
    except (OSError, ValueError) as exc:
        return {}, [f"manifest unreadable: {exc}"]
    names = man.get("outputs") or []
    if not names:
        problems.append("manifest lists no outputs")
    man.pop("wall_clock_s", None)
    hashes = {"manifest.json": hashlib.sha256(
        json.dumps(man, sort_keys=True).encode()).hexdigest()}
    for name in names:
        path = out / name
        try:
            if path.suffix == ".json":
                json.loads(path.read_text())
            elif path.suffix == ".csv":
                read_csv(path)
            elif path.suffix == ".bin":
                read_snapshot(out)
            hashes[name] = hashlib.sha256(path.read_bytes()).hexdigest()
        except (OSError, ValueError, KeyError) as exc:
            problems.append(f"{name}: {exc}")
    return hashes, problems


# --- op-specific checks -----------------------------------------------------------

def _load(out: Path, name: str) -> dict:
    return json.loads((out / name).read_text())


def check_langevin(out: Path):
    """Stationary covariance of (X, Y) within 5 standard errors of I; no deaths."""
    x, y, meta = read_snapshot(out)
    z = np.concatenate([x, y], axis=1)
    zc = z - z.mean(axis=0)
    problems = []
    for i in range(z.shape[1]):
        for j in range(i, z.shape[1]):
            prod = zc[:, i] * zc[:, j]
            se = prod.std() / math.sqrt(z.shape[0])
            if abs(prod.mean() - float(i == j)) > 5.0 * se:
                problems.append(f"cov[{i},{j}] = {prod.mean():.4f} beyond 5 SE ({se:.4f}) of I")
    if meta["n_dead"] != 0:
        problems.append(f"n_dead = {meta['n_dead']}")
    return problems, {"cov_xx": float(np.mean(zc[:, 0] ** 2))}


def check_ergodicity(out: Path):
    """Every TV in [0, 2] and the first one above the noise floor."""
    _, rows = read_csv(out / "distances.csv")
    tv, floor = rows[:, 1], rows[:, 2]
    problems = []
    if np.any((tv < 0) | (tv > 2)):
        problems.append("TV outside [0, 2]")
    if not tv[0] > floor[0]:
        problems.append(f"first TV {tv[0]:.4g} not above noise floor {floor[0]:.4g}")
    fit = _load(out, "fit.json")
    return problems, {"r2": fit["r2"], "verdict": fit["verdict"]}


def check_khasminskii(out: Path):
    """E exp(int |f|^2) >= 1, finite, with an ordered interval."""
    res = _load(out, "khasminskii.json")
    problems = []
    if res["diverged"] or not (isinstance(res["estimate"], float) and res["estimate"] >= 1.0):
        problems.append(f"estimate {res['estimate']!r} is not a finite value >= 1")
    elif not res["ci_lo"] <= res["ci_hi"]:
        problems.append("confidence interval out of order")
    if not res["lpq_norm"] > 0:
        problems.append("localized norm not positive")
    return problems, {"estimate": res["estimate"]}


def check_sweep(out: Path):
    """One TV series per coupling, each within [0, 2]."""
    res = _load(out, "sweep.json")
    problems = []
    if len(res["entries"]) != 4:
        problems.append(f"{len(res['entries'])} sweep entries, expected 4")
    for e in res["entries"]:
        _, rows = read_csv(out / f"sweep_tv_{e['kappa']:g}.csv")
        if np.any((rows[:, 1] < 0) | (rows[:, 1] > 2)):
            problems.append(f"kappa {e['kappa']:g}: TV outside [0, 2]")
    return problems, {"kappa_star": res["kappa_star"]}


def check_picard(out: Path):
    res = _load(out, "picard.json")
    problems = [] if res["converged"] is True else ["Picard iteration did not converge"]
    return problems, {"iterations": res["iterations"]}


def check_lyapunov(out: Path):
    """The searched constants certify the drift condition on the sample."""
    res = _load(out, "lyapunov.json")
    problems = []
    if res.get("verdict") != "holds" or not res.get("c0", 0) > 0:
        problems.append(f"certificate verdict {res.get('verdict')!r}, c0 = {res.get('c0')!r}")
    _, rows = read_csv(out / "margins.csv")
    if np.any(rows[:, -1] < 0):
        problems.append("negative margin in margins.csv")
    return problems, {"c0": res.get("c0")}


def check_zvonkin(out: Path):
    res = _load(out, "zvonkin.json")
    problems = []
    if not res["residual"] < 1e-8:
        problems.append(f"resolvent residual {res['residual']!r} >= 1e-8")
    if not res["out_of_domain_fraction"] <= 1e-3:
        problems.append(f"out-of-domain fraction {res['out_of_domain_fraction']!r} > 1e-3")
    return problems, {"verdict": res["verdict"]}


def check_h_bound(out: Path):
    """Envelope nonincreasing, equal to k (1 + V0) at t = 0."""
    text = _load(out, "manifest.json")["config_text"]
    k, v0 = (float(re.search(rf"^{key}\s*=\s*(\S+)", text, re.MULTILINE).group(1))
             for key in (r"hbound\.k", r"hbound\.v0"))
    _, rows = read_csv(out / "envelope.csv")
    env = rows[:, 1]
    problems = []
    if rows[0, 0] != 0.0 or abs(env[0] - k * (1.0 + v0)) > 1e-9 * k * (1.0 + v0):
        problems.append(f"envelope at t = 0 is {env[0]!r}, expected k (1 + V0)")
    if np.any(np.diff(env) > 0):
        problems.append("envelope increases")
    return problems, {}


def check_library(out: Path):
    """The searched certificate holds and the fitted envelope dominates the curve."""
    res = _load(out, "libop.json")
    problems = []
    if res["verdict"] != "holds":
        problems.append(f"certificate verdict {res['verdict']!r}")
    if res["dominated"] is not True or np.any(
            np.array(res["envelope"]) < np.array(res["curve"]) - 1e-12):
        problems.append("fitted envelope does not dominate the curve")
    return problems, {"k": res["k"], "lam": res["lam"]}


# The reason for each workload and the layers it should move are in
# README.md; BENCHMARK.json carries the one-line summary.
WORKLOADS: dict[str, list[Op]] = {
    "ensemble": [
        Op("langevin", "simulate", "langevin", check_langevin, workers=2),
        Op("ergodicity", "ergodicity", "ergodicity_riesz", check_ergodicity, workers=2),
        Op("khasminskii", "khasminskii", "khasminskii", check_khasminskii, workers=2),
    ],
    "meanfield": [
        Op("sweep", "mkv-sweep", "mkv_sweep", check_sweep),
        Op("picard", "mkv-picard", "mkv_picard", check_picard),
        Op("picard_pairwise", "mkv-picard", "mkv_picard", check_picard,
           overrides={"kernel": "mean_attraction", "N": 2000, "kappa": 0.5}),
    ],
    "certify": [
        Op("lyapunov", "lyapunov-check", "lyapunov_confining", check_lyapunov),
        Op("zvonkin", "zvonkin", "zvonkin_riesz", check_zvonkin),
        Op("h_bound", "h-bound", "h_bound", check_h_bound),
        Op("envelope_fit", None, None, check_library),
    ],
}

# Extra traced op for ``ensemble``: langevin at one worker, for the speed-up
# and the bit-exactness of the snapshot across worker counts.
LANGEVIN_W1 = Op("langevin_w1", "simulate", "langevin", check_langevin)
