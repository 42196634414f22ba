"""kinsde benchmark: one workload, one seed, every metric with its unit.

    python3 perfbench/run.py --workload ensemble --seed 1 --seconds 30 --trace 0

Run from the root of a kinsde checkout; the program is imported from
``src/``.  Each op of the workload runs in a fresh process, one after the
other (a closed loop with one client), and passes over the ops repeat while
another pass still fits in ``--seconds`` (always at least one).  Every op's
outputs are parsed, checked and hashed; outputs must be byte-identical to
every earlier run of the same op at the same seed on the same sources
(``.bench_work/ledger.json``).  Any problem fails the op.

``--trace 0`` prints the end-to-end metrics (medians over passes).
``--trace 1`` also runs one traced pass with spans recorded around the
public functions of every kinsde module (``spans.py``) and prints the
per-layer metrics of ``layers.py`` instead.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Exit code 0 when the run completed (failed ops
included), 2 when it could not run at all.
"""

from __future__ import annotations

import argparse
import fcntl
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from layers import UNITS, layer_metrics  # noqa: E402
from ops import LANGEVIN_W1, WORKLOADS, Op, config_text, output_hashes  # noqa: E402

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
# No new pass starts after this many seconds, so a run ends well within 180 s.
MAX_MEASURE_S = 100.0
# Set-up probes per run (import only), on top of the op processes themselves.
N_PROBES = 5


@dataclass
class OpRun:
    op: Op | None  # None for a set-up probe
    out: Path
    rc: int
    spawned: float
    exited: float
    import_s: float | None
    rss_mb: float
    trace: Path | None
    problems: list[str] = field(default_factory=list)
    values: dict = field(default_factory=dict)


@dataclass
class Pass:
    ops: list[OpRun]

    @property
    def wall_s(self) -> float:
        return self.ops[-1].exited - self.ops[0].spawned

    @property
    def peak_rss_mb(self) -> float:
        return max(r.rss_mb for r in self.ops)


class Ledger:
    """Output hashes per (sources, workload, op, seed), shared by all runs in
    one checkout, so reruns at a seed must reproduce the first run's bytes."""

    def __init__(self, path: Path, sources: str):
        self.path = path
        self.sources = sources

    def compare(self, workload: str, op: Op, seed: int, hashes: dict) -> list[str]:
        # langevin_w1 is held to the workers-2 langevin bytes
        name = "langevin" if op is LANGEVIN_W1 else op.name
        key = f"{self.sources}:{workload}:{name}:{seed}"
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with open(self.path.with_suffix(".lock"), "w") as lock:
            fcntl.flock(lock, fcntl.LOCK_EX)
            data = json.loads(self.path.read_text()) if self.path.exists() else {}
            known = data.get(key)
            if known is None:
                data[key] = hashes
                tmp = self.path.with_suffix(".tmp")
                tmp.write_text(json.dumps(data, indent=1, sort_keys=True))
                os.replace(tmp, self.path)
                return []
        differ = sorted(n for n in set(known) | set(hashes) if known.get(n) != hashes.get(n))
        return [f"bytes differ from an earlier run at seed {seed}: {', '.join(differ)}"] \
            if differ else []


def sources_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")) + sorted((root / "configs").glob("*.cfg")):
        h.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"),
                                                      env.get("PYTHONPATH")]))
    # at most 2 busy threads per process: the CLI's own pool, no BLAS threads
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env.pop("KINSDE_OUT", None)
    return env


class Bench:
    def __init__(self, root: Path, workload: str, seed: int, work: Path, ledger: Ledger):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.work = work
        self.ledger = ledger
        self.env = child_env(root)
        self.n_runs = 0

    def spawn(self, op: Op | None, trace: bool = False) -> OpRun:
        """Run one op in a fresh process; ``op=None`` only imports (a set-up probe)."""
        self.n_runs += 1
        base = self.work / f"{self.n_runs:03d}-{op.name if op else 'probe'}"
        base.mkdir(parents=True)
        out = base / "out"
        spec: dict = {"timing": str(base / "timing.json")}
        if op is None:
            pass
        elif op.command is None:
            spec["lib"] = {"seed": self.seed, "out": str(out)}
        else:
            cfg = base / f"{op.config}.cfg"
            cfg.write_text(config_text(self.root, op, self.seed), encoding="utf-8")
            spec["cli"] = [op.command, str(cfg), "--out", str(out),
                           "--workers", str(op.workers)]
        if trace:
            spec["trace"] = str(base / "spans.json")
            spec["op"] = op.name
        with open(base / "log.txt", "wb") as log:
            spawned = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, str(HERE / "child.py"), json.dumps(spec)],
                cwd=self.root, env=self.env, stdin=subprocess.DEVNULL, stdout=log, stderr=log,
            )
            _, status, usage = os.wait4(proc.pid, 0)
            exited = time.perf_counter()
        proc.returncode = rc = os.waitstatus_to_exitcode(status)
        timing = base / "timing.json"
        import_s = json.loads(timing.read_text())["imported"] - spawned \
            if timing.exists() else None
        return OpRun(op, out, rc, spawned, exited, import_s, usage.ru_maxrss / 1024.0,
                     base / "spans.json" if trace else None)

    def check(self, r: OpRun):
        if r.rc != 0:
            r.problems.append(f"exit code {r.rc}")
            return
        hashes, r.problems = output_hashes(r.out)
        if r.problems:
            return
        try:
            problems, r.values = r.op.check(r.out)
        except Exception as exc:  # malformed output fails the op, not the run
            problems = [f"output check raised {exc!r}"]
        r.problems += problems
        if not r.problems:
            r.problems += self.ledger.compare(self.workload, r.op, self.seed, hashes)

    def run_pass(self, ops: list[Op], trace: bool = False) -> Pass:
        runs = [self.spawn(op, trace) for op in ops]
        for r in runs:
            self.check(r)
        return Pass(runs)


def describe(r: OpRun) -> str:
    status = "ok" if not r.problems else "FAILED: " + "; ".join(r.problems)
    imp = "n/a" if r.import_s is None else f"{r.import_s:.3f}s"
    vals = "".join(f" {k}={v}" for k, v in r.values.items())
    return (f"  {r.op.name:16s} rc={r.rc} wall={r.exited - r.spawned:.3f}s import={imp} "
            f"rss={r.rss_mb:.1f}MB{vals} {status}")


def span_seconds(dump: dict, name: str) -> float:
    return sum(s["end"] - s["start"] for s in dump["spans"] if s["name"] == name)


def setup_samples(bench: Bench) -> list[float]:
    """Import times of N_PROBES set-up probes; the first, which also compiles
    bytecode and fills the page cache, is not kept."""
    probes = [bench.spawn(None) for _ in range(N_PROBES)]
    for p in probes:
        if p.rc != 0 or p.import_s is None:
            log = (p.out.parent / "log.txt").read_text(errors="replace").strip()
            raise RuntimeError(f"kinsde.cli does not import (exit code {p.rc}): {log[-500:]}")
    return [p.import_s for p in probes[1:]]


def measure(bench: Bench, ops: list[Op], seconds: int, trace: bool):
    imports = setup_samples(bench)
    passes: list[Pass] = []
    start = time.perf_counter()
    while True:
        passes.append(bench.run_pass(ops))
        print(f"pass {len(passes)}: wall {passes[-1].wall_s:.3f}s", flush=True)
        for r in passes[-1].ops:
            print(describe(r), flush=True)
        elapsed = time.perf_counter() - start
        typical = statistics.median(p.wall_s for p in passes)
        if elapsed + typical > min(seconds, MAX_MEASURE_S):
            break
    runs = [r for p in passes for r in p.ops]
    wall = statistics.median(p.wall_s for p in passes)
    imports += [r.import_s for r in runs if r.import_s is not None]
    if not trace:
        metrics = {
            "wall_s": wall,
            # the pass's summed set-up, estimated as ops x the median process
            "setup_s": len(ops) * statistics.median(imports),
            "peak_rss_mb": statistics.median(p.peak_rss_mb for p in passes),
        }
        return runs, {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}

    traced = bench.run_pass(ops, trace=True)
    extra = bench.run_pass([LANGEVIN_W1], trace=True).ops if bench.workload == "ensemble" else []
    print(f"traced pass: wall {traced.wall_s:.3f}s", flush=True)
    for r in traced.ops + extra:
        print(describe(r), flush=True)
    dumps = {r.op.name: json.loads(r.trace.read_text())
             for r in traced.ops + extra if r.trace.exists()}
    speedup = 0.0
    if "langevin" in dumps and "langevin_w1" in dumps:
        speedup = (span_seconds(dumps["langevin_w1"], "simulate_ensemble")
                   / span_seconds(dumps["langevin"], "simulate_ensemble"))
    values = layer_metrics(
        [dumps[op.name] for op in ops if op.name in dumps],
        import_s=statistics.median(imports),
        speedup=speedup,
        overhead_frac=(traced.wall_s - wall) / wall,
    )
    runs += traced.ops + extra
    return runs, {k: (v, UNITS[k]) for k, v in values.items()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    root = Path.cwd()
    if not (root / "src" / "kinsde" / "cli.py").is_file() or not (root / "configs").is_dir():
        print("perfbench: no src/kinsde or configs/ here; run from the root of a kinsde "
              "checkout", file=sys.stderr)
        return 2

    work_root = root / ".bench_work"
    work = work_root / f"run-{os.getpid()}-{time.time_ns()}"
    bench = Bench(root, args.workload, args.seed, work,
                  Ledger(work_root / "ledger.json", sources_digest(root)))
    try:
        runs, metrics = measure(bench, WORKLOADS[args.workload], args.seconds, bool(args.trace))
    except RuntimeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = sum(bool(r.problems) for r in runs)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(f"attempted = {len(runs)} ops, failed = {failed} (failed_frac = "
          f"{failed / len(runs):.4g})")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(runs),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
