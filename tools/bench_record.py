"""Record the benchmark of this checkout in ``BENCH_<pr>.json``.

Runs ``perfbench/run.py --trace 0`` 5 times per workload and writes,
for each end-to-end metric, the median and quartiles over the runs, with each
run's seed, result and CPU steal read from ``/proc/stat``, the git HEAD
with a digest of the measured sources, and ``src_lines``, the line count of
``src/kinsde/*.py`` (as ``wc -l`` counts it).  Each run also keeps the wall
time, import time and peak RSS of every op in every pass, as ``run.py``
prints them, and each workload names its ``peak_op``, the op that most often
sets a pass's peak RSS.  Run it from anywhere:

    python3 tools/bench_record.py --pr N

Repeat i (1 .. 5) runs every workload in turn for 30 s at seed i, so the
workloads share the machine's drift and each repeat uses its own seed.
"""

from __future__ import annotations

import argparse
import collections
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))
from run import sources_digest  # noqa: E402  the digest perfbench's ledger keys on

WORKLOADS = ("ensemble", "meanfield", "certify")
SEEDS = range(1, 6)
SECONDS = 30


def cpu_ticks() -> tuple[int, int]:
    """(steal, total) jiffies of all CPUs since boot; (0, 0) where there is no /proc/stat."""
    try:
        fields = Path("/proc/stat").read_text().splitlines()[0].split()
    except OSError:
        return 0, 0
    ticks = [int(v) for v in fields[1:]]
    # user nice system idle iowait irq softirq steal; guest time is already in user
    return (ticks[7] if len(ticks) > 7 else 0), sum(ticks[:8])


def git_head() -> dict:
    """HEAD, whether the tree differs from it, and perfbench's digest of ``src/`` and
    ``configs/``, which names the measured program when the tree is dirty."""
    def git(*args):
        out = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True)
        return out.stdout.strip() if out.returncode == 0 else None

    status = git("status", "--porcelain")
    return {"commit": git("rev-parse", "HEAD"), "dirty": None if status is None else bool(status),
            "sources_digest": sources_digest(ROOT)}


def src_lines() -> int:
    """Lines of ``src/kinsde/*.py``, counted as ``wc -l`` counts them."""
    return sum(p.read_bytes().count(b"\n") for p in (ROOT / "src" / "kinsde").glob("*.py"))


# one op of a pass, as perfbench/run.py's ``describe`` prints it
OP_LINE = re.compile(r"  (\S+)\s+rc=-?\d+ wall=([\d.]+)s import=(n/a|[\d.]+s) rss=([\d.]+)MB")


def op_passes(stdout: str) -> list[dict]:
    """Each pass's ops: name -> ``wall_s``, ``import_s`` (None where the op reported
    none) and ``rss_mb``, at the precision ``run.py`` prints them."""
    passes: list[dict] = []
    for line in stdout.splitlines():
        if line.startswith("pass "):
            passes.append({})
        elif passes and (m := OP_LINE.match(line)):
            name, wall, imp, rss = m.groups()
            passes[-1][name] = {"wall_s": float(wall), "rss_mb": float(rss),
                                "import_s": None if imp == "n/a" else float(imp[:-1])}
    return passes


def op_summary(runs: list[dict]) -> tuple[dict, str | None]:
    """Each op's median wall, import and RSS over every pass of the runs, and the op
    whose RSS is a pass's peak most often (``peak_rss_mb`` is the median peak)."""
    passes = [p for r in runs for p in r.get("passes", []) if p]
    ops = {}
    for name in dict.fromkeys(n for p in passes for n in p):
        values = {k: [p[name][k] for p in passes if name in p and p[name][k] is not None]
                  for k in ("wall_s", "import_s", "rss_mb")}
        ops[name] = {k: statistics.median(v) for k, v in values.items() if v}
    peaks = collections.Counter(max(p, key=lambda n: p[n]["rss_mb"]) for p in passes)
    return ops, (peaks.most_common(1)[0][0] if peaks else None)


def dumps(record: dict) -> str:
    """``json.dumps(record, indent=1)`` with each innermost object or list on one line."""
    return re.sub(r"([\[{])\n\s+([^\[\]{}]*?)\n\s*([\]}])",
                  lambda m: m[1] + re.sub(r",\n\s+", ", ", m[2]) + m[3],
                  json.dumps(record, indent=1))


def run_once(workload: str, seed: int) -> dict:
    steal0, total0 = cpu_ticks()
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(SECONDS), "--trace", "0"],
                          cwd=ROOT, capture_output=True, text=True)
    steal1, total1 = cpu_ticks()
    run = {"seed": seed, "returncode": proc.returncode, "steal_ticks": steal1 - steal0,
           "steal_frac": (steal1 - steal0) / (total1 - total0) if total1 > total0 else 0.0}
    if proc.returncode != 0:
        run["stderr"] = proc.stderr[-2000:]
        return run
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    run.update(correct=result["correct"], failed_frac=result["failed"] / result["attempted"],
               metrics={k: v["value"] for k, v in result["metrics"].items()},
               units={k: v["unit"] for k, v in result["metrics"].items()},
               passes=op_passes(proc.stdout))
    return run


def summary(runs: list[dict]) -> dict:
    """Median and quartiles (inclusive method) of each metric over the runs that gave it."""
    done = [r for r in runs if "metrics" in r]
    out = {}
    for name in done[0]["metrics"] if done else []:
        values = [r["metrics"][name] for r in done]
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
        out[name] = {"unit": done[0]["units"][name], "median": median, "q1": q1, "q3": q3,
                     "n": len(values)}
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--pr", type=int, required=True, help="the number in BENCH_<pr>.json")
    args = parser.parse_args(argv)

    head = git_head()
    runs: dict[str, list[dict]] = {w: [] for w in WORKLOADS}
    for seed in SEEDS:
        for workload in WORKLOADS:
            run = run_once(workload, seed)
            runs[workload].append(run)
            print(f"{workload} seed {seed}: " + json.dumps(run.get("metrics", run)), flush=True)
    record = {
        "pr": args.pr,
        "head": head,
        "src_lines": src_lines(),
        "command": f"perfbench/run.py --workload W --seed S --seconds {SECONDS} --trace 0",
        "workloads": {},
    }
    for w, rs in runs.items():
        ops, peak_op = op_summary(rs)
        record["workloads"][w] = {"metrics": summary(rs), "peak_op": peak_op, "ops": ops,
                                  "runs": rs}
    out = ROOT / f"BENCH_{args.pr}.json"
    out.write_text(dumps(record) + "\n")
    print(f"wrote {out}")
    return 0 if all(r.get("correct") for rs in runs.values() for r in rs) else 1


if __name__ == "__main__":
    sys.exit(main())
