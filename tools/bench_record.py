"""Record the benchmark of this checkout in ``BENCH_<pr>.json``.

Runs ``perfbench/run.py --trace 0`` 5 times per workload and writes,
for each end-to-end metric, the median and quartiles over the runs, with each
run's seed, result and CPU steal read from ``/proc/stat``, the git HEAD
with a digest of the measured sources, and ``src_lines``, the line count of
``src/kinsde/*.py`` (as ``wc -l`` counts it).  Run it from anywhere:

    python3 tools/bench_record.py --pr N

Repeat i (1 .. 5) runs every workload in turn for 30 s at seed i, so the
workloads share the machine's drift and each repeat uses its own seed.
"""

from __future__ import annotations

import argparse
import json
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
               units={k: v["unit"] for k, v in result["metrics"].items()})
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
        "workloads": {w: {"metrics": summary(rs), "runs": rs} for w, rs in runs.items()},
    }
    out = ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {out}")
    return 0 if all(r.get("correct") for rs in runs.values() for r in rs) else 1


if __name__ == "__main__":
    sys.exit(main())
