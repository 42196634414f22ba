"""Print the sha256 of every output the shipped configs write.

Runs each ``configs/*.cfg`` through the subcommand the benchmark runs it with
(``perfbench/ops.py``'s ``WORKLOADS``) into a temporary directory, and prints
one ``<config>/<file> <sha256>`` line per output, hashed as the benchmark
hashes them: the manifest without its ``wall_clock_s``.  Then it runs every
benchmark op at the benchmark seeds 1-5 as the benchmark runs it: each CLI op
on its config with the seed (and the op's overrides) set by ``config_text``
and the op's ``--workers``, printing ``<op>-seed<n>/<file> <sha256>`` lines,
and ``perfbench/child.py``'s library op (``search_constants`` with a
superlinear Phi, then ``fit_h_envelope``, which no config runs), printing
``libop-seed<n>/<file> <sha256>`` lines.  Every run imports the checkout's own
``src/``.  It takes no options:

    python3 tools/shipped_outputs.py > outputs.txt

Two checkouts that print the same lines write the same bytes.  Exits 1 if a
config has no subcommand there, or a run fails.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))
# the benchmark's ops, their configs at a seed, and output hashing
from ops import WORKLOADS, config_text, output_hashes  # noqa: E402

SEEDS = range(1, 6)  # the benchmark's seeds


def _hashed(label: str, argv: list[str], out: Path, env: dict) -> list[str] | None:
    """The ``<label>/<file> <sha256>`` lines of one run's outputs; None if it failed."""
    run = subprocess.run(argv, env=env, capture_output=True, text=True)
    hashes, problems = output_hashes(out)
    if run.returncode or problems:
        print(f"shipped_outputs: {label} exited {run.returncode}: "
              f"{run.stderr.strip() or '; '.join(problems)}", file=sys.stderr)
        return None
    return [f"{label}/{name} {digest}" for name, digest in sorted(hashes.items())]


def main() -> int:
    ops = [op for workload in WORKLOADS.values() for op in workload]
    # an op with overrides changes its config, and the library op runs none
    command = {op.config: op.command for op in ops if op.command is not None and not op.overrides}
    configs = sorted((ROOT / "configs").glob("*.cfg"))
    missing = [p.name for p in configs if p.stem not in command]
    if missing:
        print(f"shipped_outputs: no subcommand runs {', '.join(missing)}", file=sys.stderr)
        return 1
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    cli = [sys.executable, "-m", "kinsde.cli"]
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        runs = [(cfg.stem, [*cli, command[cfg.stem], str(cfg), "--out", str(tmp / cfg.stem)],
                 tmp / cfg.stem) for cfg in configs]
        for op in ops:
            for seed in SEEDS:
                label = f"{'libop' if op.command is None else op.name}-seed{seed}"
                out = tmp / label
                if op.command is None:
                    spec = {"lib": {"seed": seed, "out": str(out)},
                            "timing": str(out) + ".timing.json"}
                    argv = [sys.executable, str(ROOT / "perfbench" / "child.py"), json.dumps(spec)]
                else:
                    cfg = tmp / f"{label}.cfg"
                    cfg.write_text(config_text(ROOT, op, seed), encoding="utf-8")
                    argv = [*cli, op.command, str(cfg), "--out", str(out),
                            "--workers", str(op.workers)]
                runs.append((label, argv, out))
        for label, argv, out in runs:
            lines = _hashed(label, argv, out, env)
            if lines is None:
                return 1
            print("\n".join(lines), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
