"""Print the sha256 of every output the shipped configs write.

Runs each ``configs/*.cfg`` through the subcommand the benchmark runs it with
(``perfbench/ops.py``'s ``WORKLOADS``) into a temporary directory, and prints
one ``<config>/<file> <sha256>`` line per output, hashed as the benchmark
hashes them: the manifest without its ``wall_clock_s``.  It takes no options:

    python3 tools/shipped_outputs.py > outputs.txt

Two checkouts that print the same lines write the same bytes.  Exits 1 if a
config has no subcommand there, or a run fails.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))
from ops import WORKLOADS, output_hashes  # noqa: E402  the benchmark's ops and output hashing


def main() -> int:
    # an op with overrides changes its config, and the library op runs none
    command = {op.config: op.command for ops in WORKLOADS.values() for op in ops
               if op.command is not None and not op.overrides}
    configs = sorted((ROOT / "configs").glob("*.cfg"))
    missing = [p.name for p in configs if p.stem not in command]
    if missing:
        print(f"shipped_outputs: no subcommand runs {', '.join(missing)}", file=sys.stderr)
        return 1
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    with tempfile.TemporaryDirectory() as tmp:
        for cfg in configs:
            out = Path(tmp) / cfg.stem
            run = subprocess.run([sys.executable, "-m", "kinsde.cli", command[cfg.stem],
                                  str(cfg), "--out", str(out)],
                                 env=env, capture_output=True, text=True)
            hashes, problems = output_hashes(out)
            if run.returncode or problems:
                print(f"shipped_outputs: {cfg.name} exited {run.returncode}: "
                      f"{run.stderr.strip() or '; '.join(problems)}", file=sys.stderr)
                return 1
            for name, digest in sorted(hashes.items()):
                print(f"{cfg.stem}/{name} {digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
