"""Self-tests of the benchmark: trace neutrality, exact count repeats, and
detection of corrupted or wrong outputs.

    python3 -m pytest -q perfbench

They run scaled-down variants of the workload ops (smaller N or coarser h)
from the repository root, about 30 s in all.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import ops
from layers import LAYERS, layer_metrics
from ops import Op
from run import Bench, Ledger, sources_digest

ROOT = Path(__file__).resolve().parent.parent

SMALL_OPS = [
    Op("langevin", "simulate", "langevin", ops.check_langevin, 2, {"N": 1000, "h": 0.01}),
    Op("khasminskii", "khasminskii", "khasminskii", ops.check_khasminskii, 2, {"N": 2000}),
    Op("picard", "mkv-picard", "mkv_picard", ops.check_picard, 1, {"N": 500}),
    Op("zvonkin", "zvonkin", "zvonkin_riesz", ops.check_zvonkin, 1, {"N": 1000}),
    Op("lyapunov", "lyapunov-check", "lyapunov_confining", ops.check_lyapunov),
    Op("h_bound", "h-bound", "h_bound", ops.check_h_bound),
]

REPEATED_COUNTS = [
    "integrators.particle_steps", "ergodicity.histogram_calls", "ergodicity.h_value_calls",
    "zvonkin.resolvent_solves", "lyapunov.lhs_calls", "mckean.picard_iterations",
    "fields.kernel_pair_evals",
]


def make_bench(tmp: Path, seed: int = 3) -> Bench:
    return Bench(ROOT, "selftest", seed, tmp / "work",
                 Ledger(tmp / "ledger.json", sources_digest(ROOT)))


@pytest.fixture(scope="module")
def passes(tmp_path_factory):
    """One untraced and two traced passes at one seed, sharing one ledger."""
    bench = make_bench(tmp_path_factory.mktemp("bench"))
    return bench, [bench.run_pass(SMALL_OPS, trace=t) for t in (False, True, True)]


def test_every_op_passes_its_checks(passes):
    _, runs = passes
    for p in runs:
        for r in p.ops:
            assert r.rc == 0 and r.problems == [], (r.op.name, r.problems)


def test_traced_outputs_are_byte_identical_to_untraced(passes):
    # the ledger holds the untraced pass's hashes; a traced pass that changed
    # any byte would carry a "bytes differ" problem
    bench, (plain, traced, _) = passes
    for a, b in zip(plain.ops, traced.ops):
        for name in json.loads((a.out / "manifest.json").read_text())["outputs"]:
            assert (a.out / name).read_bytes() == (b.out / name).read_bytes(), name


def test_counts_repeat_exactly_across_traced_runs(passes):
    _, (_, first, second) = passes
    counts = [layer_metrics([json.loads(r.trace.read_text()) for r in p.ops], 0.0, 0.0, 0.0)
              for p in (first, second)]
    assert list(counts[0]) == [row[0] for row in LAYERS]
    for name in REPEATED_COUNTS:
        assert counts[0][name] > 0, name
        assert counts[0][name] == counts[1][name], name


def test_corrupted_byte_fails_the_op(passes, tmp_path):
    bench, (plain, *_) = passes
    run = next(r for r in plain.ops if r.op.name == "langevin")
    out = tmp_path / "out"
    shutil.copytree(run.out, out)
    blob = bytearray((out / "snapshot.bin").read_bytes())
    blob[(len(blob) // 16) * 8] ^= 0x01  # lowest mantissa bit of one float: still plausible
    (out / "snapshot.bin").write_bytes(bytes(blob))
    run.out, run.problems = out, []
    bench.check(run)
    assert any("bytes differ" in p for p in run.problems), run.problems


def test_wrong_verdict_fails_the_op(passes, tmp_path):
    # a fresh ledger: the op-specific check alone must catch the verdict
    bench, (plain, *_) = passes
    run = next(r for r in plain.ops if r.op.name == "picard")
    out = tmp_path / "out"
    shutil.copytree(run.out, out)
    res = json.loads((out / "picard.json").read_text())
    res["converged"] = False
    (out / "picard.json").write_text(json.dumps(res))
    fresh = make_bench(tmp_path)
    run.out, run.problems = out, []
    fresh.check(run)
    assert any("did not converge" in p for p in run.problems), run.problems


def test_benchmark_json_lists_the_layer_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == [row[0] for row in LAYERS]
    assert [w["name"] for w in spec["workloads"]] == list(ops.WORKLOADS)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "meanfield", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
