"""One benchmark op, run in a fresh process the way a user runs the CLI.

    python3 perfbench/child.py '<json spec>'

The spec names a CLI argv (``{"cli": [...]}``), the library op
(``{"lib": {"seed": n, "out": dir}}``) or neither (a set-up probe).  It
also names a ``timing`` file, which receives the moment ``kinsde.cli``
(with numpy and scipy) finished importing, and, when traced, a ``trace``
file for the span dump tagged with the ``op`` name.  The exit code is the
op's.
"""

import json
import sys
import time


def library_op(seed: int, out: str) -> int:
    """``search_constants`` then ``fit_h_envelope`` on a seeded decaying curve.

    The curve has the shape of the acceptance suite's envelope study: 20
    V-distances at t = 0.25 .. 5.0 decaying roughly like 6 e^(-0.9 t).
    """
    from pathlib import Path

    import numpy as np

    from kinsde.ergodicity import fit_h_envelope
    from kinsde.fields import ConfiningDrift, LyapunovV, PhiFamily, confining_coefficients
    from kinsde.lyapunov import LogRadialSamples, search_constants

    coeffs = confining_coefficients(ConfiningDrift(c1=1.0, c2=0.5, c3=1.0, delta=1.0), d=1)
    V = LyapunovV(1.0, 1, 1)
    samples = LogRadialSamples(r_max=50.0, n_radii=16, n_dirs=10, seed=seed)
    res = search_constants(coeffs, V, "superlinear", eps=0.1, samples=samples,
                           beta=0.5, k_cap=50.0)
    rng = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
    times = np.arange(0.25, 5.01, 0.25)
    amp = rng.uniform(5.0, 7.0)
    rate = rng.uniform(0.8, 1.0)
    curve = amp * np.exp(-rate * times) * np.exp(0.15 * rng.standard_normal(times.size))
    v0 = float(V.value([3.0], [3.0]))
    fit = fit_h_envelope(times, curve, PhiFamily("superlinear", res.c0, 0.5), v0=v0)
    out_dir = Path(out)
    out_dir.mkdir(parents=True, exist_ok=True)
    payload = {
        "c0": res.c0, "K": res.K, "verdict": res.report.verdict,
        "k": fit.k, "lam": fit.lam, "dominated": fit.dominated, "v0": v0,
        "times": times.tolist(), "curve": curve.tolist(), "envelope": fit.envelope.tolist(),
    }
    (out_dir / "libop.json").write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    (out_dir / "manifest.json").write_text(json.dumps({"outputs": ["libop.json"]}) + "\n")
    return 0


def main() -> int:
    spec = json.loads(sys.argv[1])
    import kinsde.cli

    imported = time.perf_counter()
    with open(spec["timing"], "w", encoding="utf-8") as fh:
        json.dump({"imported": imported}, fh)

    if "cli" in spec:
        run, args = kinsde.cli.main, (spec["cli"],)
    elif "lib" in spec:
        run, args = library_op, (spec["lib"]["seed"], spec["lib"]["out"])
    else:
        return 0  # set-up probe
    if not spec.get("trace"):
        return run(*args)

    from spans import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        rc = tracer.root("op", run, *args)
    finally:
        tracer.uninstall()
    tracer.dump(spec["trace"], {"op": spec["op"], "rc": rc})
    return rc


if __name__ == "__main__":
    sys.exit(main())
