"""Per-layer metrics of the traced run, with the prediction each one carries.

Every row is (metric, unit, measured as, end-to-end metric it should move,
workloads it should move on).  A later change that speeds up one layer
should move the named end-to-end metric on the named workloads and leave
the other workloads alone.
"""

from __future__ import annotations

from collections import defaultdict

LAYERS = [
    ("cli.import_s", "s", "fresh-process `import kinsde.cli`, median per process",
     "setup_s", "certify (most processes), all"),
    ("cli.io_s", "s", "write_csv + write_json + save_snapshot", "wall_s", "ensemble"),
    ("core.sigma_s", "s", "CoefficientSet.apply_sigma", "wall_s", "ensemble"),
    ("core.drift_y_s", "s", "CoefficientSet.drift_y", "wall_s", "ensemble"),
    ("core.laws_built", "count", "EmpiricalLaw constructions", "wall_s, peak_rss_mb",
     "meanfield"),
    ("core.lpq_norm_s", "s", "localized_lpq_norm", "wall_s", "ensemble"),
    ("fields.riesz_s", "s", "RieszDrift.__call__", "wall_s", "ensemble"),
    ("fields.confining_s", "s", "ConfiningDrift.z1 + z2", "wall_s", "ensemble, meanfield"),
    ("fields.kernel_s", "s", "MeanFieldKernel.mean_against", "wall_s", "meanfield"),
    ("fields.kernel_pair_evals", "count",
     "sum of n*M over pairwise calls plus M over target calls", "wall_s, peak_rss_mb",
     "meanfield"),
    ("fields.lyapunov_blocks_calls", "count", "LyapunovV.blocks calls", "wall_s", "certify"),
    ("integrators.particle_steps", "count", "sum of N * steps over returned ensembles",
     "(base of ns_per_particle_step)", "all"),
    ("integrators.ns_per_particle_step", "ns",
     "(simulate_ensemble + particle_system_run) / particle_steps", "wall_s",
     "ensemble, meanfield"),
    ("integrators.noise_s", "s", "step_normals", "wall_s", "ensemble"),
    ("integrators.noise_calls", "count", "step_normals calls", "wall_s", "ensemble"),
    ("integrators.loop_self_s", "s",
     "self time of simulate_ensemble and particle_system_run spans "
     "(update, death mask, recording, pool)", "wall_s", "ensemble"),
    ("integrators.workers2_speedup", "ratio",
     "langevin simulate_ensemble at workers 1 / at workers 2 (ensemble only, else 0)",
     "wall_s", "ensemble"),
    ("integrators.dead_particles", "count", "sum of n_dead over returned ensembles",
     "failed ops", "all"),
    ("integrators.khasminskii_s", "s", "khasminskii_estimate", "wall_s", "ensemble"),
    ("ergodicity.histogram_calls", "count", "histogram_law calls", "wall_s", "meanfield"),
    ("ergodicity.histogram_s", "s", "histogram_law", "wall_s", "meanfield"),
    ("ergodicity.bootstrap_s", "s", "bootstrap_noise_floor", "wall_s", "all (small share)"),
    ("ergodicity.h_value_calls", "count", "HTransform.value calls (one quad each)", "wall_s",
     "certify"),
    ("ergodicity.h_inverse_calls", "count", "HTransform.inverse calls", "wall_s", "certify"),
    ("ergodicity.h_envelope_calls", "count", "h_envelope calls", "wall_s", "certify"),
    ("ergodicity.fit_h_envelope_s", "s", "fit_h_envelope", "wall_s", "certify"),
    ("lyapunov.lhs_calls", "count", "drift_condition_lhs calls", "wall_s", "certify"),
    ("lyapunov.lhs_s", "s", "drift_condition_lhs", "wall_s", "certify"),
    ("lyapunov.search_s", "s", "search_constants", "wall_s", "certify"),
    ("zvonkin.resolvent_solves", "count", "solve_resolvent_1d calls", "wall_s", "certify"),
    ("zvonkin.resolvent_s", "s", "solve_resolvent_1d", "wall_s", "certify"),
    ("zvonkin.theta_inv_calls", "count", "ZvonkinSolution.theta_inv calls", "wall_s",
     "certify"),
    ("zvonkin.theta_inv_s", "s", "ZvonkinSolution.theta_inv", "wall_s", "certify"),
    ("mckean.particle_run_s", "s", "particle_system_run", "wall_s", "meanfield"),
    ("mckean.picard_iterations", "count", "picard_iterate calls", "wall_s", "meanfield"),
    ("mckean.picard_iterate_s", "s", "mean time per picard_iterate", "wall_s", "meanfield"),
    ("mckean.law_at_calls", "count", "MeasureFlow.law_at calls", "wall_s", "meanfield"),
    ("mckean.law_at_s", "s", "MeasureFlow.law_at", "wall_s", "meanfield"),
    ("mckean.rho_s", "s", "rho_lambda", "wall_s", "meanfield"),
    ("trace.overhead_frac", "ratio",
     "(traced wall_s - untraced median wall_s) / untraced median wall_s", "none", "all"),
]

UNITS = {name: unit for name, unit, *_ in LAYERS}


class Totals:
    """Time, self time and call count per wrapped name, summed over op dumps."""

    def __init__(self, dumps: list[dict]):
        self.time: dict[str, float] = defaultdict(float)
        self.self: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counters: dict[str, int] = defaultdict(int)
        for d in dumps:
            for s in d["spans"]:
                self.time[s["name"]] += s["end"] - s["start"]
                self.self[s["name"]] += s["self"]
                self.calls[s["name"]] += 1
            for a in d["aggs"]:
                self.time[a["name"]] += a["total"]
                self.self[a["name"]] += a["self"]
                self.calls[a["name"]] += a["count"]
            for k, v in d["counters"].items():
                self.counters[k] += v


def layer_metrics(dumps: list[dict], import_s: float, speedup: float,
                  overhead_frac: float) -> dict[str, float]:
    """Every metric of :data:`LAYERS` from the traced ops' span dumps."""
    t = Totals(dumps)
    T, C = t.time, t.calls
    steps = t.counters["particle_steps"]
    ens_s = T["simulate_ensemble"] + T["particle_system_run"]
    picards = C["picard_iterate"]
    values = {
        "cli.import_s": import_s,
        "cli.io_s": T["write_csv"] + T["write_json"] + T["save_snapshot"],
        "core.sigma_s": T["CoefficientSet.apply_sigma"],
        "core.drift_y_s": T["CoefficientSet.drift_y"],
        "core.laws_built": C["EmpiricalLaw.__init__"],
        "core.lpq_norm_s": T["localized_lpq_norm"],
        "fields.riesz_s": T["RieszDrift.__call__"],
        "fields.confining_s": T["ConfiningDrift.z1"] + T["ConfiningDrift.z2"],
        "fields.kernel_s": T["MeanFieldKernel.mean_against"],
        "fields.kernel_pair_evals": t.counters["kernel_pair_evals"],
        "fields.lyapunov_blocks_calls": C["LyapunovV.blocks"],
        "integrators.particle_steps": steps,
        "integrators.ns_per_particle_step": 1e9 * ens_s / steps if steps else 0.0,
        "integrators.noise_s": T["step_normals"],
        "integrators.noise_calls": C["step_normals"],
        "integrators.loop_self_s": t.self["simulate_ensemble"] + t.self["particle_system_run"],
        "integrators.workers2_speedup": speedup,
        "integrators.dead_particles": t.counters["dead_particles"],
        "integrators.khasminskii_s": T["khasminskii_estimate"],
        "ergodicity.histogram_calls": C["histogram_law"],
        "ergodicity.histogram_s": T["histogram_law"],
        "ergodicity.bootstrap_s": T["bootstrap_noise_floor"],
        "ergodicity.h_value_calls": C["HTransform.value"],
        "ergodicity.h_inverse_calls": C["HTransform.inverse"],
        "ergodicity.h_envelope_calls": C["h_envelope"],
        "ergodicity.fit_h_envelope_s": T["fit_h_envelope"],
        "lyapunov.lhs_calls": C["drift_condition_lhs"],
        "lyapunov.lhs_s": T["drift_condition_lhs"],
        "lyapunov.search_s": T["search_constants"],
        "zvonkin.resolvent_solves": C["solve_resolvent_1d"],
        "zvonkin.resolvent_s": T["solve_resolvent_1d"],
        "zvonkin.theta_inv_calls": C["ZvonkinSolution.theta_inv"],
        "zvonkin.theta_inv_s": T["ZvonkinSolution.theta_inv"],
        "mckean.particle_run_s": T["particle_system_run"],
        "mckean.picard_iterations": picards,
        "mckean.picard_iterate_s": T["picard_iterate"] / picards if picards else 0.0,
        "mckean.law_at_calls": C["MeasureFlow.law_at"],
        "mckean.law_at_s": T["MeasureFlow.law_at"],
        "mckean.rho_s": T["rho_lambda"],
        "trace.overhead_frac": overhead_frac,
    }
    return values
