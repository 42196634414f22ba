"""The ensemble step loop: pinned output bytes, the death mask, the step noise and
the per-step callables."""

import hashlib
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kinsde.cli import main
from kinsde.core import CloudInit, EmpiricalLaw, SimConfig
from kinsde.fields import build_coefficients
from kinsde.integrators import save_snapshot, simulate_ensemble, step_arrays, step_normals

BASE = """
T = {T}
h = 0.001
N = 2000
seed = {seed}
d1 = 1
d2 = 1
m = 1
scheme = {scheme}
hist.min = -6.0
hist.max = 6.0
hist.bins = 12
"""

LANGEVIN = BASE.format(T=2.0, seed=101, scheme="euler") + "drift = linear_langevin\n"
TAMED = BASE.format(T=1.0, seed=8, scheme="tamed") + (
    "drift = confining\nc1 = 1.0\nc2 = 1.0\nc3 = 1.0\n"
    "riesz.atoms = [(0.0, 1.0)]\nriesz.alpha = 0.5\ninit.a = (1.5, -1.0)\n"
)

# Rows marked by their (constant) position coordinate go bad at a known step:
# label -> (step at which the drift turns bad, rows, which coordinate, value)
BAD_ROWS = {
    1.0: (10, [3, 4, 250], "y", np.nan),
    2.0: (20, [17], "y", np.inf),
    3.0: (30, [99, 100], "y", 2e15),       # finite, beyond the 1e12 threshold
    4.0: (40, [200], "x", -3e15),
}
DEATHS = SimConfig(T=0.5, h=0.01, N=300, seed=4)


def death_cloud() -> CloudInit:
    x = np.zeros((DEATHS.N, 1))
    for label, (_, rows, _, _) in BAD_ROWS.items():
        x[rows] = label
    y = np.linspace(-2.0, 2.0, DEATHS.N)[:, None]
    return CloudInit(EmpiricalLaw(x, y))


def death_coefficients(bad: bool):
    """z1 = 0 keeps each row's label; z2 = -y, except on labelled rows once bad."""

    def blow(t, x, coord, base):
        if not bad:
            return base
        out = base.copy()
        for label, (k0, _, c, val) in BAD_ROWS.items():
            if c == coord and t > (k0 - 0.5) * DEATHS.h:
                out[x[:, 0] == label] = val
        return out

    return build_coefficients(
        z1=lambda t, x, y: blow(t, x, "x", np.zeros_like(x)),
        z2=lambda t, x, y, law: blow(t, x, "y", -y),
        b=None, sigma=0.5, d1=1, d2=1,
    )


def death_run(bad: bool = True, **kw):
    return simulate_ensemble(DEATHS, death_coefficients(bad), death_cloud(), **kw)


def observed_death_run(bad: bool = True, **kw):
    """The run and what ``observe`` saw: (k, t, x, y, dW) per grid time, copied."""
    seen = []
    ens = death_run(bad, observe=lambda k, t, x, y, dW: seen.append(
        (k, t, x.copy(), y.copy(), None if dW is None else dW.copy())), **kw)
    return ens, seen


def sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


ROOT = Path(__file__).resolve().parents[1]

# sha256 of snapshot.bin, captured before the step loop lost its thread pool
GOLDEN = {
    "langevin": "4c90f8ad3372cd9be565d87626ace6483618a69e5dd83a55cc003cebc91ddead",
    "tamed": "eb3229c50c0112846599ea732589aa88801ca00f3c3b22f2e94d114a4665ef92",
    "deaths": "1acf1753b4ae06fbf22489a9dc3306897361b783eec75a6c1facd32fd6ce521b",
}


class TestGoldenBytes:
    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("name, text", [("langevin", LANGEVIN), ("tamed", TAMED)])
    def test_cli_snapshot(self, tmp_path, name, text, workers):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text)
        assert main(["simulate", str(cfg), "--out", str(tmp_path), "--workers", str(workers)]) == 0
        assert sha256(tmp_path / "snapshot.bin") == GOLDEN[name]

    # sha256 of configs/khasminskii.cfg's khasminskii.json, captured while the
    # estimator still read the states through a post-step callback
    def test_khasminskii_json(self, tmp_path):
        assert main(["khasminskii", str(ROOT / "configs" / "khasminskii.cfg"),
                     "--out", str(tmp_path)]) == 0
        assert sha256(tmp_path / "khasminskii.json") == (
            "f4c1b35c33907cd543ab6120b967ce860d396f57ff8e7d6f4b9cdef8abdc7031")

    def test_deaths_snapshot(self, tmp_path):
        ens = death_run()
        bin_path, _ = save_snapshot(tmp_path / "snapshot", ens)
        assert ens.n_dead == 7
        assert sha256(bin_path) == GOLDEN["deaths"]


class TestDeathMask:
    def test_bad_rows_freeze_at_last_finite_state(self):
        ens = death_run()
        clean, seen = observed_death_run(bad=False)
        dead = np.zeros(DEATHS.N, dtype=bool)
        for k0, rows, _, _ in BAD_ROWS.values():
            # the step from t_k0 produces the bad value, so the row keeps its state at k0
            _, _, x_k0, y_k0, _ = seen[k0]
            assert np.array_equal(ens.x[rows], x_k0[rows])
            assert np.array_equal(ens.y[rows], y_k0[rows])
            dead[rows] = True
        assert ens.n_dead == int(dead.sum()) == 7
        assert np.array_equal(ens.alive, ~dead)
        assert np.all(np.isfinite(ens.x)) and np.all(np.isfinite(ens.y))
        assert np.array_equal(ens.x[~dead], clean.x[~dead])
        assert np.array_equal(ens.y[~dead], clean.y[~dead])
        assert clean.n_dead == 0

    def test_dead_rows_leave_the_law_and_records(self):
        ens = death_run(record_times=[0.0, 0.15, 0.5])
        assert [law.n for law in ens.records] == [300, 297, 293]
        assert ens.law().n == 293

    @pytest.mark.parametrize("coord", ["x", "y"])
    def test_row_at_the_threshold_dies(self, coord):
        # |v| < 1e12 survives; exactly 1e12 does not.  The other coordinate
        # is constant and labels the row.
        kick = lambda label: np.where(label > 0, 2e12, 2e12 - 2e4)
        zero = lambda v: np.zeros_like(v)
        co = build_coefficients(
            z1=(lambda t, x, y: kick(y)) if coord == "x" else (lambda t, x, y: zero(x)),
            z2=(lambda t, x, y, law: kick(x)) if coord == "y" else (lambda t, x, y, law: zero(y)),
            b=None, sigma=0.0, d1=1, d2=1)
        label, start = np.array([[1.0], [0.0]]), np.zeros((2, 1))
        law = EmpiricalLaw(label, start) if coord == "y" else EmpiricalLaw(start, label)
        ens = simulate_ensemble(SimConfig(T=0.5, h=0.5, N=2, seed=0), co, CloudInit(law))
        assert ens.alive.tolist() == [False, True]


def philox_normals(seed, stream, step, n, m):
    """The step-noise definition: a Philox keyed by (seed, purpose 0, stream, step)."""
    key = np.array([seed & (2**64 - 1), ((stream & 0xFFFFF) << 40) | (step & (2**40 - 1))],
                   dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key)).standard_normal((n, m))


calls = st.tuples(st.integers(0, 2**64 - 1), st.integers(0, 2**20 - 1),
                  st.integers(0, 2**40 - 1), st.integers(0, 300), st.integers(1, 4))


class TestStepNoise:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(calls, min_size=1, max_size=4))
    def test_rekeyed_generator_equals_fresh_philox(self, seq):
        # a run of calls: nothing carries over from one call to the next
        for args in seq:
            assert step_normals(*args).tobytes() == philox_normals(*args).tobytes()

    @settings(max_examples=60, deadline=None)
    @given(calls, st.integers(0, 300))
    def test_rows_do_not_depend_on_n(self, args, extra):
        seed, stream, step, n, m = args
        full = step_normals(seed, stream, step, n + extra, m)
        assert full[:n].tobytes() == step_normals(seed, stream, step, n, m).tobytes()

    def test_threads_get_their_own_generator(self):
        # more threads than cores and a short switch interval, so a shared
        # generator would be re-keyed by one thread while another draws
        out = {}

        def draw(i):
            out[i] = [step_normals(7, i, k, 500, 2) for k in range(50)]

        threads = [threading.Thread(target=draw, args=(i,)) for i in range(4)]
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=60)
        finally:
            sys.setswitchinterval(old)
        assert not any(th.is_alive() for th in threads)
        for i in range(4):
            for k in range(50):
                assert out[i][k].tobytes() == philox_normals(7, i, k, 500, 2).tobytes()


class TestApplySigma:
    @pytest.mark.parametrize("d2, m", [(1, 1), (2, 2), (2, 3)])
    @pytest.mark.parametrize("n", [1, 7, 10_000])
    def test_constant_sigma_matches_matmul_bytes(self, d2, m, n):
        rng = np.random.default_rng(d2 * 10 + m)
        sigma = rng.standard_normal((d2, m))
        co = build_coefficients(z1=None, z2=None, b=None, sigma=sigma, d1=1, d2=d2, m=m)
        dw = rng.standard_normal((n, m))
        got = co.apply_sigma(0.0, np.zeros((n, d2)), dw)
        assert got.tobytes() == (dw @ sigma.T).tobytes()


class TestPerStepCallables:
    def test_law_and_observe_see_each_grid_state_in_order(self):
        seen_law = []

        def law(k, t, x, y, alive):
            seen_law.append((k, t, x.copy(), alive.copy()))
            return None

        ens, seen = observed_death_run(law=law)
        K, h = DEATHS.n_steps, DEATHS.h
        co = death_coefficients(True)
        assert [s[0] for s in seen] == list(range(K + 1))
        assert [s[0] for s in seen_law] == list(range(K))
        live = np.ones(DEATHS.N, dtype=bool)
        for k, t, x, y, dW in seen:
            assert t == ens.times[k]
            if k == K:
                assert dW is None
                assert np.array_equal(x, ens.x) and np.array_equal(y, ens.y)
                continue
            # the step's increments are the step noise, and the next state is
            # one step from this one on the rows still alive, this one on the dead
            assert np.array_equal(dW, np.sqrt(h) * step_normals(DEATHS.seed, 0, k, DEATHS.N, 1))
            with np.errstate(invalid="ignore"):
                nx, ny = step_arrays(co, t, h, x, y, None, dW, False)
            live &= np.isfinite(nx[:, 0]) & (np.abs(nx[:, 0]) < 1e12) \
                & np.isfinite(ny[:, 0]) & (np.abs(ny[:, 0]) < 1e12)
            _, _, x1, y1, _ = seen[k + 1]
            assert np.array_equal(x1[live], nx[live]) and np.array_equal(y1[live], ny[live])
            assert np.array_equal(x1[~live], x[~live]) and np.array_equal(y1[~live], y[~live])
        for k, t, x, alive in seen_law:
            assert t == ens.times[k] and np.array_equal(x, seen[k][2])
        assert np.array_equal(live, ens.alive)
        assert np.array_equal(seen_law[-1][3], ens.alive) and ens.n_dead == 7
        # looking on changes nothing
        plain, plain_seen = observed_death_run()
        for name in ("x", "y", "alive"):
            assert np.array_equal(getattr(ens, name), getattr(plain, name))
        for (_, _, x, y, dW), (_, _, px, py, pdW) in zip(seen, plain_seen, strict=True):
            assert np.array_equal(x, px) and np.array_equal(y, py)
            assert (dW is None and pdW is None) or np.array_equal(dW, pdW)
