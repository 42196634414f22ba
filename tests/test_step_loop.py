"""The ensemble step loop: pinned output bytes, the death mask, the step noise and
the per-step callables."""

import hashlib
import sys
import threading
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from kinsde.cli import main
from kinsde.core import CloudInit, EmpiricalLaw, SimConfig
from kinsde.fields import build_coefficients
from kinsde import integrators
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


def death_cloud(n: int = DEATHS.N) -> CloudInit:
    x = np.zeros((n, 1))
    for label, (_, rows, _, _) in BAD_ROWS.items():
        x[rows] = label
    y = np.linspace(-2.0, 2.0, n)[:, None]
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


def death_run(bad: bool = True, cfg: SimConfig = DEATHS, **kw):
    """The labelled rows of ``death_cloud`` die on ``cfg``'s grid (its h must be DEATHS.h)."""
    return simulate_ensemble(cfg, death_coefficients(bad), death_cloud(cfg.N), **kw)


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
        assert [law.n for law in ens.flow.clouds] == [300, 297, 293]
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


# Death runs that span several noise chunks and end in a partial one: N = 300
# draws without the helper thread, N = 5000 with it.
RING_RUNS = {
    "loop only": SimConfig(T=4.5, h=DEATHS.h, N=300, seed=4),
    "helper": SimConfig(T=0.5, h=DEATHS.h, N=5000, seed=4),
}


def chunk_steps(cfg: SimConfig) -> int:
    return -(-integrators._CHUNK_NORMALS // (cfg.N * cfg.m))


def raised_by(run):
    """What ``run()`` raised, run on a thread that must end within a minute."""
    box = {}

    def target():
        try:
            run()
        except BaseException as exc:
            box["exc"] = exc

    th = threading.Thread(target=target, daemon=True)  # a hung run must not block exit
    th.start()
    th.join(timeout=60)
    assert not th.is_alive(), "the run hung"
    return box.get("exc")


class TestNoiseRing:
    @pytest.mark.parametrize("name", list(RING_RUNS))
    def test_observed_increments_are_the_step_noise(self, name):
        cfg = RING_RUNS[name]
        K, B = cfg.n_steps, chunk_steps(cfg)
        assert K // B >= 3 and K % B != 0
        threaded = cfg.N * cfg.m >= integrators._HELPER_MIN_BLOCK
        assert threaded == (name == "helper")
        before = threading.active_count()
        seen, active = [], []

        def observe(k, t, x, y, dW):
            active.append(threading.active_count())
            if dW is not None:
                want = np.sqrt(cfg.h) * step_normals(cfg.seed, 0, k, cfg.N, cfg.m)
                seen.append(dW.tobytes() == want.tobytes())

        ens = death_run(cfg=cfg, observe=observe)
        assert len(seen) == K and all(seen)
        assert ens.n_dead == 7
        assert active[0] == before + threaded
        assert threading.active_count() == before

    @pytest.mark.parametrize("where", ["law", "observe"])
    def test_hook_exception_reaches_the_caller(self, where):
        cfg = RING_RUNS["helper"]
        boom = RuntimeError(f"{where} failed")

        def hook(k, *_):
            if k == 2 * chunk_steps(cfg) + 3:
                raise boom

        before = threading.active_count()
        assert raised_by(lambda: death_run(cfg=cfg, **{where: hook})) is boom
        assert threading.active_count() == before

    def test_helper_draw_exception_reaches_the_caller(self, monkeypatch):
        cfg = RING_RUNS["helper"]
        bad_step = 2 * chunk_steps(cfg) + 1   # in the third chunk, which the helper draws
        boom = RuntimeError("draw failed")
        drawn_by = []
        hit = threading.Event()
        draw = integrators.step_normals

        def failing_draw(seed, stream, step, n, m, out=None):
            if step == bad_step:
                drawn_by.append(threading.current_thread())
                hit.set()
                raise boom
            return draw(seed, stream, step, n, m, out=out)

        def law(k, *_):
            # hold the loop at step 0 until the helper reaches the bad step
            if k == 0:
                assert hit.wait(timeout=30)

        monkeypatch.setattr(integrators, "step_normals", failing_draw)
        caller = []
        before = threading.active_count()

        def run():
            caller.append(threading.current_thread())
            death_run(cfg=cfg, law=law)

        assert raised_by(run) is boom
        assert drawn_by and drawn_by[0] is not caller[0]
        assert threading.active_count() == before

    @settings(max_examples=150, deadline=None)
    @given(m=st.integers(1, 3), N=st.integers(1, 200), K=st.integers(1, 40),
           h=st.floats(1e-4, 1.0), chunk=st.integers(1, 400), helper=st.booleans(),
           fail=st.none() | st.integers(0, 39))
    @example(m=1, N=1, K=40, h=0.01, chunk=3, helper=True, fail=None)   # 14 tiny chunks
    @example(m=2, N=2, K=40, h=0.01, chunk=20, helper=True, fail=None)  # K % B == 0
    @example(m=1, N=1, K=5, h=0.01, chunk=100, helper=True, fail=None)  # K < B
    @example(m=1, N=4, K=10, h=0.01, chunk=40, helper=True, fail=None)  # one chunk, K == B
    @example(m=1, N=1, K=7, h=0.01, chunk=4, helper=True, fail=None)    # two chunks
    @example(m=1, N=1, K=40, h=0.01, chunk=3, helper=True, fail=31)
    def test_noise_stream_property(self, m, N, K, h, chunk, helper, fail):
        """Every chunk layout yields the step noise in order, passes a hook's
        exception through as the same object and leaves no thread behind."""
        cfg = SimConfig(T=K * h, h=h, N=N, seed=11, m=m)
        assert cfg.n_steps == K
        coeffs = build_coefficients(z1=lambda t, x, y: np.zeros_like(x),
                                    z2=lambda t, x, y, law: np.zeros_like(y),
                                    b=None, sigma=1.0, d1=1, d2=1, m=m)
        init = CloudInit(EmpiricalLaw(np.zeros((N, 1)), np.zeros((N, 1))))
        fail = None if fail is None else fail % K
        boom = RuntimeError("observe failed")
        seen = []

        def observe(k, t, x, y, dW):
            if dW is not None:
                want = np.sqrt(h) * step_normals(cfg.seed, 0, k, N, m)
                seen.append((k, dW.tobytes() == want.tobytes()))
            if k == fail:
                raise boom

        before = threading.active_count()
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # interleave the helper and the loop often
        try:
            with mock.patch.object(integrators, "_CHUNK_NORMALS", chunk), \
                    mock.patch.object(integrators, "_HELPER_MIN_BLOCK",
                                      1 if helper else N * m + 1):
                exc = raised_by(lambda: simulate_ensemble(cfg, coeffs, init, observe=observe))
        finally:
            sys.setswitchinterval(switch)
        assert exc is (None if fail is None else boom)
        assert seen == [(k, True) for k in range(K if fail is None else fail + 1)]
        assert threading.active_count() == before
