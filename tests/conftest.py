import itertools
import threading

import numpy as np
import pytest

from cfomimo import (CfoPrior, CorrelationModel, build_stats, expand_block,
                     generate_periodic_pilot, generate_td_pilot, make_model,
                     mmse_gain)

from reference_impls import reference_trial_rng


def random_psd(rng, dim):
    raw = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return raw @ raw.conj().T / dim + 0.1 * np.eye(dim)


def _hermitian(matrix):
    return 0.5 * (matrix + matrix.conj().T)


def spatial_model(spatial, l_t, l_r, rho_h):
    """A Rician model whose spatial covariance is iid, exponential, a
    Kronecker product of complex Hermitian factors, or a PSD matrix that
    is not a Kronecker product."""
    if spatial in ("iid", "exponential"):
        return make_model(l_t, l_r, rho_h, spatial=spatial, spatial_a=0.6,
                          spatial_b=0.4, mean="rician", rician_k=1.5)
    rng = np.random.default_rng(5)
    if spatial == "complex-kron":
        cov = np.kron(_hermitian(random_psd(rng, l_r)), _hermitian(random_psd(rng, l_t)))
    else:
        cov = _hermitian(random_psd(rng, l_t * l_r))
    mean = 0.5 * np.exp(2j * np.pi * rng.random(l_t * l_r))
    return CorrelationModel(l_t, l_r, rho_h, cov, mean)


def dense_gain_and_offset(pilot, l_r, stats):
    """The channel-space MMSE error covariance A = (Sb^H Sb + Sigma_h^{-1})^{-1}
    and offset b = (I - A Sb^H Sb) mu_h, formed densely for the oracles."""
    sb = expand_block(pilot, l_r)
    gain = mmse_gain(sb, stats.sigma_h)[0]
    return gain, stats.mu_h - gain @ (sb.conj().T @ (sb @ stats.mu_h))


def dense_kernel(ws):
    """The workspace's quadratic kernel K = sum_i (u_i u_i^H) kron K_i, dense."""
    p, q = ws.kernels.shape[:2]
    weights = (ws.U[:, None, :] * ws.U.conj()[None, :, :]).reshape(p * p, p)
    kernel = (weights @ ws.kernels.reshape(p, q * q)).reshape(p, p, q, q)
    return kernel.transpose(0, 2, 1, 3).reshape(p * q, p * q)


def random_case(rng, l_t_max=2, l_r_max=2, n_max=12, allow_frozen=True):
    """One random (pilot, model, stats, prior) configuration for property tests."""
    l_t = int(rng.integers(1, l_t_max + 1))
    l_r = int(rng.integers(1, l_r_max + 1))
    m = int(rng.integers(2, max(3, n_max // l_t) + 1))
    scrambling = np.exp(2j * np.pi * rng.random(l_t * m))
    maker = generate_periodic_pilot if rng.random() < 0.5 else generate_td_pilot
    pilot = maker(l_t, m, rho=float(rng.uniform(0.5, 5.0)), scrambling=scrambling)
    rho_h = float(rng.uniform(0.0, 1.0 if allow_frozen else 0.999))
    model = make_model(
        l_t, l_r, rho_h,
        spatial="exponential" if rng.random() < 0.5 else "iid",
        spatial_a=float(rng.uniform(0.1, 0.9)),
        spatial_b=float(rng.uniform(0.1, 0.9)),
        sigma_h_sq=float(rng.uniform(0.5, 2.0)),
        mean="rician" if rng.random() < 0.5 else "zero",
        rician_k=float(rng.uniform(0.2, 3.0)))
    stats = build_stats(model, pilot.n)
    if rng.random() < 0.25:
        prior = CfoPrior.ml(float(rng.uniform(-0.2, 0.2)))
    else:
        prior = CfoPrior(float(rng.uniform(-0.2, 0.2)),
                         float(rng.uniform(1e-6, 1e-2)))
    return pilot, model, stats, prior


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


class DrawLog:
    """A sweep's trial draws, seen through monkeypatch: every trial a thread
    takes from its block's shared queue (simcli._BlockDraws.take), with
    that thread, and every block as _received_trials samples it, its
    f_true and rows copied then and the rows kept as the view they are."""

    def __init__(self, monkeypatch):
        from cfomimo import simcli

        self.taken = {}  # each block's draws, in the order of their first take
        self.sampled = []
        take, received = simcli._BlockDraws.take, simcli._received_trials

        def recording_take(draws):
            trial = take(draws)
            if trial is not None:
                self.taken.setdefault(draws, []).append((trial[0], threading.current_thread()))
            return trial

        def recording_received(model, ws, f_true, rows):
            self.sampled.append((f_true.copy(), rows.copy(), rows))
            return received(model, ws, f_true, rows)

        monkeypatch.setattr(simcli._BlockDraws, "take", recording_take)
        monkeypatch.setattr(simcli, "_received_trials", recording_received)

    def clear(self):
        self.taken.clear()
        self.sampled.clear()

    def threads(self) -> list:
        """Per block, in draw order, the set of threads that drew its trials."""
        return [{thread for _, thread in taken} for taken in self.taken.values()]

    def check(self, config, split):
        """Assert that the sweep of config drew, at every SNR point, blocks
        of the sizes in split, each trial exactly once by the sweep's own
        thread or the point's one helper (one-block points on the sweep's
        thread alone), and sampled each block only once it was fully drawn:
        its f_true and rows then are the trials' streams' draws, row by
        row, in buffer halves that alternate from block to block."""
        prior, main = config.prior(), threading.main_thread()
        sampling = config.f_true_mode == "prior" and not prior.is_ml
        blocks = [(point, range(end - size, end)) for point in range(len(config.snr_db))
                  for size, end in zip(split, itertools.accumulate(split))]
        assert [len(taken) for taken in self.taken.values()] == [len(t) for _, t in blocks]
        for taken in self.taken.values():
            assert sorted(i for i, _ in taken) == list(range(len(taken)))
        assert len(self.sampled) == len(blocks)
        threads = self.threads()
        for start in range(0, len(blocks), len(split)):
            drew = set().union(*threads[start:start + len(split)])
            if len(split) == 1:
                assert drew == {main}
            else:
                assert len(drew - {main}) <= 1  # the point's one helper
            views = [rows for _, _, rows in self.sampled[start:start + len(split)]]
            for a, b in zip(views, views[1:]):
                assert not np.shares_memory(a, b)
            for a, b in zip(views, views[2:]):
                assert a.ctypes.data == b.ctypes.data
        for (point, trials), (f_true, rows, _) in zip(blocks, self.sampled):
            for i, trial in enumerate(trials):
                rng = reference_trial_rng(config.seed, point, trial)
                assert f_true[i] == (prior.sample(rng) if sampling else prior.mu_f)
                np.testing.assert_array_equal(rows[i], rng.standard_normal(rows.shape[1]))


@pytest.fixture
def draw_log(monkeypatch):
    return DrawLog(monkeypatch)
