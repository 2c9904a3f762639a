"""Walk through one joint frequency-offset and channel estimation trial.

Builds every object by hand so the data flow is visible: pilot -> channel
statistics -> workspace -> received signal -> lag series -> offset search ->
MMSE channel estimate.
"""
import numpy as np

from cfomimo import (CfoPrior, build_stats, build_workspace, compute_z,
                     estimate_cfo_universal, estimate_channel_mmse, expand_block,
                     generate_td_pilot, make_model, map_metric, mmse_gain,
                     sample_ar1_trajectory, synthesize_rx)

rng = np.random.default_rng(7)

# 4x4 MIMO, 20 pilot symbols, time-division pilot at 20 dB SNR
snr_db = 20.0
pilot = generate_td_pilot(l_t=4, m=5, rho=10 ** (snr_db / 10))
print(f"pilot: {pilot.structure.value}, n={pilot.n}, power rho={pilot.rho:.1f}")

# fading stays strongly correlated over the pilot (rho_h = 0.99)
model = make_model(l_t=4, l_r=4, rho_h=0.99)
stats = build_stats(model, pilot.n)
print(f"channel statistics: dim {stats.dim}, rho_h={model.rho_h}")

# residual offset believed to sit near 0.1 cycles/symbol
prior = CfoPrior(mu_f=0.1, sigma_f_sq=1e-5)
ws = build_workspace(pilot, model.l_r, stats, prior)
# the MMSE error covariance A lives in the channel space, so it is built on request
gain = mmse_gain(expand_block(pilot, model.l_r), stats.sigma_h)[0]
print(f"workspace: A is {gain.shape}, inner solve condition {ws.condition:.1f}")

# one packet
f_true = prior.sample(rng)
h = sample_ar1_trajectory(model, pilot.n, rng)
y = synthesize_rx(pilot, model.l_r, f_true, h, rng)
print(f"\ntrue offset          {f_true:+.6f} cycles/symbol")

# the lag series carries all offset information in n-1 complex numbers
z = compute_z(y, ws)
print(f"lag series |z_k|     {np.round(np.abs(z[:6]), 1)} ... ({z.size} lags)")

est = estimate_cfo_universal(y, ws)
print(f"estimated offset     {est.f_hat:+.6f}  "
      f"(error {abs(est.f_hat - f_true):.2e}, {est.iterations} refinements, "
      f"converged={est.converged})")

# the metric is visibly peaked at the estimate
for f in (est.f_hat - 0.01, est.f_hat, est.f_hat + 0.01):
    print(f"  g(y, {f:+.4f}) = {map_metric(y, f, ws):,.1f}")

h_hat = estimate_channel_mmse(y, est.f_hat, ws)
per_coeff = np.mean(np.abs(h_hat - h) ** 2)
posterior = np.mean(np.diag(gain).real)
print(f"\nchannel estimate: empirical per-coefficient error {per_coeff:.2e}, "
      f"posterior variance predicts {posterior:.2e}")
