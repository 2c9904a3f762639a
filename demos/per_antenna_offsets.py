"""Different offsets per receive antenna (distributed receivers).

Stage 1 runs the scalar search independently per antenna; stage 2 refines
all offsets jointly through the exact coupled stationary condition.
"""
import numpy as np

from cfomimo import (CfoPrior, build_stats, build_workspace, estimate_cfo_per_antenna,
                     generate_td_pilot, make_model, sample_ar1_trajectory,
                     synthesize_rx)

rng = np.random.default_rng(3)
pilot = generate_td_pilot(l_t=2, m=6, rho=10 ** 2.5)  # 25 dB
model = make_model(l_t=2, l_r=2, rho_h=1.0)
stats = build_stats(model, pilot.n)
ws = build_workspace(pilot, stats, CfoPrior.ml())

f_true = np.array([0.05, -0.08])
h = sample_ar1_trajectory(model, pilot.n, rng)
y = synthesize_rx(pilot, model.l_r, f_true, h, rng)

est = estimate_cfo_per_antenna(y, ws)
print("true offsets:     ", np.round(f_true, 6))
print("estimated offsets:", np.round(est.f_hat, 6))
print(f"errors:            {np.abs(est.f_hat - f_true)}")
print(f"converged={est.converged}, degraded={est.degraded}, "
      f"refinement steps={est.iterations}")

# per-antenna priors are allowed to differ
priors = [CfoPrior(0.05, 1e-6), CfoPrior(-0.08, 1e-6)]
est_map = estimate_cfo_per_antenna(y, ws, priors)
print("\nwith tight independent priors:", np.round(est_map.f_hat, 6))
