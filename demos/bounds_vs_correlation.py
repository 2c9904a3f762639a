"""How the time-correlation coefficient and the pilot structure shape the
estimation floor.

Sweeps the closed-form CRLB over rho_h for the periodic and time-division
pilots at 20 dB.  The TD pilot correlates consecutive symbols, so it wins
when the fading decorrelates quickly; the periodic pilot spans wider lags
and wins as the channel freezes.  The curves cross.
"""
import numpy as np

from cfomimo import (CfoPrior, build_stats, build_workspace, evaluate_bounds,
                     generate_periodic_pilot, generate_td_pilot, make_model)

snr_db = 20.0
rho = 10 ** (snr_db / 10)
prior = CfoPrior(mu_f=0.1, sigma_f_sq=1e-5)
periodic = generate_periodic_pilot(4, 5, rho=rho)
td = generate_td_pilot(4, 5, rho=rho)

print(f"{'rho_h':>6} | {'CRLB periodic':>14} | {'CRLB td':>14} | better")
print("-" * 55)
crossing = None
previous = None
for rho_h in np.linspace(0.05, 1.0, 20):
    stats = build_stats(make_model(4, 4, float(rho_h)), 20)
    cp = evaluate_bounds(build_workspace(periodic, stats, prior)).crlb
    ct = evaluate_bounds(build_workspace(td, stats, prior)).crlb
    better = "td" if ct < cp else "periodic"
    if previous and previous != better:
        crossing = rho_h
    previous = better
    print(f"{rho_h:6.3f} | {cp:14.3e} | {ct:14.3e} | {better}")

if crossing is not None:
    print(f"\nordering flips near rho_h = {crossing:.2f}: pilot design depends "
          "on how fast the fading decorrelates")
