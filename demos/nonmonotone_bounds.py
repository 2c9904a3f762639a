"""Time diversity can help: the bound need not be monotone in correlation.

With zero-mean fading, less time correlation always hurts offset estimation
(at rho_h = 0 it becomes impossible).  With a Rician mean the constant part
of the channel carries the offset like a clean tone, and independent fading
across symbols averages out, so the CRLB can improve again as rho_h drops.
"""
import numpy as np

from cfomimo import (CfoPrior, build_stats, build_workspace, evaluate_bounds,
                     generate_td_pilot, make_model)

pilot = generate_td_pilot(4, 5, rho=100.0)  # 20 dB
prior = CfoPrior(mu_f=0.1, sigma_f_sq=1e-5)

for mean_kind in ("zero", "rician"):
    values = []
    grid = np.linspace(0.0, 1.0, 26)
    for rho_h in grid:
        model = make_model(4, 4, float(rho_h), spatial="exponential",
                           mean=mean_kind, rician_k=1.0)
        stats = build_stats(model, 20)
        values.append(evaluate_bounds(build_workspace(pilot, stats, prior)).crlb)
    finite = [v for v in values if np.isfinite(v)]
    diffs = np.diff(finite)
    shape = ("monotone decreasing in rho_h" if np.all(diffs <= 0)
             else "non-monotone in rho_h")
    print(f"mean={mean_kind:>6}: CRLB at rho_h=0 {values[0]:.3e}, "
          f"at 0.5 {values[len(values)//2]:.3e}, at 1 {values[-1]:.3e} -> {shape}")

print("\nfull curve (rician mean):")
for rho_h, crlb in zip(grid, values):
    bar = "#" * int(60 * (crlb / max(finite)))  # the largest value gets all 60
    print(f"  rho_h={rho_h:4.2f} {crlb:10.3e} {bar}")
