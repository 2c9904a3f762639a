"""Losing a sliver of time correlation creates an error floor.

With rho_h = 1 the CRLB falls like 1/SNR forever.  At rho_h = 0.99 the
channel's own phase wander starts to masquerade as offset rotation, and past
roughly 20 dB more transmit power stops helping.
"""
import numpy as np

from cfomimo import (CfoPrior, build_stats, build_workspace, evaluate_bounds,
                     generate_td_pilot, make_model)

prior = CfoPrior(mu_f=0.1, sigma_f_sq=1e-5)
snrs = np.arange(0.0, 45.0, 5.0)
correlations = (1.0, 0.99, 0.9)

header = " | ".join(f"rho_h={r:<5}" for r in correlations)
print(f"{'SNR dB':>7} | {header}")
print("-" * (10 + 14 * len(correlations)))
table = {r: [] for r in correlations}
for snr_db in snrs:
    pilot = generate_td_pilot(4, 5, rho=10 ** (snr_db / 10))
    cells = []
    for rho_h in correlations:
        stats = build_stats(make_model(4, 4, rho_h), 20)
        crlb = evaluate_bounds(build_workspace(pilot, stats, prior)).crlb
        table[rho_h].append(crlb)
        cells.append(f"{crlb:11.3e}")
    print(f"{snr_db:7.0f} | " + " | ".join(cells))

print()
for rho_h in correlations:
    ratio = table[rho_h][-1] / table[rho_h][-5]
    trend = "keeps improving" if ratio < 0.02 else "hits a floor"
    print(f"rho_h={rho_h}: CRLB(40 dB)/CRLB(20 dB) = {ratio:.3f} -> {trend}")
