"""Slow, literal reference implementations used as oracles by the tests.

These deliberately mirror the component-wise definitions with explicit loops
and plain dense inverses, staying independent of the contraction-table code
paths used by the package.
"""

import numpy as np


def reference_z(y, pilot_entries, A, b, l_r):
    """Six-nested-loop evaluation of the lag series z_1 .. z_{n-1}."""
    n, l_t = pilot_entries.shape
    s = pilot_entries
    y2 = np.asarray(y).reshape(l_r, n)
    b3 = np.asarray(b).reshape(l_r, n, l_t)
    a6 = np.asarray(A).reshape(l_r, n, l_t, l_r, n, l_t)
    z = np.zeros(n - 1, dtype=complex)
    for lag in range(1, n):
        acc = 0.0 + 0.0j
        for r in range(l_r):
            for t in range(l_t):
                acc += s[lag, t] * np.conj(y2[r, lag]) * b3[r, lag, t]
        for k1 in range(lag, n):
            k2 = k1 - lag
            for r1 in range(l_r):
                for t1 in range(l_t):
                    for r2 in range(l_r):
                        for t2 in range(l_t):
                            acc += (a6[r1, k1, t1, r2, k2, t2]
                                    * s[k1, t1] * np.conj(s[k2, t2])
                                    * y2[r2, k2] * np.conj(y2[r1, k1]))
        z[lag - 1] = acc
    return z


def reference_gain_and_offset(sbreve, mu_h, sigma_h):
    """A and b by the plain normal-equation inverse (sigma_h must be invertible)."""
    gain = np.linalg.inv(sbreve.conj().T @ sbreve + np.linalg.inv(sigma_h))
    offset = (np.eye(mu_h.size) - gain @ (sbreve.conj().T @ sbreve)) @ mu_h
    return gain, offset


def reference_beta(pilot_entries, l_r, mu_h, sigma_h, A, b):
    """Direct-loop Fisher information from the moment form of the lag series."""
    n, l_t = pilot_entries.shape
    s = pilot_entries
    mu3 = np.asarray(mu_h).reshape(l_r, n, l_t)
    b3 = np.asarray(b).reshape(l_r, n, l_t)
    a6 = np.asarray(A).reshape(l_r, n, l_t, l_r, n, l_t)
    sig = np.asarray(sigma_h).reshape(l_r, n, l_t, l_r, n, l_t)
    total = 0.0 + 0.0j
    for lag in range(1, n):
        acc = 0.0 + 0.0j
        for r in range(l_r):
            for t in range(l_t):
                for tp in range(l_t):
                    acc += (s[lag, t] * np.conj(s[lag, tp])
                            * np.conj(mu3[r, lag, tp]) * b3[r, lag, t])
        for k1 in range(lag, n):
            k2 = k1 - lag
            for r1 in range(l_r):
                for t1 in range(l_t):
                    for r2 in range(l_r):
                        for t2 in range(l_t):
                            coupling = a6[r1, k1, t1, r2, k2, t2] * s[k1, t1] * np.conj(s[k2, t2])
                            moment = 0.0 + 0.0j
                            for t2p in range(l_t):
                                for t1p in range(l_t):
                                    moment += (s[k2, t2p] * np.conj(s[k1, t1p])
                                               * (np.conj(sig[r1, k1, t1p, r2, k2, t2p])
                                                  + mu3[r2, k2, t2p] * np.conj(mu3[r1, k1, t1p])))
                            acc += coupling * moment
        total += lag * lag * acc
    return 8.0 * np.pi ** 2 * float(np.real(total))


def reference_trial_rng(seed, point, trial):
    """A sweep trial's random stream as numpy builds it."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(point, trial)))
