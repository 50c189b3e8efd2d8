"""Additive circularly-symmetric complex white Gaussian noise at a given SNR."""

from dataclasses import replace

import numpy as np


def add_awgn(msr, snr_db, seed):
    """Return a copy of the MSR matrix with white Gaussian noise added.

    Per-entry noise variance is mean(|K|^2) / 10^(snr_db/10) split equally
    between real and imaginary parts (the usual awgn convention).  An
    snr_db of +inf means "no noise": the input entries are returned
    bit-exactly.  Deterministic for a fixed seed (PCG64).
    """
    k = msr.entries
    if np.isposinf(snr_db):
        return replace(msr, entries=k.copy())
    if not np.isfinite(snr_db):
        raise ValueError("snr_db must be finite (or +inf for no noise)")
    rng = np.random.default_rng(seed)
    sig_power = float(np.mean(np.abs(k) ** 2))
    var = sig_power / 10.0 ** (snr_db / 10.0)
    s = np.sqrt(var / 2.0)
    w = s * (rng.standard_normal(k.shape) + 1j * rng.standard_normal(k.shape))
    return replace(msr, entries=k + w,
                   extra={**(msr.extra or {}), "snr_db": snr_db, "seed": int(seed)})
