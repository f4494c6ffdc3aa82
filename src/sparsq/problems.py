"""Experiment generators, the noise model, and reconstruction quality metrics.

Randomness is organized in substreams: every draw (matrix, support,
amplitudes, noise) gets its own generator seeded by (seed, stream_tag), so
instances are reproducible and the draws are independent of each other.

The noise model follows the dB convention in which the reference signal power
is one (so a level of s dB means per-sample noise variance 10^(-s/10),
independent of the actual data).
"""

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .linops import DenseMatrix, KroneckerBlur

_STREAM_MATRIX = 0
_STREAM_SUPPORT = 1
_STREAM_AMPLITUDE = 2
_STREAM_NOISE = 3

# Desk-scale compressive sensing settings: n, m = 0.4 n, s = 0.2 m, and the
# matrix rescale that brings the operator norm near 0.9.
CS_DESK = {"n": 200, "m": 80, "s": 16, "scale": 0.04}
# Amplitude scale for the desk instance.  The generator leaves this free, so
# it is calibrated once against the benchmark operating point: at 40 dB noise
# the discrepancy principle selects alpha within a factor of ~1.3 of the
# pinned 6e-5, and the radius search resolves the l1 mass of the signal to a
# few percent.
CS_DESK_AMP_SCALE = 5.0

# Desk-scale deblurring settings.
BLUR_DESK = {"n": 16, "band": 3, "sigma": 0.7}


@dataclass(frozen=True)
class ProblemInstance:
    A: object
    y_true: np.ndarray
    y_delta: np.ndarray
    x_true: Optional[np.ndarray]
    delta: float


def gen_cs_instance(n, m, s, scale, seed, amp_scale=1.0):
    """Noise-free compressive sensing instance.

    A is scale times an m-by-n standard normal matrix; the ground truth has
    exactly s nonzeros on a uniformly drawn support, with normal amplitudes
    of standard deviation amp_scale, which must not be 0.
    """
    if not 0 < s <= m <= n:
        raise ValueError("need 0 < s <= m <= n")
    if amp_scale == 0:
        raise ValueError("amp_scale must be nonzero: the ground truth would be 0")
    if scale < 0:
        raise ValueError("scale must be nonnegative")
    if scale > 0 and not scale * scale > 0:  # the Gram matrix would have scale 0
        raise ValueError(f"scale = {scale!r} is too small: scale^2 underflows to 0")
    entries = np.random.default_rng([seed, _STREAM_MATRIX]).standard_normal((m, n))
    support = np.random.default_rng([seed, _STREAM_SUPPORT]).choice(n, size=s, replace=False)
    amplitudes = amp_scale * np.random.default_rng(
        [seed, _STREAM_AMPLITUDE]
    ).standard_normal(s)
    amplitudes[amplitudes == 0.0] = amp_scale  # exact zeros would break s-sparsity
    x_true = np.zeros(n)
    x_true[support] = amplitudes
    A = DenseMatrix(entries, scale) if scale > 0 else DenseMatrix(np.zeros((m, n)), 1.0)
    y_true = A.apply(x_true)
    return ProblemInstance(A, y_true, y_true.copy(), x_true, 0.0)


def default_blur_image(n):
    """Deterministic sparse test image: two rectangles and three point sources."""
    img = np.zeros((n, n))
    img[n // 8 : n // 8 + max(1, n // 4), n // 6 : n // 6 + max(1, n // 5)] = 1.0
    img[n // 2 : n // 2 + max(1, n // 4), n // 2 : n // 2 + max(1, n // 3)] = 2.0
    for i, j in ((n // 12, 3 * n // 4), (3 * n // 4, n // 6), (n // 3, n // 2)):
        img[min(i, n - 1), min(j, n - 1)] = 3.0
    return img


def gen_blur_instance(n, band, sigma, image=None):
    """Noise-free deblurring instance on an n-by-n image.

    The ground truth defaults to the deterministic synthetic image above; a
    user-supplied n-by-n array may be passed instead.  The image is flattened
    column-major to match the operator convention.
    """
    A = KroneckerBlur(n, band, sigma)
    if image is None:
        image = default_blur_image(n)
    image = np.asarray(image, dtype=float)
    if image.shape != (n, n):
        raise ValueError(f"image must be {n}x{n}")
    x_true = image.reshape(-1, order="F")
    y_true = A.apply(x_true)
    return ProblemInstance(A, y_true, y_true.copy(), x_true, 0.0)


def add_awgn(inst, snr_db, seed):
    """Return a copy of the instance with white Gaussian noise on the data.

    Under the reference-power convention the per-sample noise standard
    deviation is 10^(-snr_db/20), drawn from seed's noise stream.  delta
    records the realized noise norm exactly.
    An infinite snr_db is the noise-free sentinel; a NaN one, or one whose
    noise level overflows, raises ValueError.
    """
    if math.isnan(snr_db):
        raise ValueError("snr_db must not be NaN")
    if math.isinf(snr_db):
        return replace(inst, y_delta=inst.y_true.copy(), delta=0.0)
    if not np.any(inst.y_true):
        raise ValueError("cannot add finite-SNR noise to an all-zero signal")
    try:
        sigma = 10.0 ** (-snr_db / 20.0)
    except OverflowError:
        raise ValueError(f"snr_db = {snr_db:g}: the noise level overflows") from None
    noise = sigma * np.random.default_rng([seed, _STREAM_NOISE]).standard_normal(inst.y_true.size)
    y_delta = inst.y_true + noise
    delta = float(np.linalg.norm(inst.y_true - y_delta))
    return replace(inst, y_delta=y_delta, delta=delta)


def snr_metric(x_star, x_true):
    """Reconstruction SNR in dB: -10 log10(||x* - xt||^2 / ||xt||^2).

    Returns +inf when the reconstruction is exact.
    """
    x_star = np.asarray(x_star, dtype=float)
    x_true = np.asarray(x_true, dtype=float)
    denom = float(x_true @ x_true)
    if denom == 0.0:
        raise ValueError("x_true must be nonzero")
    err = x_star - x_true
    num = float(err @ err)
    if num == 0.0:
        return math.inf
    return -10.0 * math.log10(num / denom)


def rerror_metric(x_star, x_true):
    """Relative error ||x* - xt|| / ||xt||."""
    x_true = np.asarray(x_true, dtype=float)
    denom = float(np.linalg.norm(x_true))
    if denom == 0.0:
        raise ValueError("x_true must be nonzero")
    return float(np.linalg.norm(np.asarray(x_star, dtype=float) - x_true)) / denom


def cs_desk_instance(seed, snr_db=40.0):
    """The benchmark compressive sensing instance at the desk settings."""
    inst = gen_cs_instance(seed=seed, amp_scale=CS_DESK_AMP_SCALE, **CS_DESK)
    return add_awgn(inst, snr_db, seed)


def blur_desk_instance(seed=0, snr_db=40.0, n=None):
    """The benchmark deblurring instance (n=16 by default, n=125 for the large run)."""
    params = dict(BLUR_DESK)
    if n is not None:
        params["n"] = n
    inst = gen_blur_instance(**params)
    return add_awgn(inst, snr_db, seed)

