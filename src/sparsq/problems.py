"""Experiment generators, the noise model, and reconstruction quality metrics.

Randomness is organized in substreams: every draw (matrix, support,
amplitudes, noise) gets its own generator seeded by (seed, stream_tag), so
instances are reproducible and the draws are independent of each other.

The noise model follows the dB convention in which the reference signal power
is one (so a level of s dB means per-sample noise variance 10^(-s/10),
independent of the actual data).  add_awgn also accepts measured=True to
scale the noise against the measured mean square of the clean data instead.
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
    seed: int


@dataclass(frozen=True)
class NoiseSpec:
    snr_db: float
    seed: int = 0

    def __post_init__(self):
        if math.isnan(self.snr_db):
            raise ValueError("snr_db must not be NaN")


def gen_cs_instance(n, m, s, scale, seed, amp_scale=1.0):
    """Noise-free compressive sensing instance.

    A is scale times an m-by-n standard normal matrix; the ground truth has
    exactly s nonzeros on a uniformly drawn support, with normal amplitudes
    of standard deviation amp_scale.
    """
    if not 0 < s <= m <= n:
        raise ValueError("need 0 < s <= m <= n")
    if scale < 0:
        raise ValueError("scale must be nonnegative")
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
    return ProblemInstance(A, y_true, y_true.copy(), x_true, 0.0, seed)


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
    return ProblemInstance(A, y_true, y_true.copy(), x_true, 0.0, 0)


def add_awgn(inst, spec, measured=False):
    """Return a copy of the instance with white Gaussian noise on the data.

    With the default reference-power convention the per-sample noise standard
    deviation is 10^(-snr_db/20); with measured=True it is scaled by the root
    mean square of y_true.  delta records the realized noise norm exactly.
    An infinite snr_db is the noise-free sentinel.
    """
    if math.isinf(spec.snr_db):
        return replace(inst, y_delta=inst.y_true.copy(), delta=0.0, seed=spec.seed)
    if not np.any(inst.y_true):
        raise ValueError("cannot add finite-SNR noise to an all-zero signal")
    sigma = 10.0 ** (-spec.snr_db / 20.0)
    if measured:
        sigma *= float(np.sqrt(np.mean(inst.y_true**2)))
    noise = sigma * np.random.default_rng(
        [spec.seed, _STREAM_NOISE]
    ).standard_normal(inst.y_true.size)
    y_delta = inst.y_true + noise
    delta = float(np.linalg.norm(inst.y_true - y_delta))
    return replace(inst, y_delta=y_delta, delta=delta, seed=spec.seed)


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
    return add_awgn(inst, NoiseSpec(snr_db, seed))


def blur_desk_instance(seed=0, snr_db=40.0, n=None):
    """The benchmark deblurring instance (n=16 by default, n=125 for the large run)."""
    params = dict(BLUR_DESK)
    if n is not None:
        params["n"] = n
    inst = gen_blur_instance(**params)
    return add_awgn(inst, NoiseSpec(snr_db, seed))


def save_instance(inst, path):
    """Write an instance to a structured text file (header plus CSV payload)."""
    A = inst.A
    lines = ["sparsq-instance v1"]
    if isinstance(A, KroneckerBlur):
        lines += [
            "kind blur",
            f"n {A.n}",
            f"band {A.band}",
            f"sigma {A.sigma:.17g}",
        ]
    elif isinstance(A, DenseMatrix):
        lines += [
            "kind dense",
            f"m {A.range_dim}",
            f"n {A.domain_dim}",
            f"scale {A.scale:.17g}",
        ]
    else:
        raise TypeError(f"cannot serialize operator of type {type(A).__name__}")
    lines.append(f"delta {inst.delta:.17g}")
    lines.append(f"seed {inst.seed}")
    lines.append(f"has_x_true {int(inst.x_true is not None)}")

    def vec_line(v):
        return ",".join(f"{z:.17g}" for z in v)

    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
        if isinstance(A, DenseMatrix):
            fh.write("[matrix]\n")
            for row in A.entries:
                fh.write(vec_line(row) + "\n")
        if inst.x_true is not None:
            fh.write("[x_true]\n" + vec_line(inst.x_true) + "\n")
        fh.write("[y_true]\n" + vec_line(inst.y_true) + "\n")
        fh.write("[y_delta]\n" + vec_line(inst.y_delta) + "\n")


def load_instance(path):
    """Read back a file produced by save_instance.

    A malformed file raises ValueError that names the missing header key or
    section, or the vector whose length does not fit the operator.
    """
    with open(path) as fh:
        raw = fh.read().splitlines()
    if not raw or raw[0] != "sparsq-instance v1":
        raise ValueError("not a sparsq instance file")
    header = {}
    i = 1
    while i < len(raw) and not raw[i].startswith("["):
        parts = raw[i].split(maxsplit=1)
        if len(parts) != 2:
            raise ValueError(f"instance file line {i + 1} needs a header key and a value")
        header[parts[0]] = parts[1]
        i += 1
    sections = {}
    current = None
    for line in raw[i:]:
        if line.startswith("["):
            current = line.strip("[]")
            sections[current] = []
        elif current is not None and line:
            sections[current].append(np.array([float(t) for t in line.split(",")]))

    def key(name):
        if name not in header:
            raise ValueError(f"instance header has no {name!r} line")
        return header[name]

    def rows(name):
        if name not in sections:
            raise ValueError(f"instance file has no [{name}] section")
        return sections[name]

    def vector(name, size):
        lines = rows(name)
        if len(lines) != 1 or lines[0].size != size:
            found = sum(v.size for v in lines)
            raise ValueError(f"[{name}] needs one line of {size} entries, found {found}")
        return lines[0]

    kind = key("kind")
    if kind == "blur":
        A = KroneckerBlur(int(key("n")), int(key("band")), float(key("sigma")))
    elif kind == "dense":
        A = DenseMatrix(np.vstack(rows("matrix")), float(key("scale")))
    else:
        raise ValueError(f"unknown instance kind {kind!r}")
    x_true = vector("x_true", A.domain_dim) if int(key("has_x_true")) else None
    return ProblemInstance(
        A,
        vector("y_true", A.range_dim),
        vector("y_delta", A.range_dim),
        x_true,
        float(key("delta")),
        int(key("seed")),
    )
