import math

import numpy as np
import pytest

from sparsq.linops import DenseMatrix, KroneckerBlur, densify
from sparsq.problems import (
    NoiseSpec,
    add_awgn,
    blur_desk_instance,
    cs_desk_instance,
    default_blur_image,
    gen_blur_instance,
    gen_cs_instance,
    load_instance,
    rerror_metric,
    save_instance,
    snr_metric,
)


# ---------------------------------------------------------------- generators


def test_cs_instance_shapes_and_sparsity():
    inst = gen_cs_instance(50, 20, 5, 0.1, seed=3)
    assert inst.A.domain_dim == 50 and inst.A.range_dim == 20
    assert np.count_nonzero(inst.x_true) == 5
    assert np.allclose(inst.y_true, inst.A.apply(inst.x_true))
    assert inst.delta == 0.0
    assert np.array_equal(inst.y_delta, inst.y_true)


def test_cs_instance_deterministic_per_seed():
    a = gen_cs_instance(30, 12, 3, 0.1, seed=7)
    b = gen_cs_instance(30, 12, 3, 0.1, seed=7)
    c = gen_cs_instance(30, 12, 3, 0.1, seed=8)
    assert np.array_equal(a.A.entries, b.A.entries)
    assert np.array_equal(a.x_true, b.x_true)
    assert not np.array_equal(a.x_true, c.x_true)


def test_cs_zero_scale_gives_zero_data():
    inst = gen_cs_instance(10, 10, 10, 0.0, seed=0)
    assert np.array_equal(inst.y_true, np.zeros(10))


def test_cs_rejects_bad_shapes():
    with pytest.raises(ValueError):
        gen_cs_instance(10, 12, 3, 1.0, seed=0)
    with pytest.raises(ValueError):
        gen_cs_instance(10, 8, 0, 1.0, seed=0)


def test_cs_operator_norms_match_reported_values():
    inst = gen_cs_instance(200, 80, 16, 1.0, seed=0)
    sv = np.linalg.svd(inst.A.entries, compute_uv=False)
    assert 20.0 <= sv[0] <= 26.0
    assert 3.0 <= sv[0] / sv[-1] <= 5.5
    scaled = gen_cs_instance(200, 80, 16, 0.04, seed=0)
    sv_scaled = np.linalg.svd(scaled.A.scale * scaled.A.entries, compute_uv=False)
    assert 0.75 <= sv_scaled[0] <= 1.05
    # conditioning unchanged by the rescale
    assert sv_scaled[0] / sv_scaled[-1] == pytest.approx(sv[0] / sv[-1], rel=1e-10)


def test_cs_support_roughly_uniform():
    counts = np.zeros(20)
    for seed in range(300):
        inst = gen_cs_instance(20, 10, 2, 0.1, seed=seed)
        counts[np.nonzero(inst.x_true)] += 1
    expected = 300 * 2 / 20
    chi2 = np.sum((counts - expected) ** 2 / expected)
    assert chi2 < 43.8  # chi-square 19 dof at ~0.1% level


def test_blur_instance_band_one_identity():
    inst = gen_blur_instance(4, 1, 0.7)
    scale = 1.0 / (2 * np.pi * 0.7**2)
    assert np.allclose(inst.y_true, scale * inst.x_true)


def test_blur_instance_operator_facts():
    inst = gen_blur_instance(16, 3, 0.7)
    dense = densify(inst.A)
    sv = np.linalg.svd(dense.entries, compute_uv=False)
    assert 0.8 <= sv[0] <= 1.2
    assert 24.0 <= sv[0] / sv[-1] <= 36.0


def test_blur_instance_self_adjoint_operator():
    inst = gen_blur_instance(6, 3, 0.7)
    x = np.random.default_rng(0).standard_normal(36)
    assert np.array_equal(inst.A.apply(x), inst.A.apply_adjoint(x))


def test_blur_image_is_sparse_and_deterministic():
    img = default_blur_image(125)
    assert img.shape == (125, 125)
    fill = np.count_nonzero(img) / img.size
    assert 0.02 <= fill <= 0.35
    assert np.array_equal(img, default_blur_image(125))


def test_blur_custom_image():
    image = np.zeros((5, 5))
    image[2, 2] = 1.0
    inst = gen_blur_instance(5, 2, 0.7, image=image)
    assert np.count_nonzero(inst.x_true) == 1
    with pytest.raises(ValueError):
        gen_blur_instance(5, 2, 0.7, image=np.zeros((4, 4)))


# ---------------------------------------------------------------------- noise


def test_awgn_infinite_snr_is_noise_free():
    inst = gen_cs_instance(20, 10, 2, 0.1, seed=0)
    noisy = add_awgn(inst, NoiseSpec(math.inf, seed=5))
    assert noisy.delta == 0.0
    assert np.array_equal(noisy.y_delta, noisy.y_true)


def test_awgn_delta_is_exact_noise_norm():
    inst = gen_cs_instance(40, 20, 4, 0.1, seed=1)
    noisy = add_awgn(inst, NoiseSpec(30.0, seed=1))
    assert noisy.delta == float(np.linalg.norm(noisy.y_true - noisy.y_delta))
    assert noisy.delta > 0


def test_awgn_deterministic_given_seed():
    inst = gen_cs_instance(40, 20, 4, 0.1, seed=1)
    a = add_awgn(inst, NoiseSpec(30.0, seed=9))
    b = add_awgn(inst, NoiseSpec(30.0, seed=9))
    c = add_awgn(inst, NoiseSpec(30.0, seed=10))
    assert np.array_equal(a.y_delta, b.y_delta)
    assert not np.array_equal(a.y_delta, c.y_delta)


def test_awgn_rejects_zero_signal():
    inst = gen_cs_instance(10, 10, 10, 0.0, seed=0)
    with pytest.raises(ValueError):
        add_awgn(inst, NoiseSpec(40.0, seed=0))


def test_awgn_noise_power_calibration():
    # 200 draws at 40 dB against a unit-power signal: mean realized SNR
    # within 0.5 dB of nominal
    m = 400
    y = np.ones(m)  # mean square exactly 1
    inst_template = gen_cs_instance(m, m, 1, 1.0, seed=0)
    inst = type(inst_template)(
        A=inst_template.A, y_true=y, y_delta=y, x_true=None, delta=0.0, seed=0
    )
    realized = []
    for seed in range(200):
        noisy = add_awgn(inst, NoiseSpec(40.0, seed=seed))
        noise_power = float(np.mean((noisy.y_delta - y) ** 2))
        realized.append(10 * np.log10(1.0 / noise_power))
    assert abs(np.mean(realized) - 40.0) <= 0.5


def test_awgn_measured_mode_scales_with_signal():
    inst = gen_cs_instance(50, 25, 5, 0.5, seed=2)
    default = add_awgn(inst, NoiseSpec(40.0, seed=0))
    measured = add_awgn(inst, NoiseSpec(40.0, seed=0), measured=True)
    rms = float(np.sqrt(np.mean(inst.y_true**2)))
    assert measured.delta == pytest.approx(default.delta * rms, rel=1e-12)


def test_desk_instances_noise_calibration():
    cs = cs_desk_instance(seed=0, snr_db=40.0)
    assert 0.06 <= cs.delta <= 0.095
    blur = blur_desk_instance(seed=0, snr_db=60.0, n=125)
    assert 0.10 <= blur.delta <= 0.15


# -------------------------------------------------------------------- metrics


def test_snr_metric_cases():
    x = np.array([1.0, 2.0])
    assert snr_metric(x, x) == math.inf
    assert snr_metric(np.zeros(2), x) == pytest.approx(0.0)
    assert snr_metric(x + 0.1 * x, x) == pytest.approx(20.0)


def test_rerror_metric_cases():
    x = np.array([3.0, -4.0])
    assert rerror_metric(x, x) == 0.0
    assert rerror_metric(2 * x, x) == pytest.approx(1.0)


def test_snr_rerror_identity():
    rng = np.random.default_rng(4)
    x_true = rng.standard_normal(10)
    x = x_true + 0.05 * rng.standard_normal(10)
    assert snr_metric(x, x_true) == pytest.approx(-20 * math.log10(rerror_metric(x, x_true)))


def test_metrics_reject_zero_truth():
    with pytest.raises(ValueError):
        snr_metric(np.ones(2), np.zeros(2))
    with pytest.raises(ValueError):
        rerror_metric(np.ones(2), np.zeros(2))


# -------------------------------------------------------------- serialization


def test_save_load_cs_roundtrip(tmp_path):
    inst = add_awgn(gen_cs_instance(12, 6, 2, 0.3, seed=4), NoiseSpec(35.0, seed=4))
    path = tmp_path / "inst.txt"
    save_instance(inst, path)
    back = load_instance(path)
    assert isinstance(back.A, DenseMatrix)
    assert np.array_equal(back.A.entries, inst.A.entries)
    assert back.A.scale == inst.A.scale
    assert np.array_equal(back.x_true, inst.x_true)
    assert np.array_equal(back.y_delta, inst.y_delta)
    assert back.delta == inst.delta
    assert back.seed == inst.seed


def test_save_load_blur_roundtrip(tmp_path):
    inst = add_awgn(gen_blur_instance(6, 3, 0.7), NoiseSpec(50.0, seed=2))
    path = tmp_path / "blur.txt"
    save_instance(inst, path)
    back = load_instance(path)
    assert isinstance(back.A, KroneckerBlur)
    assert back.A.n == 6 and back.A.band == 3 and back.A.sigma == 0.7
    assert np.array_equal(back.x_true, inst.x_true)
    assert np.array_equal(back.y_true, inst.y_true)
    assert np.array_equal(back.y_delta, inst.y_delta)


def test_load_rejects_garbage(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("not an instance\n")
    with pytest.raises(ValueError):
        load_instance(path)


def _saved_lines(tmp_path, inst):
    path = tmp_path / "inst.txt"
    save_instance(inst, path)
    return path, path.read_text().splitlines()


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda lines: lines[: lines.index("[matrix]")] + lines[lines.index("[x_true]"):],
         r"\[matrix\]"),
        (lambda lines: [l for l in lines if l != "[matrix]"], "line 9 needs a header key"),
        (lambda lines: ["kind" if l == "kind dense" else l for l in lines],
         "line 2 needs a header key"),
        (lambda lines: [l for l in lines if l != "kind dense"], "'kind'"),
        (lambda lines: [l for l in lines if not l.startswith("scale ")], "'scale'"),
        (lambda lines: lines[: lines.index("[y_delta]")], r"\[y_delta\]"),
        (lambda lines: lines[:-1] + [lines[-1].rsplit(",", 1)[0]],
         r"\[y_delta\].* 6 entries, found 5"),
        (lambda lines: [l + ",1" if i == lines.index("[x_true]") + 1 else l
                        for i, l in enumerate(lines)], r"\[x_true\].* 12 entries, found 13"),
    ],
    ids=["no-matrix", "no-matrix-line", "bare-kind", "no-kind", "no-scale", "no-y-delta",
         "short-y-delta", "long-x-true"],
)
def test_load_names_what_a_malformed_file_lacks(tmp_path, edit, message):
    inst = add_awgn(gen_cs_instance(12, 6, 2, 0.3, seed=4), NoiseSpec(35.0, seed=4))
    path, lines = _saved_lines(tmp_path, inst)
    path.write_text("\n".join(edit(lines)) + "\n")
    with pytest.raises(ValueError, match=message):
        load_instance(path)


def test_load_checks_blur_vector_lengths(tmp_path):
    inst = add_awgn(gen_blur_instance(4, 3, 0.7), NoiseSpec(50.0, seed=2))
    path, lines = _saved_lines(tmp_path, inst)
    y_true = lines.index("[y_true]") + 1
    lines[y_true] = lines[y_true].rsplit(",", 1)[0]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=r"\[y_true\].* 16 entries, found 15"):
        load_instance(path)
