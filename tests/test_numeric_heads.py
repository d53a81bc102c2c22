import math

import numpy as np
import numpy.testing as npt
import pytest

from literati.numeric_heads import (
    GRAD_CHECK_BOUNDS,
    GRAD_CHECK_OPS,
    conv1d_layer_select,
    cross_entropy,
    deconv2d,
    fuse_language_spatial,
    global_average_pool,
    grad_check,
    layer_norm,
    make_grad_check_inputs,
)


# --- deconv2d -----------------------------------------------------------------

def test_deconv_single_tap_scatter():
    v, w = 2.5, np.array([[[[1.0, 2.0], [3.0, 4.0]]]])
    out = deconv2d(np.array([[[v]]]), w, stride=2)
    npt.assert_allclose(out, v * w[0])
    assert out.shape == (1, 2, 2)


def test_deconv_identity_kernel():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(3, 4, 5))
    kernel = np.zeros((3, 3, 1, 1))
    for c in range(3):
        kernel[c, c, 0, 0] = 1.0
    npt.assert_allclose(deconv2d(x, kernel, stride=1), x)


def test_deconv_matches_loop_oracle():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(2, 3, 3))
    kernel = rng.normal(size=(2, 1, 2, 2))
    stride = 2
    out = deconv2d(x, kernel, stride)
    want = np.zeros_like(out)
    for ci in range(2):
        for co in range(1):
            for i in range(3):
                for j in range(3):
                    for a in range(2):
                        for b in range(2):
                            want[co, i * stride + a, j * stride + b] += \
                                x[ci, i, j] * kernel[ci, co, a, b]
    npt.assert_allclose(out, want, atol=1e-12)


def test_deconv_output_shape():
    out = deconv2d(np.zeros((1, 4, 6)), np.zeros((1, 2, 3, 3)), stride=2)
    assert out.shape == (2, (4 - 1) * 2 + 3, (6 - 1) * 2 + 3)


def test_deconv_dim_mismatch_names_axis():
    with pytest.raises(ValueError, match="channel axis"):
        deconv2d(np.zeros((2, 3, 3)), np.zeros((3, 1, 2, 2)))


def test_deconv_linearity():
    rng = np.random.default_rng(2)
    kernel = rng.normal(size=(2, 2, 2, 2))
    for _ in range(50):
        x, y = rng.normal(size=(2, 2, 3, 3))
        a, b = rng.normal(size=2)
        lhs = deconv2d(a * x + b * y, kernel, stride=1)
        rhs = a * deconv2d(x, kernel, 1) + b * deconv2d(y, kernel, 1)
        npt.assert_allclose(lhs, rhs, atol=1e-10)


# --- layer_norm ------------------------------------------------------------------

def test_layer_norm_constant_vector_collapses():
    out = layer_norm(np.full(5, 3.3), np.ones(5), np.zeros(5))
    npt.assert_allclose(out, 0.0)


def test_layer_norm_two_point():
    out = layer_norm(np.array([1.0, 3.0]), np.ones(2), np.zeros(2), eps=1e-14)
    npt.assert_allclose(out, [-1.0, 1.0], atol=1e-6)


def test_layer_norm_beta_dominates_with_zero_gamma():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(4, 6))
    beta = rng.normal(size=6)
    out = layer_norm(x, np.zeros(6), beta)
    npt.assert_allclose(out, np.broadcast_to(beta, (4, 6)))


def test_layer_norm_affine_invariance():
    # exact only as eps -> 0, so use a tiny eps and non-degenerate inputs
    rng = np.random.default_rng(4)
    for _ in range(100):
        x = rng.normal(size=8)
        a = float(rng.uniform(0.5, 3.0))
        c = float(rng.normal())
        base = layer_norm(x, np.ones(8), np.zeros(8), eps=1e-14)
        scaled = layer_norm(a * x + c, np.ones(8), np.zeros(8), eps=1e-14)
        npt.assert_allclose(scaled, base, atol=1e-9)


def test_layer_norm_output_mean_is_beta_mean():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(3, 7))
    beta = rng.normal(size=7)
    out = layer_norm(x, np.ones(7), beta)
    npt.assert_allclose(out.mean(axis=-1), np.full(3, beta.mean()), atol=1e-9)


# --- global_average_pool -----------------------------------------------------------

def test_gap_constant():
    npt.assert_allclose(global_average_pool(np.full((3, 4, 4), 2.0)), 2.0)


def test_gap_mean():
    x = np.array([[[1.0, 2.0], [3.0, 4.0]]])
    npt.assert_allclose(global_average_pool(x), [2.5])


def test_gap_matches_sum_oracle():
    rng = np.random.default_rng(6)
    x = rng.normal(size=(5, 7, 3))
    want = x.sum(axis=(1, 2)) / (7 * 3)
    npt.assert_allclose(global_average_pool(x), want, atol=1e-12)


# --- cross_entropy ------------------------------------------------------------------

def test_cross_entropy_uniform():
    loss, grad = cross_entropy(np.zeros(2), 0)
    npt.assert_allclose(loss, math.log(2.0))
    npt.assert_allclose(grad, [-0.5, 0.5])


def test_cross_entropy_confident():
    loss, _ = cross_entropy(np.array([10.0, -10.0]), 0)
    npt.assert_allclose(loss, math.log(1.0 + math.exp(-20.0)), rtol=1e-9)
    assert loss == pytest.approx(2.061e-9, rel=1e-3)


def test_cross_entropy_label_out_of_range():
    with pytest.raises(ValueError):
        cross_entropy(np.zeros(3), 3)


def test_cross_entropy_grad_matches_finite_differences():
    err = grad_check("cross_entropy",
                     make_grad_check_inputs("cross_entropy", np.random.default_rng(7)),
                     h=1e-6)
    assert err < 1e-7


# --- conv1d_layer_select -------------------------------------------------------------

def test_conv1d_uniform_kernel_is_four_layer_average():
    rng = np.random.default_rng(8)
    stack = rng.normal(size=(4, 9))
    fused = conv1d_layer_select(stack, np.full(4, 0.25), stride=1)
    npt.assert_allclose(fused, stack.mean(axis=0), atol=1e-12)


def test_conv1d_baseline_recovery_from_deep_stack():
    # uniform 1/4 kernel over the last four layers of a deeper stack
    rng = np.random.default_rng(9)
    stack = rng.normal(size=(12, 6))
    fused = conv1d_layer_select(stack[-4:], np.full(4, 0.25), stride=1)
    npt.assert_allclose(fused, stack[-4:].mean(axis=0), atol=1e-12)


def test_conv1d_identity():
    stack = np.array([[3.0, -1.0, 2.0]])
    npt.assert_allclose(conv1d_layer_select(stack, np.array([1.0])), stack[0])


def test_conv1d_matches_loop_oracle():
    rng = np.random.default_rng(10)
    stack = rng.normal(size=(7, 4))
    kernel = rng.normal(size=3)
    stride = 2
    P = (7 - 3) // stride + 1
    want = np.zeros(4)
    for p in range(P):
        for j in range(3):
            want += kernel[j] * stack[p * stride + j]
    want /= P
    npt.assert_allclose(conv1d_layer_select(stack, kernel, stride), want, atol=1e-12)


def test_conv1d_kernel_longer_than_stack():
    with pytest.raises(ValueError, match="exceeds"):
        conv1d_layer_select(np.zeros((2, 3)), np.ones(3))


# --- fuse_language_spatial ------------------------------------------------------------

def test_fuse_empty_language():
    spatial = np.random.default_rng(11).normal(size=(3, 2, 2))
    npt.assert_allclose(fuse_language_spatial(spatial, np.zeros(0)), spatial)


def test_fuse_no_spatial_channels():
    lang = np.array([3.0, 4.0])
    out = fuse_language_spatial(np.zeros((0, 2, 2)), lang)
    assert out.shape == (2, 2, 2)
    npt.assert_allclose(out[:, 0, 0], [0.6, 0.8])  # L2-normalized


def test_fuse_unit_vector_broadcast():
    spatial = np.array([[[5.0]]])
    out = fuse_language_spatial(spatial, np.array([1.0, 0.0, 0.0]))
    npt.assert_allclose(out[:, 0, 0], [5.0, 1.0, 0.0, 0.0])


# --- gradient checks --------------------------------------------------------------------

@pytest.mark.parametrize("op", GRAD_CHECK_OPS)
def test_grad_check_within_bounds(op):
    for seed in range(10):
        inputs = make_grad_check_inputs(op, np.random.default_rng(seed))
        err = grad_check(op, inputs, h=1e-6, projection_seed=seed)
        assert err < GRAD_CHECK_BOUNDS[op], f"{op} seed {seed}: {err:.3e}"


def test_layer_norm_grad_at_coarser_step():
    inputs = make_grad_check_inputs("layer_norm", np.random.default_rng(12))
    assert grad_check("layer_norm", inputs, h=1e-5) < 1e-6


def test_unknown_op_is_refused_alike():
    refusals = []
    for check in (lambda: make_grad_check_inputs("softmax", np.random.default_rng(0)),
                  lambda: grad_check("softmax", {})):
        with pytest.raises(ValueError) as e:
            check()
        refusals.append(str(e.value))
    assert refusals == ["unknown op 'softmax'"] * 2


def test_grad_check_rejects_bad_h():
    inputs = make_grad_check_inputs("cross_entropy", np.random.default_rng(0))
    with pytest.raises(ValueError):
        grad_check("cross_entropy", inputs, h=1e-2)
