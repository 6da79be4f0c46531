"""Unit tests for the autograd core: Tensor arithmetic, broadcasting, tape."""

import numpy as np
import pytest

from repro.tensor import Tensor, check_gradients, is_grad_enabled, no_grad


def test_add_forward_and_backward():
    a = Tensor([1.0, 2.0, 3.0], requires_grad=True)
    b = Tensor([10.0, 20.0, 30.0], requires_grad=True)
    out = (a + b).sum()
    out.backward()
    assert np.allclose(out.data, 66.0)
    assert np.allclose(a.grad, [1.0, 1.0, 1.0])
    assert np.allclose(b.grad, [1.0, 1.0, 1.0])


def test_sub_backward_negates_second_operand():
    a = Tensor([4.0], requires_grad=True)
    b = Tensor([1.0], requires_grad=True)
    (a - b).sum().backward()
    assert np.allclose(a.grad, [1.0])
    assert np.allclose(b.grad, [-1.0])


def test_mul_backward_is_cross_term():
    a = Tensor([2.0, 3.0], requires_grad=True)
    b = Tensor([5.0, 7.0], requires_grad=True)
    (a * b).sum().backward()
    assert np.allclose(a.grad, [5.0, 7.0])
    assert np.allclose(b.grad, [2.0, 3.0])


def test_div_gradcheck():
    a = Tensor([2.0, 3.0, -1.5], requires_grad=True)
    b = Tensor([5.0, -7.0, 2.0], requires_grad=True)
    check_gradients(lambda: (a / b).sum(), [a, b])


def test_scalar_operand_promotion():
    a = Tensor([1.0, 2.0], requires_grad=True)
    out = (2.0 * a + 1.0 - 0.5).sum()
    out.backward()
    assert np.allclose(a.grad, [2.0, 2.0])
    assert np.allclose(out.data, 7.0)


def test_pow_gradcheck():
    a = Tensor([2.0, 3.0, 0.5], requires_grad=True)
    check_gradients(lambda: (a ** 3).sum(), [a])


def test_neg_backward():
    a = Tensor([1.0, -2.0], requires_grad=True)
    (-a).sum().backward()
    assert np.allclose(a.grad, [-1.0, -1.0])


def test_broadcast_add_unbroadcasts_gradient():
    a = Tensor(np.ones((3, 4)), requires_grad=True)
    b = Tensor(np.ones((4,)), requires_grad=True)
    (a + b).sum().backward()
    assert a.grad.shape == (3, 4)
    assert b.grad.shape == (4,)
    assert np.allclose(b.grad, 3.0)


def test_broadcast_keepdim_axis():
    a = Tensor(np.ones((3, 4)), requires_grad=True)
    b = Tensor(np.ones((3, 1)), requires_grad=True)
    (a * b).sum().backward()
    assert b.grad.shape == (3, 1)
    assert np.allclose(b.grad, 4.0)


def test_matmul_2d_gradcheck():
    rng = np.random.default_rng(0)
    a = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
    b = Tensor(rng.standard_normal((4, 2)), requires_grad=True)
    check_gradients(lambda: (a @ b).sum(), [a, b])


def test_matmul_matrix_vector_gradcheck():
    rng = np.random.default_rng(1)
    a = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
    v = Tensor(rng.standard_normal(4), requires_grad=True)
    check_gradients(lambda: (a @ v).sum(), [a, v])


def test_matmul_vector_vector_gradcheck():
    rng = np.random.default_rng(2)
    a = Tensor(rng.standard_normal(5), requires_grad=True)
    b = Tensor(rng.standard_normal(5), requires_grad=True)
    check_gradients(lambda: a @ b, [a, b])


def test_matmul_batched_with_shared_weight():
    rng = np.random.default_rng(3)
    x = Tensor(rng.standard_normal((2, 3, 4)), requires_grad=True)
    w = Tensor(rng.standard_normal((4, 5)), requires_grad=True)
    check_gradients(lambda: (x @ w).sum(), [x, w])


# Operand shapes by ndim: inner size 3, rows 2, columns 5, batch 4 (and a
# leading 6 on the 4-D operand), all distinct so a mixed-up axis shows.
_LEFT_SHAPES = {1: (3,), 2: (2, 3), 3: (4, 2, 3), 4: (6, 4, 2, 3)}
_RIGHT_SHAPES = {1: (3,), 2: (3, 5), 3: (4, 3, 5)}


@pytest.mark.parametrize("right_ndim", sorted(_RIGHT_SHAPES))
@pytest.mark.parametrize("left_ndim", sorted(_LEFT_SHAPES))
def test_matmul_gradcheck_over_operand_ndims(left_ndim, right_ndim):
    rng = np.random.default_rng(10 * left_ndim + right_ndim)
    a = Tensor(rng.standard_normal(_LEFT_SHAPES[left_ndim]), requires_grad=True)
    b = Tensor(rng.standard_normal(_RIGHT_SHAPES[right_ndim]), requires_grad=True)
    weights = rng.standard_normal((a.data @ b.data).shape)
    check_gradients(lambda: ((a @ b) * weights).sum(), [a, b])


def test_matmul_2d_gradients_are_the_plain_products():
    rng = np.random.default_rng(4)
    a = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
    b = Tensor(rng.standard_normal((4, 2)), requires_grad=True)
    v = Tensor(rng.standard_normal(4), requires_grad=True)
    u = Tensor(rng.standard_normal(3), requires_grad=True)
    g_ab, g_av, g_ua = rng.standard_normal((3, 2)), rng.standard_normal(3), rng.standard_normal(4)
    (a @ b).backward(g_ab)
    assert a.grad.tobytes() == (g_ab @ b.data.T).tobytes()
    assert b.grad.tobytes() == (a.data.T @ g_ab).tobytes()
    a.zero_grad()
    (a @ v).backward(g_av)
    assert a.grad.tobytes() == (g_av[:, None] * v.data).tobytes()
    assert v.grad.tobytes() == (a.data.T @ g_av).tobytes()
    a.zero_grad()
    (u @ a).backward(g_ua)
    assert u.grad.tobytes() == (g_ua @ a.data.T).tobytes()
    assert a.grad.tobytes() == np.outer(u.data, g_ua).tobytes()


def test_sum_axis_and_keepdims():
    a = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    out = a.sum(axis=1, keepdims=True)
    assert out.shape == (2, 1)
    out.sum().backward()
    assert np.allclose(a.grad, np.ones((2, 3)))


def test_mean_gradient_scales_by_count():
    a = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    a.mean().backward()
    assert np.allclose(a.grad, np.full((2, 3), 1.0 / 6.0))


def test_reshape_round_trip_gradient():
    a = Tensor(np.arange(6.0), requires_grad=True)
    (a.reshape(2, 3) * 2.0).sum().backward()
    assert np.allclose(a.grad, np.full(6, 2.0))


def test_transpose_gradient():
    a = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    scale = Tensor(np.arange(6.0).reshape(3, 2))
    (a.T * scale).sum().backward()
    assert np.allclose(a.grad, scale.data.T)


def test_getitem_slice_gradient():
    a = Tensor(np.arange(10.0), requires_grad=True)
    a[2:5].sum().backward()
    expected = np.zeros(10)
    expected[2:5] = 1.0
    assert np.allclose(a.grad, expected)


def test_getitem_repeated_fancy_index_accumulates():
    a = Tensor(np.arange(4.0), requires_grad=True)
    a[np.array([1, 1, 2])].sum().backward()
    assert np.allclose(a.grad, [0.0, 2.0, 1.0, 0.0])


def test_gradient_accumulates_across_reuse():
    a = Tensor([3.0], requires_grad=True)
    (a * a).sum().backward()
    assert np.allclose(a.grad, [6.0])


def test_diamond_graph_gradient():
    a = Tensor([2.0], requires_grad=True)
    b = a * 3.0
    c = a * 4.0
    (b + c).sum().backward()
    assert np.allclose(a.grad, [7.0])


def test_backward_on_non_grad_tensor_raises():
    a = Tensor([1.0])
    with pytest.raises(RuntimeError):
        a.backward()


def test_backward_seed_shape_mismatch_raises():
    a = Tensor([1.0, 2.0], requires_grad=True)
    out = a * 2.0
    with pytest.raises(ValueError):
        out.backward(np.ones(3))


def test_no_grad_blocks_graph_construction():
    a = Tensor([1.0], requires_grad=True)
    with no_grad():
        out = a * 2.0
    assert not out.requires_grad


def test_detach_cuts_graph():
    a = Tensor([1.0], requires_grad=True)
    out = (a.detach() * 2.0)
    assert not out.requires_grad
    assert out.data is not None


def test_item_on_scalar_and_error_on_vector():
    assert Tensor([5.0]).item() == 5.0
    with pytest.raises(ValueError):
        Tensor([1.0, 2.0]).item()


def test_integer_input_promoted_to_float():
    a = Tensor([1, 2, 3])
    assert a.dtype.kind == "f"


def test_zero_grad_clears():
    a = Tensor([1.0], requires_grad=True)
    (a * 2.0).sum().backward()
    assert a.grad is not None
    a.zero_grad()
    assert a.grad is None


def test_repr_contains_shape():
    assert "shape=(2,)" in repr(Tensor([1.0, 2.0]))


def test_no_grad_as_decorator():
    @no_grad()
    def compute(x):
        assert not is_grad_enabled()
        return x * 2.0

    x = Tensor(np.ones(3), requires_grad=True)
    out = compute(x)
    assert is_grad_enabled()
    assert not out.requires_grad


def test_no_grad_nested_and_exception_safe():
    assert is_grad_enabled()
    with pytest.raises(ValueError):
        with no_grad():
            with no_grad():
                raise ValueError("inner")
    assert is_grad_enabled()


def test_no_grad_single_instance_reentrant():
    guard = no_grad()
    with guard:
        assert not is_grad_enabled()
        with guard:  # reusing one instance must still restore correctly
            assert not is_grad_enabled()
        assert not is_grad_enabled()
    assert is_grad_enabled()
