"""Gradient ownership on the tape.

An interior node borrows its first gradient read-only instead of copying
it; leaves and Parameters always own theirs (see
``Tensor._accumulate_grad``). These tests pin the three consequences:
no leaf gradient aliases an array someone else can write, a borrowed
gradient cannot be written in place, and every leaf gradient has the
bytes and strides an always-copy tape gives, checked by a hypothesis
oracle over random graphs.
"""

import contextlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tensor import (
    NumericalAnomaly,
    Tensor,
    concat,
    detect_anomaly,
    ensure_tensor,
    expand_dims,
    gather_rows,
    log_softmax,
    softmax,
    sqrt,
    tanh,
)
from repro.tensor import core
from repro.tensor.core import _unbroadcast


def _always_copy_accumulate(self, grad):
    """The tape before borrowing: every first gradient is copied."""
    if not self.requires_grad:
        return
    grad = _unbroadcast(np.asarray(grad), self.data.shape)
    if self.grad is None:
        self.grad = grad.astype(self.data.dtype, copy=True)
    else:
        self.grad += grad


def _always_copy_buffer(self):
    if self.grad is None:
        self.grad = np.zeros_like(self.data)
    return self.grad


def _plain_mul(self, other):
    """``mul`` before borrowing: products in numpy's default layout."""
    other = ensure_tensor(other)

    def backward(grad):
        self._accumulate_grad(grad * other.data)
        other._accumulate_grad(grad * self.data)

    return Tensor._from_op(self.data * other.data, (self, other), backward)


@contextlib.contextmanager
def _always_copy():
    saved = core.Tensor._accumulate_grad, core.Tensor._grad_buffer, core.Tensor.__mul__
    core.Tensor._accumulate_grad = _always_copy_accumulate
    core.Tensor._grad_buffer = _always_copy_buffer
    core.Tensor.__mul__ = _plain_mul
    try:
        yield
    finally:
        core.Tensor._accumulate_grad, core.Tensor._grad_buffer, core.Tensor.__mul__ = saved


def _passthrough(parent: Tensor, produced: np.ndarray) -> Tensor:
    """An op whose backward hands ``produced`` to its parent as is."""
    return Tensor._from_op(parent.data.copy(), (parent,), lambda grad: parent._accumulate_grad(produced))


# ----------------------------------------------------------------------
# Aliasing
# ----------------------------------------------------------------------
def test_mutating_upstream_gradients_after_backward_leaves_leaf_grads_unchanged():
    rng = np.random.default_rng(0)
    x = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
    y = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
    produced = rng.standard_normal((3, 4))
    # x reaches the loss through an interior node that borrows ``produced``
    # and passes it on; y through an add that shares one gradient between
    # both parents.
    hidden = _passthrough(x * 1.0, produced)
    seed = np.full((3, 4), 0.5)
    out = hidden + y * 2.0
    out.backward(seed)
    before = {name: t.grad.copy() for name, t in (("x", x), ("y", y))}

    produced[...] = np.nan
    seed[...] = np.nan
    for node in (hidden, out):
        if node.grad is not None and node.grad.flags.writeable:
            node.grad[...] = np.nan

    assert x.grad.tobytes() == before["x"].tobytes()
    assert y.grad.tobytes() == before["y"].tobytes()
    assert x.grad.flags.writeable and y.grad.flags.writeable


def test_leaf_grads_are_owned_and_writable():
    x = Tensor(np.ones((2, 3)), requires_grad=True)
    loss = (x * 3.0).sum()
    loss.backward()
    assert x.grad.flags.writeable and x.grad.flags.owndata
    x.grad *= 2.0  # clipping and loss-scale unscaling write like this
    np.testing.assert_array_equal(x.grad, np.full((2, 3), 6.0))


def test_in_place_write_to_borrowed_interior_grad_raises():
    rng = np.random.default_rng(1)
    x = Tensor(rng.standard_normal(5), requires_grad=True)
    a, b = x * 2.0, x * 3.0
    out = a + b  # one gradient array reaches both parents
    out.backward(rng.standard_normal(5))

    assert np.shares_memory(a.grad, b.grad)
    with pytest.raises(ValueError, match="read-only"):
        a.grad += 1.0
    with pytest.raises(ValueError, match="read-only"):
        b.grad[0] = 0.0
    np.testing.assert_array_equal(a.grad, b.grad)


def test_zero_d_interior_node_takes_a_broadcast_gradient():
    # mean is sum * (1 / count): a 0-d mul node whose gradient comes back
    # from the (3, 4) subtraction through a full reduction.
    rng = np.random.default_rng(2)
    x_data, w_data = rng.standard_normal((3, 4)), rng.standard_normal((3, 4))
    grads = []
    for context in (contextlib.nullcontext, _always_copy):
        with context():
            x = Tensor(x_data, requires_grad=True)
            w = Tensor(w_data, requires_grad=True)
            ((x - x.mean()) * w).sum().backward()
        grads.append((x.grad, w.grad))
    for got, want in zip(*grads):
        assert got.tobytes() == want.tobytes()


def test_second_contribution_to_borrowed_grad_makes_a_new_array():
    x = Tensor(np.arange(4.0), requires_grad=True)
    h = x * 1.0
    first, second = np.full(4, 2.0), np.full(4, 5.0)
    h._accumulate_grad(first)
    assert np.shares_memory(h.grad, first) and not h.grad.flags.writeable
    h._accumulate_grad(second)
    assert not np.shares_memory(h.grad, first)
    np.testing.assert_array_equal(first, np.full(4, 2.0))
    np.testing.assert_array_equal(h.grad, np.full(4, 7.0))


def test_scatter_into_a_borrowed_grad_copies_it_first():
    x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    h = x * 1.0
    produced = np.ones((2, 3))
    h._accumulate_grad(produced)
    h._scatter_grad((0, slice(1, 3)), np.array([10.0, 20.0]), basic=True)
    np.testing.assert_array_equal(produced, np.ones((2, 3)))
    np.testing.assert_array_equal(h.grad, [[1.0, 11.0, 21.0], [1.0, 1.0, 1.0]])


def test_detect_anomaly_names_the_op_when_nan_lands_in_a_borrowed_grad():
    # The zero weight sends a zero gradient into sqrt at 0, whose backward
    # mints 0 * 0.5 / 0 = nan. It lands in ``hidden``, an interior node
    # that would borrow it.
    x = Tensor(np.array([0.0, 4.0]), requires_grad=True)
    with detect_anomaly(emit_telemetry=False):
        hidden = x * 1.0
        out = (sqrt(hidden) * np.array([0.0, 1.0])).sum()
        with pytest.raises(NumericalAnomaly) as excinfo:
            out.backward()
    anomaly = excinfo.value
    assert anomaly.phase == "backward"
    assert anomaly.kind == "nan"
    assert anomaly.op == "sqrt"


# ----------------------------------------------------------------------
# Byte-identity oracle against an always-copy tape
# ----------------------------------------------------------------------
OPS = (
    "tanh", "square", "broadcast", "sum", "expand_mul", "reshape", "transpose",
    "slice", "gather", "matmul", "softmax", "concat", "add_nodes",
)


def _broadcastable_shape(draw, shape):
    """A shape that broadcasts to ``shape``: axes kept, set to 1 or dropped."""
    drop = draw(st.integers(0, len(shape)))
    return tuple(dim if draw(st.booleans()) else 1 for dim in shape[drop:])


def _widened_shape(draw, shape):
    """A shape ``shape`` broadcasts to: size-1 axes grow, axes are prepended.

    A 0-d node (a full ``sum``) always gains at least one axis, so its
    gradient comes back through a full reduction in ``_unbroadcast``.
    """
    lead = draw(st.lists(st.integers(1, 6), min_size=0 if shape else 1, max_size=max(0, 3 - len(shape))))
    return tuple(lead) + tuple(draw(st.integers(1, 6)) if dim == 1 else dim for dim in shape)


@st.composite
def graphs(draw):
    """A straight-line program over leaves and ops, with every node's shape."""
    shape = tuple(draw(st.lists(st.integers(1, 12), min_size=1, max_size=3)))
    leaves = [shape]
    shapes = [shape]
    program = [("leaf", 0)]

    def new_leaf(leaf_shape):
        leaves.append(leaf_shape)
        return len(leaves) - 1

    for _ in range(draw(st.integers(1, 10))):
        src = draw(st.integers(0, len(shapes) - 1))
        shape = shapes[src]
        ndim = len(shape)
        op = draw(st.sampled_from(OPS))
        probe = np.zeros(shape)
        if op in ("tanh", "square"):
            step, out = (op, src), shape
        elif op == "broadcast":
            # The leaf is the narrow operand, or the node is broadcast up.
            widen = draw(st.booleans())
            other = new_leaf((_widened_shape if widen else _broadcastable_shape)(draw, shape))
            kind = draw(st.sampled_from(("mul", "add", "sub")))
            step, out = (op, src, other, kind, draw(st.booleans())), np.broadcast_shapes(shape, leaves[other])
        elif op == "sum":
            axis = None if ndim == 0 else draw(st.one_of(st.none(), st.integers(0, ndim - 1)))
            keepdims = draw(st.booleans())
            step, out = (op, src, axis, keepdims), probe.sum(axis=axis, keepdims=keepdims).shape
        elif op == "expand_mul":
            if ndim == 0:
                continue
            axis = draw(st.integers(0, ndim))
            wide = shape[:axis] + (draw(st.integers(1, 9)),) + shape[axis:]
            other = new_leaf(wide)
            step, out = (op, src, axis, other), wide
        elif op == "reshape":
            target = draw(st.sampled_from(((-1,), (shape[0] if ndim else 1, -1), tuple(reversed(shape)))))
            out = probe.reshape(target).shape
            step = (op, src, out)
        elif op == "transpose":
            perm = tuple(draw(st.permutations(range(ndim))))
            step, out = (op, src, perm), probe.transpose(perm).shape
        elif op == "slice":
            if ndim == 0:
                continue
            axis = draw(st.integers(0, ndim - 1))
            lo = draw(st.integers(0, shape[axis] - 1))
            hi = draw(st.integers(lo + 1, shape[axis]))
            stride = draw(st.integers(1, 2))
            key = (slice(None),) * axis + (slice(lo, hi, stride),)
            step, out = (op, src, key), probe[key].shape
        elif op == "gather":
            if ndim < 2:
                continue
            picks = draw(st.lists(st.integers(0, shape[1] - 1), min_size=shape[0], max_size=shape[0]))
            step, out = (op, src, tuple(picks)), (shape[0],) + shape[2:]
        elif op == "matmul":
            if ndim == 0:
                continue
            vector = draw(st.booleans())
            other = new_leaf((shape[-1],) if vector else (shape[-1], draw(st.integers(1, 5))))
            step, out = (op, src, other), (probe @ np.zeros(leaves[other])).shape
        elif op == "softmax":
            if ndim == 0:
                continue
            axis = draw(st.integers(0, ndim - 1))
            step, out = (op, src, axis, draw(st.booleans())), shape
        elif op == "concat":
            if ndim == 0:
                continue
            axis = draw(st.integers(0, ndim - 1))
            other = new_leaf(shape)
            step, out = (op, src, other, axis), probe.shape[:axis] + (2 * shape[axis],) + shape[axis + 1:]
        else:  # add_nodes: one gradient reaches both parents
            partners = [i for i, s in enumerate(shapes) if s == shape]
            step, out = (op, src, draw(st.sampled_from(partners))), shape
        program.append(step)
        shapes.append(out)
    used = draw(st.lists(st.integers(0, len(shapes) - 1), min_size=1, unique=True))
    return leaves, program, shapes, sorted(set(used) | {len(shapes) - 1})


def _run(graph, seed):
    """Build the graph on fresh leaves, backpropagate, return leaf grads."""
    leaf_shapes, program, shapes, used = graph
    rng = np.random.default_rng(seed)
    leaves = [Tensor(rng.standard_normal(s), requires_grad=True) for s in leaf_shapes]
    nodes = []
    for step in program:
        op, args = step[0], step[1:]
        if op == "leaf":
            nodes.append(leaves[args[0]])
            continue
        x = nodes[args[0]]
        if op == "tanh":
            y = tanh(x)
        elif op == "square":
            y = x * x
        elif op == "broadcast":
            other, kind, flip = leaves[args[1]], args[2], args[3]
            a, b = (other, x) if flip else (x, other)
            y = a * b if kind == "mul" else a + b if kind == "add" else a - b
        elif op == "sum":
            y = x.sum(axis=args[1], keepdims=args[2])
        elif op == "expand_mul":
            y = expand_dims(x, args[1]) * leaves[args[2]]
        elif op == "reshape":
            y = x.reshape(args[1])
        elif op == "transpose":
            y = x.transpose(args[1])
        elif op == "slice":
            y = x[args[1]]
        elif op == "gather":
            y = gather_rows(x, np.array(args[1]))
        elif op == "matmul":
            y = x @ leaves[args[1]]
        elif op == "softmax":
            y = (log_softmax if args[2] else softmax)(x, axis=args[1])
        elif op == "concat":
            y = concat([x, leaves[args[1]]], axis=args[2])
        else:
            y = x + nodes[args[1]]
        nodes.append(y)
    loss = None
    for index in used:
        weights = rng.standard_normal(shapes[index])
        term = (nodes[index] * weights).sum()
        loss = term if loss is None else loss + term
    loss.backward()
    return [leaf.grad for leaf in leaves]


@settings(max_examples=300, deadline=None)
@given(graphs(), st.integers(0, 2**31 - 1))
def test_leaf_grads_match_always_copy_byte_for_byte(graph, seed):
    borrowed = _run(graph, seed)
    with _always_copy():
        copied = _run(graph, seed)
    for got, want in zip(borrowed, copied):
        if want is None:
            assert got is None
            continue
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.strides == want.strides
        assert got.tobytes() == want.tobytes()


# (leaf shapes, program, node shapes, nodes in the loss) for the cases the
# oracle must cover.
NAMED_GRAPHS = {
    # sum -> broadcast mul -> _unbroadcast: the mul borrows a stride-0 view,
    # and the reduction for the narrow operand sums over what it made of it.
    "sum_broadcast_mul": (
        [(8, 36), (8, 5, 36)],
        [("leaf", 0), ("expand_mul", 0, 1, 1), ("sum", 1, 2, False)],
        [(8, 36), (8, 5, 36), (8, 5)],
        [2],
    ),
    "sum_broadcast_add": (
        [(8, 36), (1, 36)],
        [("leaf", 0), ("broadcast", 0, 1, "add", False), ("sum", 1, 0, True)],
        [(8, 36), (8, 36), (1, 36)],
        [2],
    ),
    # A mul borrows a broadcast whose copy is C-ordered, next to an
    # F-ordered operand: its products must keep the copy's C layout, or the
    # reduction for the (1, 12) operand sums in another order.
    "broadcast_beside_f_order": (
        [(12, 10), (1, 12)],
        [("leaf", 0), ("transpose", 0, (1, 0)), ("broadcast", 1, 1, "mul", False), ("sum", 2, 1, False)],
        [(12, 10), (10, 12), (10, 12), (10,)],
        [3],
    ),
    # A tanh over F-ordered data gets a broadcast whose copy is C-ordered.
    # Only a mul computes its products in the copy's layout, so the tanh
    # must copy it; borrowed, its product and the leaf gradient would come
    # out F-ordered.
    "broadcast_into_tanh_of_f_order": (
        [(12, 10)],
        [("leaf", 0), ("transpose", 0, (1, 0)), ("tanh", 1), ("sum", 2, 1, False)],
        [(12, 10), (10, 12), (10, 12), (10,)],
        [3],
    ),
    # An F-ordered square, transposed back: the mul copies the F-ordered
    # view the transpose hands it and owns that copy. Both its operands are
    # F-ordered, so its products keep the F layout they had from the copy.
    "owned_f_order_into_mul": (
        [(12, 10)],
        [("leaf", 0), ("transpose", 0, (1, 0)), ("square", 1), ("transpose", 2, (1, 0))],
        [(12, 10), (10, 12), (10, 12), (12, 10)],
        [3],
    ),
    # Summing over axis 0 makes a broadcast whose copy is F-ordered; the
    # products from that copy are F-ordered too, so it must be copied.
    "broadcast_copied_to_f_order": (
        [(12, 10), (10, 1)],
        [("leaf", 0), ("transpose", 0, (1, 0)), ("broadcast", 1, 1, "mul", False), ("sum", 2, 0, False)],
        [(12, 10), (10, 12), (10, 12), (12,)],
        [3],
    ),
    # A full sum is a 0-d interior node; subtracting it from a full-shape
    # leaf sends its gradient back through a full reduction.
    "full_sum_broadcast_up": (
        [(3, 4), (3, 4)],
        [("leaf", 0), ("sum", 0, None, False), ("broadcast", 1, 1, "sub", True)],
        [(3, 4), (), (3, 4)],
        [2],
    ),
    # x * x: both contributions come from one backward call.
    "square": ([(8, 36)], [("leaf", 0), ("square", 0), ("sum", 1, None, False)], [(8, 36), (8, 36), ()], [2]),
    # An add hands one gradient to both of its parents (here one node).
    "add_then_slice": (
        [(12,)],
        [("leaf", 0), ("tanh", 0), ("add_nodes", 1, 1), ("slice", 2, (slice(1, 9, 2),))],
        [(12,), (12,), (12,), (4,)],
        [3],
    ),
    # The tanh node borrows the mul's product, then the slice scatters into
    # it, so the scatter must copy first.
    "borrow_then_scatter": (
        [(12,), (12,)],
        [("leaf", 0), ("tanh", 0), ("broadcast", 1, 1, "mul", False), ("slice", 1, (slice(1, 9, 2),))],
        [(12,), (12,), (12,), (4,)],
        [2, 3],
    ),
    # reshape and transpose hand on views of a borrowed gradient.
    "reshape_transpose": (
        [(36,), (9,)],
        [("leaf", 0), ("tanh", 0), ("reshape", 1, (9, 4)), ("transpose", 2, (1, 0)), ("matmul", 3, 1)],
        [(36,), (36,), (9, 4), (4, 9), (4,)],
        [4],
    ),
}


@pytest.mark.parametrize("name", sorted(NAMED_GRAPHS))
def test_named_graphs_match_always_copy(name):
    for seed in range(20):
        borrowed = _run(NAMED_GRAPHS[name], seed)
        with _always_copy():
            copied = _run(NAMED_GRAPHS[name], seed)
        for got, want in zip(borrowed, copied):
            assert got.strides == want.strides
            assert got.tobytes() == want.tobytes()
