"""Tests for the autograd engine: every op's gradient is checked against
central finite differences, plus graph-mechanics and bf16 tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tensor.dtype import BF16_EPS
from repro.tensor import (
    Tensor,
    as_tensor,
    checkpoint,
    cross_entropy,
    embedding,
    gelu,
    layer_norm,
    no_grad,
    softmax,
    to_bf16,
    where_mask,
)


def numeric_grad(f, x, eps=1e-6):
    """Central finite-difference gradient of scalar f at array x."""
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        hi = f(x)
        flat[i] = orig - eps
        lo = f(x)
        flat[i] = orig
        gf[i] = (hi - lo) / (2 * eps)
    return g


def check_grad(op, shapes, seed=0, tol=1e-6):
    """Verify autograd of `op(*(tensors))` (scalarized by sum) against
    finite differences for each input."""
    rng = np.random.default_rng(seed)
    arrays = [rng.standard_normal(s) for s in shapes]
    for wrt in range(len(arrays)):
        tensors = [Tensor(a.copy(), requires_grad=True) for a in arrays]
        out = op(*tensors)
        loss = out.sum() if out.size > 1 else out
        loss.backward()
        analytic = tensors[wrt].grad

        def scalar_f(x, wrt=wrt):
            args = [a.copy() for a in arrays]
            args[wrt] = x
            ts = [Tensor(a) for a in args]
            return float(op(*ts).sum().data)

        numeric = numeric_grad(scalar_f, arrays[wrt].copy())
        np.testing.assert_allclose(analytic, numeric, rtol=tol, atol=tol)


class TestArithmeticGrads:
    def test_add(self):
        check_grad(lambda a, b: a + b, [(3, 4), (3, 4)])

    def test_add_broadcast(self):
        check_grad(lambda a, b: a + b, [(3, 4), (4,)])

    def test_sub(self):
        check_grad(lambda a, b: a - b, [(2, 3), (2, 3)])

    def test_mul(self):
        check_grad(lambda a, b: a * b, [(3, 3), (3, 3)])

    def test_mul_broadcast(self):
        check_grad(lambda a, b: a * b, [(2, 3, 4), (1, 3, 1)])

    def test_div(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((3, 3))
        b = rng.standard_normal((3, 3)) + 3.0  # away from zero
        ta, tb = Tensor(a, requires_grad=True), Tensor(b, requires_grad=True)
        (ta / tb).sum().backward()
        np.testing.assert_allclose(ta.grad, 1.0 / b, rtol=1e-10)
        np.testing.assert_allclose(tb.grad, -a / b**2, rtol=1e-10)

    def test_neg_pow(self):
        check_grad(lambda a: (-a) ** 2, [(4,)])

    def test_scalar_ops(self):
        t = Tensor(np.array([2.0, 3.0]), requires_grad=True)
        (2.0 * t + 1.0 - t / 2.0).sum().backward()
        np.testing.assert_allclose(t.grad, [1.5, 1.5])

    def test_rsub_rdiv(self):
        t = Tensor(np.array([2.0]), requires_grad=True)
        out = 1.0 - t
        out.backward()
        np.testing.assert_allclose(t.grad, [-1.0])
        t2 = Tensor(np.array([2.0]), requires_grad=True)
        (1.0 / t2).backward()
        np.testing.assert_allclose(t2.grad, [-0.25])


class TestMatmulGrads:
    def test_2d(self):
        check_grad(lambda a, b: a @ b, [(3, 4), (4, 5)])

    def test_batched(self):
        check_grad(lambda a, b: a @ b, [(2, 3, 4), (2, 4, 5)])

    def test_broadcast_batch(self):
        check_grad(lambda a, b: a @ b, [(2, 3, 4), (4, 5)])

    def test_transpose_chain(self):
        check_grad(lambda a, b: a.t() @ b, [(4, 3), (4, 5)])


class TestShapeGrads:
    def test_reshape(self):
        check_grad(lambda a: a.reshape(6, 2), [(3, 4)])

    def test_transpose_axes(self):
        check_grad(lambda a: a.transpose((2, 0, 1)), [(2, 3, 4)])

    def test_getitem(self):
        check_grad(lambda a: a[1:3], [(5, 2)])

    def test_concatenate(self):
        check_grad(
            lambda a, b: Tensor.concatenate([a, b], axis=1), [(2, 3), (2, 2)]
        )

    def test_sum_axis(self):
        check_grad(lambda a: a.sum(axis=1), [(3, 4)])

    def test_mean(self):
        check_grad(lambda a: a.mean(), [(3, 4)])

    def test_sum_keepdims(self):
        check_grad(lambda a: a.sum(axis=0, keepdims=True), [(3, 4)])


class TestElementwiseGrads:
    def test_exp_log(self):
        rng = np.random.default_rng(0)
        a = np.abs(rng.standard_normal((3, 3))) + 0.5
        t = Tensor(a, requires_grad=True)
        t.log().sum().backward()
        np.testing.assert_allclose(t.grad, 1.0 / a, rtol=1e-10)
        t2 = Tensor(a, requires_grad=True)
        t2.exp().sum().backward()
        np.testing.assert_allclose(t2.grad, np.exp(a), rtol=1e-10)

    def test_tanh_sqrt(self):
        check_grad(lambda a: a.tanh(), [(4,)])
        rng = np.random.default_rng(0)
        a = np.abs(rng.standard_normal(5)) + 1.0
        t = Tensor(a, requires_grad=True)
        t.sqrt().sum().backward()
        np.testing.assert_allclose(t.grad, 0.5 / np.sqrt(a), rtol=1e-10)

    def test_maximum(self):
        check_grad(lambda a, b: a.maximum(b), [(6,), (6,)], seed=3)

    def test_gelu(self):
        check_grad(gelu, [(5, 3)])


class TestFusedOps:
    def test_softmax_rows_sum_to_one(self):
        x = Tensor(np.random.default_rng(0).standard_normal((4, 7)))
        s = softmax(x)
        np.testing.assert_allclose(s.data.sum(axis=-1), np.ones(4), rtol=1e-12)

    def test_softmax_grad(self):
        check_grad(lambda a: softmax(a), [(3, 5)])

    def test_layer_norm_grad(self):
        check_grad(
            lambda x, w, b: layer_norm(x, w, b), [(4, 6), (6,), (6,)], tol=1e-5
        )

    def test_layer_norm_normalizes(self):
        x = Tensor(np.random.default_rng(0).standard_normal((3, 8)) * 5 + 2)
        w = Tensor(np.ones(8))
        b = Tensor(np.zeros(8))
        y = layer_norm(x, w, b).data
        np.testing.assert_allclose(y.mean(axis=-1), 0.0, atol=1e-10)
        np.testing.assert_allclose(y.std(axis=-1), 1.0, atol=1e-3)

    def test_embedding_forward_and_grad(self):
        w = Tensor(np.random.default_rng(0).standard_normal((10, 4)), requires_grad=True)
        ids = np.array([[1, 1, 3]])
        out = embedding(w, ids)
        assert out.shape == (1, 3, 4)
        out.sum().backward()
        assert w.grad[1].sum() == pytest.approx(8.0)  # row 1 used twice
        assert w.grad[3].sum() == pytest.approx(4.0)
        assert w.grad[0].sum() == 0.0

    def test_embedding_rejects_float_ids(self):
        w = Tensor(np.zeros((4, 2)))
        with pytest.raises(TypeError):
            embedding(w, np.array([0.5]))

    def test_cross_entropy_matches_manual(self):
        rng = np.random.default_rng(0)
        logits = rng.standard_normal((5, 7))
        targets = rng.integers(0, 7, size=5)
        t = Tensor(logits, requires_grad=True)
        loss = cross_entropy(t, targets)
        # manual
        ls = logits - logits.max(axis=1, keepdims=True)
        logp = ls - np.log(np.exp(ls).sum(axis=1, keepdims=True))
        expect = -logp[np.arange(5), targets].mean()
        assert loss.item() == pytest.approx(expect, rel=1e-12)

    def test_cross_entropy_grad(self):
        rng = np.random.default_rng(1)
        targets = rng.integers(0, 6, size=4)

        def op(a):
            return cross_entropy(a, targets)

        check_grad(op, [(4, 6)])

    def test_cross_entropy_mask_drops_tokens(self):
        rng = np.random.default_rng(2)
        logits = rng.standard_normal((4, 5))
        targets = rng.integers(0, 5, size=4)
        mask = np.array([1, 0, 1, 0])
        t = Tensor(logits, requires_grad=True)
        loss = cross_entropy(t, targets, loss_mask=mask)
        loss.backward()
        # Masked rows get zero gradient.
        np.testing.assert_array_equal(t.grad[1], 0.0)
        np.testing.assert_array_equal(t.grad[3], 0.0)
        assert np.abs(t.grad[0]).sum() > 0

    def test_cross_entropy_all_masked_rejected(self):
        t = Tensor(np.zeros((2, 3)))
        with pytest.raises(ValueError):
            cross_entropy(t, np.array([0, 1]), loss_mask=np.zeros(2))

    def test_where_mask(self):
        x = Tensor(np.arange(4.0), requires_grad=True)
        mask = np.array([True, False, True, False])
        y = where_mask(x, mask, -np.inf)
        assert y.data[1] == -np.inf
        y2 = where_mask(x, mask, 0.0)
        y2.sum().backward()
        np.testing.assert_array_equal(x.grad, [1.0, 0.0, 1.0, 0.0])


class TestGraphMechanics:
    def test_grad_accumulates_over_reuse(self):
        t = Tensor(np.array([3.0]), requires_grad=True)
        (t * t).backward()  # d/dt t^2 = 2t
        np.testing.assert_allclose(t.grad, [6.0])

    def test_diamond_graph(self):
        t = Tensor(np.array([2.0]), requires_grad=True)
        a = t * 3.0
        b = t * 4.0
        (a + b).backward()
        np.testing.assert_allclose(t.grad, [7.0])

    def test_multiple_backward_accumulates(self):
        t = Tensor(np.array([1.0]), requires_grad=True)
        (t * 2.0).backward()
        (t * 2.0).backward()
        np.testing.assert_allclose(t.grad, [4.0])

    def test_zero_grad(self):
        t = Tensor(np.array([1.0]), requires_grad=True)
        (t * 2.0).backward()
        t.zero_grad()
        assert t.grad is None

    def test_no_grad_blocks_graph(self):
        t = Tensor(np.array([1.0]), requires_grad=True)
        with no_grad():
            out = t * 2.0
        assert not out.requires_grad
        assert (t * 2.0).requires_grad

    def test_backward_on_constant_rejected(self):
        with pytest.raises(RuntimeError):
            Tensor(np.ones(2)).backward()

    def test_detach_cuts_graph(self):
        t = Tensor(np.array([1.0]), requires_grad=True)
        d = t.detach()
        assert not d.requires_grad
        assert d.data is t.data

    def test_int_input_promoted_to_float(self):
        t = Tensor(np.array([1, 2, 3]))
        assert t.dtype == np.float64

    def test_zeros_ones_helpers(self):
        assert Tensor.zeros((2, 3)).shape == (2, 3)
        assert Tensor.ones((2,)).data.sum() == 2.0

    def test_repr(self):
        assert "requires_grad" in repr(Tensor(np.ones(1), requires_grad=True))


class TestCheckpoint:
    def test_same_value_and_grads_as_direct(self):
        rng = np.random.default_rng(0)
        w = Tensor(rng.standard_normal((4, 4)), requires_grad=True)

        def segment(x):
            return gelu(x @ w)

        x1 = Tensor(rng.standard_normal((2, 4)), requires_grad=True)
        direct = segment(x1)
        direct.sum().backward()

        w2 = Tensor(w.data.copy(), requires_grad=True)

        def segment2(x):
            return gelu(x @ w2)

        x2 = Tensor(x1.data.copy(), requires_grad=True)
        ck = checkpoint(segment2, x2)
        np.testing.assert_allclose(ck.data, direct.data, rtol=1e-12)
        ck.sum().backward()
        np.testing.assert_allclose(x2.grad, x1.grad, rtol=1e-12)
        np.testing.assert_allclose(w2.grad, w.grad, rtol=1e-12)

    def test_nested_checkpoint(self):
        w = Tensor(np.eye(3), requires_grad=True)

        def inner(x):
            return x @ w

        def outer(x):
            return checkpoint(inner, x) * 2.0

        x = Tensor(np.ones((2, 3)), requires_grad=True)
        checkpoint(outer, x).sum().backward()
        np.testing.assert_allclose(x.grad, 2 * np.ones((2, 3)))


class TestBF16:
    def test_roundtrip_is_idempotent(self):
        x = np.random.default_rng(0).standard_normal(100).astype(np.float32)
        once = to_bf16(x)
        twice = to_bf16(once)
        np.testing.assert_array_equal(once, twice)
        assert (once.astype(np.float32).view(np.uint32) & 0xFFFF == 0).all()

    def test_relative_error_bounded(self):
        x = np.random.default_rng(1).standard_normal(1000) * 100
        y = to_bf16(x)
        rel = np.abs(y - x.astype(np.float32)) / np.abs(x)
        assert rel.max() <= BF16_EPS / 2 + 1e-7

    def test_preserves_special_values(self):
        x = np.array([0.0, -0.0, np.inf, -np.inf, np.nan], dtype=np.float32)
        y = to_bf16(x)
        assert y[0] == 0 and y[1] == 0
        assert np.isinf(y[2]) and y[2] > 0
        assert np.isinf(y[3]) and y[3] < 0
        assert np.isnan(y[4])

    def test_exact_for_representable(self):
        # Powers of two and small integers are exactly representable.
        x = np.array([1.0, 2.0, 0.5, 0.25, 3.0, 100.0], dtype=np.float32)
        np.testing.assert_array_equal(to_bf16(x), x)

    @given(st.floats(-1e30, 1e30, allow_nan=False))
    @settings(max_examples=100, deadline=None)
    def test_rounding_never_increases_error_beyond_half_ulp(self, v):
        y = float(to_bf16(np.array([v], dtype=np.float32))[0])
        if v != 0:
            assert abs(y - v) <= abs(v) * (BF16_EPS / 2) + 1e-38


class TestAsTensor:
    def test_passthrough(self):
        t = Tensor(np.ones(2))
        assert as_tensor(t) is t

    def test_scalar(self):
        t = as_tensor(3.0)
        assert t.data == 3.0 and not t.requires_grad
