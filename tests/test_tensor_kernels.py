"""Old-vs-new harness for the rewritten ``repro.tensor`` kernels.

The formulas the kernels had before the autograd hot-path rewrite live
here as oracles; Hypothesis draws shapes and dtypes and every rewritten
kernel is held to its oracle — bitwise where the operation order is
unchanged (softmax, layer_norm, ``__getitem__`` backward, AdamW), to a
few ulps where it is not (the pow-free GELU, the folded matmul
backward).  See "Kernel rewrite contract" in DESIGN.md.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.nn import AdamW
from repro.nn.module import Parameter
from repro.nn.transformer import causal_attention
from repro.tensor import Tensor, as_tensor, gelu, layer_norm, softmax
from tests.oracles.attention import causal_attention_on_qkv

DTYPES = st.sampled_from([np.float64, np.float32])
SHAPES = st.lists(st.integers(1, 7), min_size=1, max_size=4).map(tuple)


def draw_array(seed, shape, dtype, scale=1.0):
    rng = np.random.default_rng(seed)
    return (scale * rng.standard_normal(shape)).astype(dtype)


def leaf(a):
    return Tensor(a, requires_grad=True)


# -- oracles: the pre-rewrite formulas, verbatim ---------------------------------

_GELU_C = float(np.sqrt(2.0 / np.pi))


def old_gelu(xd, g):
    inner = _GELU_C * (xd + 0.044715 * xd**3)
    t = np.tanh(inner)
    data = 0.5 * xd * (1.0 + t)
    sech2 = 1.0 - t**2
    d_inner = _GELU_C * (1.0 + 3 * 0.044715 * xd**2)
    return data, g * (0.5 * (1.0 + t) + 0.5 * xd * sech2 * d_inner)


def old_softmax(xd, g, axis=-1):
    shifted = xd - xd.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    data = e / e.sum(axis=axis, keepdims=True)
    dot = (g * data).sum(axis=axis, keepdims=True)
    return data, data * (g - dot)


def old_layer_norm(xd, w, b, g, eps=1e-5):
    mu = xd.mean(axis=-1, keepdims=True)
    var = xd.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (xd - mu) * inv
    data = xhat * w + b
    n = xd.shape[-1]
    gw = (g * xhat).reshape(-1, n).sum(axis=0)
    gb = g.reshape(-1, n).sum(axis=0)
    gx_hat = g * w
    gx = inv * (
        gx_hat
        - gx_hat.mean(axis=-1, keepdims=True)
        - xhat * (gx_hat * xhat).mean(axis=-1, keepdims=True)
    )
    return data, gx, gw, gb


def old_getitem_backward(data, idx, g):
    full = np.zeros_like(data)
    np.add.at(full, idx, g)
    return full


def old_matmul_backward(a, b, g):
    """The batched form: a GEMM per leading index, then a sum over them."""
    ga = g @ np.swapaxes(b, -1, -2)
    gb = np.swapaxes(a, -1, -2) @ g
    return ga, gb.sum(axis=tuple(range(gb.ndim - 2)))


def old_adamw_step(opt, t):
    """One pre-rewrite ``AdamW.step`` on ``opt``'s own state arrays."""
    b1, b2 = opt.betas
    bc1 = 1.0 - b1**t
    bc2 = 1.0 - b2**t
    for p, m, v in zip(opt.params, opt._m, opt._v):
        g = p.grad
        m *= b1
        m += (1 - b1) * g
        v *= b2
        v += (1 - b2) * g * g
        update = (m / bc1) / (np.sqrt(v / bc2) + 1e-8)
        if opt.weight_decay:
            update = update + opt.weight_decay * p.data
        p.data -= opt.lr * update


# -- gelu -------------------------------------------------------------------------


class TestGelu:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**16), shape=SHAPES, dtype=DTYPES,
           scale=st.sampled_from([0.1, 1.0, 4.0]))
    # An ulp of tanh near x = -3.1, amplified ~10x in the gradient.
    @example(seed=1167, shape=(4, 5, 6, 7), dtype=np.float64, scale=4.0)
    @example(seed=295, shape=(2, 4, 7, 7), dtype=np.float64, scale=4.0)
    def test_forward_and_backward_match_the_pow_formula(self, seed, shape, dtype, scale):
        xd = draw_array(seed, shape, dtype, scale)
        g = draw_array(seed + 1, shape, dtype)
        x = leaf(xd)
        y = gelu(x)
        y.backward(g)
        want, want_grad = old_gelu(xd, g)
        assert y.dtype == dtype and x.grad.dtype == dtype
        # 1 + tanh cancels for x << 0, so a last-ulp change of tanh shows
        # as an absolute, not a relative, difference there.
        tol = dict(rtol=1e-14, atol=1e-15) if dtype == np.float64 else dict(rtol=1e-5, atol=1e-6)
        np.testing.assert_allclose(y.data, want, **tol)
        if dtype != np.float64:
            np.testing.assert_allclose(x.grad, want_grad, **tol)
            return
        # The gradient is g (0.5 (1 + t) + 0.5 x (1 - t^2) d), with
        # d = c (1 + 3a x^2).  The two sides round tanh's argument
        # differently, so t may differ by an ulp (2^-53 below 1), which
        # the gradient scales by |g (0.5 - x t d)|; the rounding of
        # 1 - t^2 is scaled by |g x d| / 2, and the sums add an ulp of 1.
        t = np.tanh(_GELU_C * (xd + 0.044715 * xd**3))
        d = _GELU_C * (1.0 + 3 * 0.044715 * xd**2)
        bound = 2.0**-52 * np.abs(g) * (np.abs(0.5 - xd * t * d) + np.abs(xd * d) + 1.0)
        assert (np.abs(x.grad - want_grad) <= bound + 1e-14 * np.abs(want_grad)).all()

    @pytest.mark.parametrize("shape", [(), (0,), (4, 0), (1,)])
    def test_degenerate_shapes(self, shape):
        x = leaf(np.full(shape, 0.5))
        y = gelu(x)
        assert y.shape == shape
        y.backward(np.ones(shape))
        assert x.grad.shape == shape

    def test_non_contiguous_input(self):
        xd = draw_array(3, (6, 5), np.float64).T
        assert not xd.flags["C_CONTIGUOUS"]
        x = leaf(xd)
        y = gelu(x)
        y.backward(np.ones(xd.shape))
        want, want_grad = old_gelu(xd, np.ones(xd.shape))
        np.testing.assert_allclose(y.data, want, rtol=1e-14, atol=1e-15)
        np.testing.assert_allclose(x.grad, want_grad, rtol=1e-14, atol=1e-15)

    def test_finite_differences_out_to_thirty(self):
        xd = np.concatenate([np.linspace(-30.0, 30.0, 121), [-8.5, -4.0, 1e-3, 6.25]])
        x = leaf(xd)
        y = gelu(x)
        y.backward(np.ones_like(xd))
        assert np.isfinite(y.data).all() and np.isfinite(x.grad).all()
        h = 1e-5
        numeric = (gelu(Tensor(xd + h)).data - gelu(Tensor(xd - h)).data) / (2 * h)
        np.testing.assert_allclose(x.grad, numeric, atol=1e-7)
        # The saturated ends: identity on the right, zero on the left.
        assert y.data[-5] == 30.0 and x.grad[-5] == 1.0
        assert y.data[0] == 0.0 and x.grad[0] == 0.0

    def test_backward_can_run_twice(self):
        # The closure recomputes from x and tanh; it must not consume them.
        x = leaf(draw_array(5, (4, 6), np.float64))
        y = gelu(x)
        y.backward(np.ones((4, 6)))
        first = x.grad.copy()
        x.zero_grad()
        y.backward(np.ones((4, 6)))
        assert np.array_equal(x.grad, first)


# -- causal attention: one node, the composite's operation order -----------------


class TestFusedAttention:
    """:func:`causal_attention` is one node over ``[Q | K | V]``; the
    composite it replaced (``tests/oracles/attention.py``) is its oracle.
    The forward runs the composite's ops in its order and skips only
    ``exp`` of masked scores, whose result the composite multiplies by
    nothing (it is exactly 0); the backward runs the composite's chain
    on the same array views.  So both are bitwise, NaNs included."""

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2**16), dtype=DTYPES,
           b=st.integers(1, 3), s=st.integers(1, 144),
           num_heads=st.sampled_from([1, 2, 3, 4, 8]),
           head_dim=st.sampled_from([1, 2, 5, 8, 16]),
           scale=st.sampled_from([1.0, 1e3, 1e15, 1e30]))
    @example(seed=0, dtype=np.float32, b=1, s=144, num_heads=4, head_dim=8, scale=1e30)
    @example(seed=1, dtype=np.float64, b=2, s=64, num_heads=8, head_dim=16, scale=1.0)
    @example(seed=2, dtype=np.float32, b=1, s=1, num_heads=1, head_dim=1, scale=1.0)
    def test_matches_the_composite_bitwise(
        self, seed, dtype, b, s, num_heads, head_dim, scale
    ):
        h = num_heads * head_dim
        xd = draw_array(seed, (b, s, 3 * h), dtype, scale)
        g = draw_array(seed + 1, (b, s, h), dtype)
        fused, composite = leaf(xd.copy()), leaf(xd.copy())
        with np.errstate(over="ignore", invalid="ignore"):  # 1e30 in float32
            out = causal_attention(fused, num_heads)
            want = causal_attention_on_qkv(composite, num_heads)
            out.backward(g)
            want.backward(g)
        assert out.dtype == want.dtype == dtype
        assert fused.grad.dtype == composite.grad.dtype == dtype
        np.testing.assert_array_equal(out.data, want.data)
        np.testing.assert_array_equal(fused.grad, composite.grad)
        assert np.array_equal(xd, fused.data)  # input untouched

    def test_is_one_node(self):
        qkv = leaf(draw_array(0, (2, 6, 12), np.float64))
        out = causal_attention(qkv, 2)
        assert out._parents == (qkv,) and out.name == "causal_attention"


# -- softmax and layer_norm: same operation order, so bitwise -------------------


class TestBitwiseKernels:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**16), shape=SHAPES, dtype=DTYPES)
    def test_softmax(self, seed, shape, dtype):
        xd = draw_array(seed, shape, dtype, 3.0)
        g = draw_array(seed + 1, shape, dtype)
        x = leaf(xd)
        y = softmax(x)
        y.backward(g)
        want, want_grad = old_softmax(xd, g)
        assert np.array_equal(y.data, want)
        assert np.array_equal(x.grad, want_grad)
        assert np.array_equal(xd, draw_array(seed, shape, dtype, 3.0))  # input untouched

    def test_softmax_of_causally_masked_scores(self):
        xd = draw_array(0, (2, 5, 5), np.float64)
        xd[:, np.triu_indices(5, 1)[0], np.triu_indices(5, 1)[1]] = -np.inf
        g = draw_array(1, (2, 5, 5), np.float64)
        x = leaf(xd)
        y = softmax(x)
        y.backward(g)
        want, want_grad = old_softmax(xd, g)
        assert np.array_equal(y.data, want) and np.array_equal(x.grad, want_grad)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**16), shape=SHAPES, dtype=DTYPES)
    def test_layer_norm(self, seed, shape, dtype):
        n = shape[-1]
        xd = draw_array(seed, shape, dtype, 2.0)
        wd = draw_array(seed + 1, (n,), dtype)
        bd = draw_array(seed + 2, (n,), dtype)
        g = draw_array(seed + 3, shape, dtype)
        x, w, b = leaf(xd), leaf(wd), leaf(bd)
        y = layer_norm(x, w, b)
        y.backward(g)
        want, gx, gw, gb = old_layer_norm(xd, wd, bd, g)
        assert y.dtype == dtype
        assert np.array_equal(y.data, want)
        assert np.array_equal(x.grad, gx)
        assert np.array_equal(w.grad, gw)
        assert np.array_equal(b.grad, gb)


# -- __getitem__ backward --------------------------------------------------------

INDEXES = {
    "int": 2,
    "negative-int": -1,
    "slice": slice(1, 3),
    "strided-slice": (slice(None), slice(None, None, 2)),
    "negative-slice": (slice(-3, -1), slice(None), slice(None, None, -1)),
    "ints-and-slices": (1, slice(None), 4),
    "none": (None, slice(0, 2)),
    "ellipsis": (Ellipsis, slice(0, 3)),
    "ellipsis-none-int": (0, Ellipsis, None, -2),
    "numpy-int": np.int64(1),
    "int-array-with-duplicates": np.array([0, 2, 2, 3, 0, 0]),
    "int-list-with-duplicates": [1, 1, 3],
    "array-and-slice": (np.array([3, 3, 1]), slice(1, 4)),
    "two-arrays-with-duplicates": (np.array([0, 0, 1]), np.array([4, 4, 2])),
    "bool-mask-rows": np.array([True, False, True, True]),
    "bool-mask-full": draw_array(9, (4, 5, 6), np.float64) > 0.3,
}


class TestGetitemBackward:
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("name", sorted(INDEXES))
    def test_bitwise_equal_to_add_at(self, name, dtype):
        idx = INDEXES[name]
        xd = draw_array(0, (4, 5, 6), dtype)
        x = leaf(xd)
        y = x[idx]
        assert np.array_equal(y.data, xd[idx])
        g = draw_array(1, y.shape, dtype)
        y.backward(g)
        assert x.grad.dtype == dtype
        assert np.array_equal(x.grad, old_getitem_backward(xd, idx, g))

    def test_qkv_slices_accumulate(self):
        # The model's use: three column slices of one projection.
        x = leaf(draw_array(0, (2, 3, 12), np.float64))
        q, k, v = x[:, :, :4], x[:, :, 4:8], x[:, :, 8:]
        (q * 1.0 + k * 2.0 + v * 3.0).sum().backward()
        want = np.concatenate([np.full((2, 3, 4), c) for c in (1.0, 2.0, 3.0)], axis=-1)
        assert np.array_equal(x.grad, want)


# -- matmul backward -------------------------------------------------------------


class TestMatmulBackward:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**16),
           lead=st.lists(st.integers(1, 4), min_size=1, max_size=3).map(tuple),
           m=st.integers(1, 6), k=st.integers(1, 6), n=st.integers(1, 6),
           dtype=DTYPES)
    def test_folded_equals_batched(self, seed, lead, m, k, n, dtype):
        ad = draw_array(seed, lead + (m, k), dtype)
        bd = draw_array(seed + 1, (k, n), dtype)
        g = draw_array(seed + 2, lead + (m, n), dtype)
        a, b = leaf(ad), leaf(bd)
        out = a @ b
        assert np.array_equal(out.data, ad @ bd)  # forward untouched
        out.backward(g)
        ga, gb = old_matmul_backward(ad, bd, g)
        tol = dict(rtol=1e-12, atol=1e-13) if dtype == np.float64 else dict(rtol=1e-4, atol=1e-5)
        assert a.grad.shape == ad.shape and b.grad.shape == bd.shape
        assert a.grad.dtype == dtype and b.grad.dtype == dtype
        np.testing.assert_allclose(a.grad, ga, **tol)
        np.testing.assert_allclose(b.grad, gb, **tol)

    def test_non_contiguous_operands(self):
        # ``a`` as attention hands it over: a transposed view; ``g`` too.
        ad = draw_array(0, (5, 3, 4, 6), np.float64).transpose(1, 2, 0, 3)
        bd = draw_array(1, (7, 6), np.float64).T
        g = draw_array(2, (5, 3, 4, 7), np.float64).transpose(1, 2, 0, 3)
        assert not ad.flags["C_CONTIGUOUS"] and not g.flags["C_CONTIGUOUS"]
        a, b = leaf(ad), leaf(bd)
        (a @ b).backward(g)
        ga, gb = old_matmul_backward(ad, bd, g)
        np.testing.assert_allclose(a.grad, ga, rtol=1e-12, atol=1e-13)
        np.testing.assert_allclose(b.grad, gb, rtol=1e-12, atol=1e-13)

    def test_batched_rhs_keeps_the_general_path(self):
        ad = draw_array(0, (2, 3, 4, 5), np.float64)
        bd = draw_array(1, (2, 3, 5, 6), np.float64)
        g = draw_array(2, (2, 3, 4, 6), np.float64)
        a, b = leaf(ad), leaf(bd)
        (a @ b).backward(g)
        assert np.array_equal(a.grad, g @ np.swapaxes(bd, -1, -2))
        assert np.array_equal(b.grad, np.swapaxes(ad, -1, -2) @ g)


# -- AdamW -----------------------------------------------------------------------


class TestAdamW:
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("weight_decay", [0.0, 0.1])
    def test_five_steps_bitwise(self, weight_decay, dtype):
        shapes = [(7, 5), (5,), (3, 4, 2), ()]

        def make():
            params = [Parameter(draw_array(i, s, dtype)) for i, s in enumerate(shapes)]
            for p in params:  # a Parameter is born float64
                p.data = p.data.astype(dtype)
            return AdamW(params, lr=1e-2, weight_decay=weight_decay)

        new, old = make(), make()
        for step in range(1, 6):
            for i, (p, q) in enumerate(zip(new.params, old.params)):
                p.grad = draw_array(100 * step + i, p.shape, dtype)
                q.grad = p.grad.copy()
            new.step()
            old_adamw_step(old, step)
            for p, q in zip(new.params, old.params):
                assert p.data.dtype == dtype
                assert np.array_equal(p.data, q.data)
                assert np.array_equal(p.grad, q.grad)  # gradients are read-only
            for a, b in zip(new._m + new._v, old._m + old._v):
                assert np.array_equal(a, b)

    def test_parameters_without_gradient_are_skipped(self):
        p, q = Parameter(np.ones(3)), Parameter(np.ones(3))
        opt = AdamW([p, q])
        p.grad = np.ones(3)
        opt.step()
        assert np.array_equal(q.data, np.ones(3)) and not np.array_equal(p.data, np.ones(3))


# -- the engine: gradient accumulation never writes into an array it was handed --


class TestAccumulation:
    def test_diamond_never_writes_into_the_callers_seed(self):
        x = leaf(draw_array(0, (3, 4), np.float64))
        h = x * 1.0  # interior: its gradient is held in the engine's dict
        # ``__add__`` hands the *same* array to both parents, ``t`` a view
        # of it: h receives the seed itself, twice, and a view of it.
        out = (h + h) + h.t().t()
        seed = draw_array(1, (3, 4), np.float64)
        before = seed.copy()
        out.backward(seed)
        assert np.array_equal(seed, before)
        assert np.array_equal(x.grad, 3.0 * before)

    def test_fan_in_three_never_writes_into_a_closures_array(self):
        shape = (2, 5)
        shared = draw_array(0, shape, np.float64)  # one array for all parents
        before = shared.copy()
        leaves = [leaf(draw_array(i, shape, np.float64)) for i in (1, 2, 3)]
        m0, m1, m2 = (p * 1.0 for p in leaves)
        fan = Tensor._make(
            m0.data + m1.data + m2.data, (m0, m1, m2),
            lambda g: (shared, shared, shared), "fan",
        )
        # m0 and m1 each collect three gradients, `shared` among them,
        # in either order; m2 collects `shared` alone.
        out = ((fan + m0) + m0) + (m1 + m1)
        seed = np.ones(shape)
        out.backward(seed)
        assert np.array_equal(shared, before)
        assert np.array_equal(seed, np.ones(shape))
        assert np.array_equal(leaves[0].grad, 2.0 + before)
        assert np.array_equal(leaves[1].grad, 2.0 + before)
        assert np.array_equal(leaves[2].grad, before)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_zero_dim_node_with_fan_in_three_and_four(self, dtype):
        # ``acc + pg`` on 0-d arrays is a NumPy scalar, which ``+=`` would
        # rebind instead of update: every contribution must still count.
        xd = np.array([1.0, 2.0], dtype=dtype)
        x = leaf(xd)
        s = x.sum()  # 0-d interior node, value 3
        (s * s + s).backward()  # s collects s, s and 1
        assert np.array_equal(x.grad, np.full(2, 7.0, dtype))
        x.zero_grad()
        s = x.sum()
        (s + s + s + s).backward()
        assert np.array_equal(x.grad, np.full(2, 4.0, dtype))
        x.zero_grad()
        s = x.sum()
        (s * s * s + s * 2.0).backward()  # 3 s^2 + 2
        assert np.array_equal(x.grad, np.full(2, 29.0, dtype))
        assert x.grad.dtype == dtype

    def test_leaf_grad_is_a_private_copy(self):
        x = leaf(np.zeros(3))
        seed = np.ones(3)
        x.backward(seed)
        x.backward(seed)  # accumulates in place into the engine's copy
        assert np.array_equal(x.grad, [2.0, 2.0, 2.0])
        assert np.array_equal(seed, np.ones(3))

    def test_constants_receive_no_gradient(self):
        x = leaf(np.arange(4.0))
        c = Tensor(np.full(4, 2.0))
        (x * c + c).sum().backward()
        assert c.grad is None
        assert np.array_equal(x.grad, np.full(4, 2.0))

    def test_full_reductions_make_array_nodes(self):
        # ``ndarray.sum()`` and 1-d @ 1-d return NumPy scalars.
        x = leaf(np.arange(3.0))
        s, d = x.sum(), x @ x
        assert isinstance(s.data, np.ndarray) and isinstance(d.data, np.ndarray)
        (s + d).backward()
        assert np.array_equal(x.grad, 1.0 + 2.0 * np.arange(3.0))


# -- weak scalars: a float32 tensor stays float32 --------------------------------

SCALARS = [0.5, 2, np.float64(0.25), np.float32(1.5), np.sqrt(16.0), True,
           np.array(0.5), np.array(3, dtype=np.int64)]
BINARY = {
    "x*s": lambda x, s: x * s,
    "s*x": lambda x, s: s * x,
    "x+s": lambda x, s: x + s,
    "s+x": lambda x, s: s + x,
    "x-s": lambda x, s: x - s,
    "s-x": lambda x, s: s - x,
    "x/s": lambda x, s: x / s,
    "s/x": lambda x, s: s / x,
    "max": lambda x, s: x.maximum(s),
}


class TestScalarsAreWeak:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("scalar", SCALARS, ids=lambda s: type(s).__name__)
    @pytest.mark.parametrize("op", sorted(BINARY))
    def test_result_and_gradient_keep_the_tensors_dtype(self, op, scalar, dtype):
        xd = (np.arange(1.0, 7.0).reshape(2, 3)).astype(dtype)
        x = leaf(xd)
        y = BINARY[op](x, scalar)
        assert y.dtype == dtype
        # The value is the one NumPy gives with the scalar cast first.
        want = BINARY[op](Tensor(xd), Tensor(np.asarray(scalar, dtype=dtype))).data
        assert np.array_equal(y.data, want)
        y.sum().backward()
        assert x.grad.dtype == dtype and x.grad.shape == xd.shape

    def test_unary_and_reductions_on_float32(self):
        x = leaf(np.arange(1.0, 7.0, dtype=np.float32).reshape(2, 3))
        for y in (x.mean(), x.mean(axis=0), x.sum(), -x, x**2, x.sqrt(),
                  (1 - x) * 0.5 + 1, gelu(x), softmax(x)):
            assert y.dtype == np.float32

    def test_causal_attention_on_float32(self):
        qkv = leaf(draw_array(0, (2, 5, 24), np.float32))
        out = causal_attention(qkv, num_heads=2)
        assert out.dtype == np.float32
        out.sum().backward()
        assert qkv.grad.dtype == np.float32

    def test_as_tensor(self):
        assert as_tensor(3).dtype == np.float64  # no operand to take after
        assert as_tensor(3.0, np.float32).dtype == np.float32
        assert as_tensor(np.float32(3.0)).dtype == np.float64
        assert as_tensor(np.array(3.0), np.float32).dtype == np.float32  # 0-d: weak
        assert as_tensor(np.array(3.0, dtype=np.float32)).dtype == np.float64
        # Arrays of one or more dimensions are strong: they keep a float
        # dtype of their own.
        assert as_tensor(np.ones(2, dtype=np.float32)).dtype == np.float32
        assert as_tensor(np.ones(2, dtype=np.float32), np.float64).dtype == np.float32
        assert as_tensor([1, 2]).dtype == np.float64
        x = Tensor(np.ones(2, dtype=np.float32))
        assert (x + np.ones(2)).dtype == np.float64  # array operands promote
        assert (x + np.ones(2, dtype=np.float32)).dtype == np.float32


# -- mean over several axes ------------------------------------------------------


class TestMeanAxes:
    @pytest.mark.parametrize(
        "axis", [None, 0, -1, (0, 1), (-1, 0), (0, 1, 2), (1,), (-2, -1)]
    )
    @pytest.mark.parametrize("keepdims", [False, True])
    def test_value_and_gradient(self, axis, keepdims):
        xd = draw_array(0, (2, 3, 4), np.float64)
        x = leaf(xd)
        y = x.mean(axis=axis, keepdims=keepdims)
        want = xd.mean(axis=axis, keepdims=keepdims)
        assert y.shape == want.shape
        np.testing.assert_allclose(y.data, want, rtol=1e-15)
        y.sum().backward()
        np.testing.assert_allclose(x.grad, np.full(xd.shape, want.size / xd.size), rtol=1e-15)
