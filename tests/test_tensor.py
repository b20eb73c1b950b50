import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import softmax as scipy_softmax

from genderfuse.errors import ShapeError, TrainingError
from genderfuse.tensor import (
    Adam,
    BatchNormState,
    Tensor,
    _conv_same,
    _node,
    _pool_conv,
    add,
    batch_norm,
    concat,
    conv1d,
    dense,
    dropout,
    embedding_lookup,
    grad_check,
    l2_penalty,
    mul_const,
    relu,
    reshape,
    softmax_xent,
)


def t64(x, grad=True):
    return Tensor(np.asarray(x, dtype=np.float64), requires_grad=grad)


def tsum(x: Tensor) -> Tensor:
    """Sum of all elements as a scalar tensor."""

    def backward(g):
        if x.requires_grad:
            x.accumulate(np.full_like(x.data, float(g)))

    return _node(np.asarray(x.data.sum()), (x,), backward)


def weighted_sum(x: Tensor, rng) -> Tensor:
    # random projection to a scalar: more sensitive than a plain sum
    return tsum(mul_const(x, rng.standard_normal(x.data.shape)))


# ---------------------------------------------------------------------------
# brute-force oracles (independent of the library code paths)
# ---------------------------------------------------------------------------

def conv1d_oracle(x, f, b):
    w, c_in, c_out = f.shape
    n = x.shape[0]
    offset = (w - 1) // 2
    out = np.zeros((n, c_out))
    for t in range(n):
        for o in range(c_out):
            acc = b[o]
            for j in range(w):
                src = t + j - offset
                if 0 <= src < n:
                    for i in range(c_in):
                        acc += x[src, i] * f[j, i, o]
            out[t, o] = acc
    return out


def pool_oracle(x, valid_len):
    return np.array([max(x[t, j] for t in range(valid_len)) for j in range(x.shape[1])])


def pool(x: Tensor, valid_len) -> Tensor:
    """conv1d with a one-wide identity filter and zero bias: the masked max of x itself.

    Every product is x or zero and every sum adds zeros, so the pooled values
    are exact (a -0.0 in x reads as +0.0 after the bias).
    """
    c, dtype = x.data.shape[-1], x.data.dtype
    return conv1d(x, Tensor(np.eye(c, dtype=dtype)[None]), Tensor(np.zeros(c, dtype=dtype)),
                  valid_len)


# ---------------------------------------------------------------------------
# conv1d: the same-padding kernel, then the op that pools it
# ---------------------------------------------------------------------------

def test_conv_identity_filter_same():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((1, 6, 3))
    f = np.zeros((3, 3, 3))
    f[1] = np.eye(3)  # unit impulse at j = offset, identity channel map
    out = _conv_same(x, f, np.zeros(3))
    np.testing.assert_allclose(out, x, atol=1e-15)


def test_conv_matches_bruteforce_oracle():
    rng = np.random.default_rng(1)
    for _ in range(20):
        n = rng.integers(3, 9)
        w = rng.integers(1, min(n, 4) + 1)
        c_in = rng.integers(1, 5)
        c_out = rng.integers(1, 4)
        x = rng.standard_normal((n, c_in))
        f = rng.standard_normal((w, c_in, c_out))
        b = rng.standard_normal(c_out)
        got = _conv_same(x[None], f, b)
        want = conv1d_oracle(x, f, b)
        np.testing.assert_allclose(got[0], want, atol=1e-12)


def test_conv_batched_equals_per_row():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((4, 7, 3))
    f = rng.standard_normal((2, 3, 5))
    b = rng.standard_normal(5)
    lens = np.array([7, 1, 4, 6])
    got = _conv_same(x, f, b)
    pooled = conv1d(t64(x), t64(f), t64(b), lens)
    for r in range(4):
        row = _conv_same(x[r:r + 1], f, b)
        np.testing.assert_allclose(got[r], row[0], atol=1e-12)
        np.testing.assert_allclose(pooled.data[r], pool_oracle(row[0], lens[r]), atol=1e-12)


def test_kernels_reject_unbatched_input():
    with pytest.raises(ShapeError, match="input shape"):
        conv1d(t64(np.ones((4, 2))), t64(np.ones((3, 2, 1))), t64(np.zeros(1)), [4])
    with pytest.raises(ShapeError, match="lengths shape"):
        conv1d(t64(np.ones((1, 4, 2))), t64(np.ones((3, 2, 1))), t64(np.zeros(1)), 4)


def test_conv_gradients():
    rng = np.random.default_rng(3)
    x = t64(rng.standard_normal((1, 5, 3)))
    f = t64(rng.standard_normal((2, 3, 4)))
    b = t64(rng.standard_normal(4))
    proj = np.random.default_rng(4)

    def loss():
        return weighted_sum(conv1d(x, f, b, [5]), np.random.default_rng(9))

    errors = grad_check(loss, {"x": x, "f": f, "b": b}, rng=proj)
    assert max(errors.values()) < 1e-4, errors


def test_conv_batched_gradients():
    rng = np.random.default_rng(5)
    x = t64(rng.standard_normal((3, 6, 2)))
    f = t64(rng.standard_normal((3, 2, 4)))
    b = t64(rng.standard_normal(4))

    def loss():
        return weighted_sum(conv1d(x, f, b, [6, 2, 4]), np.random.default_rng(11))

    errors = grad_check(loss, {"x": x, "f": f, "b": b}, rng=np.random.default_rng(6))
    assert max(errors.values()) < 1e-4, errors


# ---------------------------------------------------------------------------
# conv1d's row blocks: a small CONV_BLOCK_BYTES forces many of them
# ---------------------------------------------------------------------------

# a short row after long ones, lengths 1 and n; every x value is nonzero,
# so a block cut without its right halo changes a valid step's sum
BLOCK_LENS = np.array([9, 2, 9, 1, 6, 8, 3, 5])
BLOCK_N, BLOCK_C_IN, BLOCK_C_OUT = 9, 3, 4


def block_budget(w: int, rows: int) -> int:
    """A budget of ``rows`` full-length float64 rows at width ``w`` (0 rows: 1 byte)."""
    return max(1, rows * BLOCK_N * (BLOCK_C_OUT + w * BLOCK_C_IN) * 8)


def block_inputs(w: int, seed: int = 30):
    rng = np.random.default_rng([seed, w])
    x = rng.standard_normal((len(BLOCK_LENS), BLOCK_N, BLOCK_C_IN))
    return x, rng.standard_normal((w, BLOCK_C_IN, BLOCK_C_OUT)), rng.standard_normal(BLOCK_C_OUT)


def first_max_steps(conv) -> list:
    """Per column of a (steps, c) array, the first step holding its max."""
    return [list(col).index(col.max()) for col in conv.T]


def record_conv_calls(monkeypatch) -> list:
    """Wrap ``tensor._conv_same`` to record the input of each call."""
    import genderfuse.tensor as tensor_mod
    calls = []

    def recording(x, filters, bias):
        calls.append(x)
        return _conv_same(x, filters, bias)

    monkeypatch.setattr(tensor_mod, "_conv_same", recording)
    return calls


@pytest.mark.parametrize("rows", [0, 1, 2, 3])
@pytest.mark.parametrize("w", [1, 2, 3, 4])
def test_conv1d_blocks_match_loop_oracles(monkeypatch, w, rows):
    import genderfuse.tensor as tensor_mod
    monkeypatch.setattr(tensor_mod, "CONV_BLOCK_BYTES", block_budget(w, rows))
    calls = record_conv_calls(monkeypatch)
    x, f, b = block_inputs(w)
    pooled, arg = _pool_conv(x, f, b, BLOCK_LENS, True)
    assert len(calls) > 1
    for r, n_valid in enumerate(BLOCK_LENS):
        conv = conv1d_oracle(x[r], f, b)[:n_valid]
        np.testing.assert_allclose(pooled[r], conv.max(axis=0), rtol=0, atol=1e-12)
        assert list(arg[r]) == first_max_steps(conv), r
    # conv1d returns the same max, and with no gradient computes no argmax
    np.testing.assert_array_equal(conv1d(Tensor(x), Tensor(f), Tensor(b), BLOCK_LENS).data,
                                  pooled)
    assert _pool_conv(x, f, b, BLOCK_LENS, False)[1] is None


@pytest.mark.parametrize("w", [1, 2, 3, 4])
def test_conv1d_blocks_gradients(monkeypatch, w):
    import genderfuse.tensor as tensor_mod
    monkeypatch.setattr(tensor_mod, "CONV_BLOCK_BYTES", block_budget(w, 2))
    calls = record_conv_calls(monkeypatch)
    xd, fd, bd = block_inputs(w, seed=31)
    x, f, b = t64(xd), t64(fd), t64(bd)

    def loss():
        return weighted_sum(conv1d(x, f, b, BLOCK_LENS), np.random.default_rng(19))

    loss()
    assert len(calls) > 1
    errors = grad_check(loss, {"x": x, "f": f, "b": b}, samples_per_tensor=0,
                        rng=np.random.default_rng(20))
    assert max(errors.values()) < 1e-4, errors


@pytest.mark.parametrize("rows", [0, 2, 3])
@pytest.mark.parametrize("w", [1, 2, 3, 4])
def test_conv1d_blocks_take_rows_longest_first_cut_to_their_halo(monkeypatch, w, rows):
    import genderfuse.tensor as tensor_mod
    monkeypatch.setattr(tensor_mod, "CONV_BLOCK_BYTES", block_budget(w, rows))
    calls = record_conv_calls(monkeypatch)
    x, f, b = block_inputs(w)
    _pool_conv(x, f, b, BLOCK_LENS, True)
    right = w - 1 - (w - 1) // 2
    order = np.argsort(-BLOCK_LENS, kind="stable")
    lo = 0
    for block in calls:
        k, steps = block.shape[:2]
        assert steps == min(BLOCK_N, BLOCK_LENS[order[lo]] + right)
        np.testing.assert_array_equal(block, x[order[lo:lo + k], :steps])
        fit = block_budget(w, rows) // (steps * (BLOCK_C_OUT + w * BLOCK_C_IN) * 8)
        assert k == min(max(1, fit), len(BLOCK_LENS) - lo)
        lo += k
    assert lo == len(BLOCK_LENS)


@pytest.mark.parametrize("w", [1, 2, 3, 4])
def test_conv1d_one_block_is_a_view_of_the_input(monkeypatch, w):
    # the whole batch fits the budget: x's own rows, in order, cut to the
    # longest row plus the right halo, and not copied
    calls = record_conv_calls(monkeypatch)
    x, f, b = block_inputs(w)
    lens = np.minimum(BLOCK_LENS, BLOCK_N - 3)
    _pool_conv(x, f, b, lens, True)
    assert len(calls) == 1
    right = w - 1 - (w - 1) // 2
    assert calls[0].shape == (len(lens), lens.max() + right, BLOCK_C_IN)
    assert np.shares_memory(calls[0], x)
    np.testing.assert_array_equal(calls[0], x[:, :lens.max() + right])


@pytest.mark.parametrize("w", [1, 2, 3, 4])
def test_conv1d_blocks_mask_a_nan_past_a_short_row(monkeypatch, w):
    # row 5 (length 2) shares its block with row 4 (length 5), so the block
    # runs past row 5's valid steps; a NaN that only those steps read stays
    # out of its max and its argmax, and a NaN in a valid step reaches the max
    import genderfuse.tensor as tensor_mod
    lens = np.array([9, 9, 8, 6, 5, 2, 1])
    monkeypatch.setattr(tensor_mod, "CONV_BLOCK_BYTES", block_budget(w, 2))
    calls = record_conv_calls(monkeypatch)
    x, f, b = block_inputs(w)
    x = x[:len(lens)]
    right = w - 1 - (w - 1) // 2
    x[5, 2 + right] = np.nan        # read only by row 5's steps from 2 on
    x[3, 0] = np.nan                # read by row 3's step 0
    pooled, arg = _pool_conv(x, f, b, lens, True)
    assert any(c.shape[0] > 1 and c.shape[1] > 2 + right and np.isnan(c).any() for c in calls)
    conv = conv1d_oracle(x[5], f, b)[:2]
    np.testing.assert_allclose(pooled[5], conv.max(axis=0), rtol=0, atol=1e-12)
    assert list(arg[5]) == first_max_steps(conv)
    assert np.isnan(pooled[3]).all()
    assert np.isfinite(np.delete(pooled, 3, axis=0)).all()


# ---------------------------------------------------------------------------
# embedding
# ---------------------------------------------------------------------------

def test_embedding_lookup_rows():
    table = t64([[1.0, 2.0], [3.0, 4.0]])
    out = embedding_lookup(table, [1, 0, 1])
    np.testing.assert_array_equal(out.data, [[3, 4], [1, 2], [3, 4]])


def test_embedding_empty_ids():
    table = t64(np.ones((4, 3)))
    out = embedding_lookup(table, np.zeros(0, dtype=int))
    assert out.data.shape == (0, 3)


def test_embedding_grad_is_row_count():
    table = t64([[1.0, 2.0], [3.0, 4.0]])
    tsum(embedding_lookup(table, [1, 0, 1])).backward()
    np.testing.assert_array_equal(table.grad, [[1, 1], [2, 2]])


def test_embedding_grad_matches_fd():
    rng = np.random.default_rng(7)
    table = t64(rng.standard_normal((5, 3)))
    ids = np.array([[0, 2], [4, 2]])

    def loss():
        return weighted_sum(embedding_lookup(table, ids), np.random.default_rng(13))

    errors = grad_check(loss, {"table": table}, rng=np.random.default_rng(8))
    assert max(errors.values()) < 1e-4, errors


@settings(max_examples=150, deadline=None)
@given(dtype=st.sampled_from([np.float32, np.float64]), data=st.data())
def test_embedding_backward_equals_add_at_bitwise(dtype, data):
    # ids repeat and hit PAD (0); g holds signed zeros; ids are 1-D or 2-D
    vocab = data.draw(st.integers(1, 12))
    shape = data.draw(st.sampled_from([(0,), (1,), (7,), (3, 4), (5, 9), (2, 1)]))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    d = data.draw(st.integers(1, 5))
    ids = rng.integers(0, vocab, size=shape)
    ids[rng.random(shape) < 0.25] = 0
    g = rng.standard_normal(shape + (d,)).astype(dtype)
    g[rng.random(g.shape) < 0.3] = -0.0
    g[rng.random(g.shape) < 0.1] = 0.0
    want = np.zeros((vocab, d), dtype=dtype)
    np.add.at(want, ids.ravel(), g.reshape(-1, d))
    table = Tensor(rng.standard_normal((vocab, d)).astype(dtype), requires_grad=True)
    embedding_lookup(table, ids)._backward(g)
    assert table.grad.dtype == want.dtype
    assert table.grad.tobytes() == want.tobytes()
    # into a gradient the table already holds: equal within rounding
    held = rng.standard_normal((vocab, d)).astype(dtype)
    table.grad = held.copy()
    embedding_lookup(table, ids)._backward(g)
    np.testing.assert_allclose(table.grad, held + want, rtol=1e-6, atol=1e-6)


def test_embedding_id_out_of_range():
    table = t64(np.ones((2, 2)))
    with pytest.raises(ShapeError, match="id 5 at flat position 1"):
        embedding_lookup(table, [0, 5])


# ---------------------------------------------------------------------------
# conv1d's max over time, through a one-wide identity filter (``pool``)
# ---------------------------------------------------------------------------

def test_pool_example_and_single_row():
    out = pool(t64([[[1.0, 5.0], [3.0, 2.0]]]), [2])
    np.testing.assert_array_equal(out.data, [[3, 5]])
    single = pool(t64([[[7.0, -2.0]]]), [1])
    np.testing.assert_array_equal(single.data, [[7, -2]])


def test_pool_respects_valid_len():
    rng = np.random.default_rng(9)
    x = rng.standard_normal((6, 4))
    out = pool(t64(x[None]), [3])
    np.testing.assert_allclose(out.data[0], pool_oracle(x, 3))


def test_pool_zero_len_rejected():
    with pytest.raises(ShapeError, match="valid_len"):
        pool(t64(np.ones((1, 2, 2))), [0])
    with pytest.raises(ShapeError, match="valid_len"):
        pool(t64(np.ones((1, 2, 2))), [3])


def test_pool_tie_routes_gradient_to_first_row():
    x = t64([[[2.0, 0.0], [2.0, 0.0]]])
    tsum(pool(x, [2])).backward()
    np.testing.assert_array_equal(x.grad, [[[1, 1], [0, 0]]])


def test_pool_batched_matches_per_row():
    rng = np.random.default_rng(10)
    x = rng.standard_normal((3, 5, 2))
    lens = np.array([5, 1, 3])
    got = pool(t64(x), lens)
    for r in range(3):
        np.testing.assert_allclose(got.data[r], pool_oracle(x[r], lens[r]))


def test_pool_gradients():
    rng = np.random.default_rng(11)
    x = t64(rng.standard_normal((3, 6, 4)))
    lens = np.array([6, 2, 4])

    def loss():
        return weighted_sum(pool(x, lens), np.random.default_rng(17))

    errors = grad_check(loss, {"x": x}, rng=np.random.default_rng(12))
    assert max(errors.values()) < 1e-4, errors


_POOL_VALUES = (-3.0, -1.0, -0.5, -0.0, 0.0, 0.5, 1.0, 2.0)


@settings(max_examples=200, deadline=None)
@given(dtype=st.sampled_from([np.float32, np.float64]), data=st.data())
def test_relu_after_pool_equals_pool_after_relu(dtype, data):
    # ReLU is monotone, so relu(max_t x) is max_t relu(x) bit for bit; the
    # model applies the cheap order, tests/test_model.py::char_layer the other
    b = data.draw(st.integers(3, 5), label="b")
    n = data.draw(st.integers(1, 6), label="n")
    c = data.draw(st.integers(1, 4), label="c")
    values = st.sampled_from(_POOL_VALUES)     # ties, exact zeros and -0.0
    x = np.array(data.draw(st.lists(values, min_size=b * n * c, max_size=b * n * c),
                           label="x"), dtype=dtype).reshape(b, n, c)
    x[1] = -np.abs(x[1]) - 0.25                # an all-negative row
    lens = np.array(data.draw(st.lists(st.integers(1, n), min_size=b, max_size=b),
                              label="lens"))
    lens[0], lens[-1] = n, 1
    if n > 1:
        x[-1, -1] = 9.0                        # global max in the padded tail
    w = np.array(data.draw(st.lists(values, min_size=b * c, max_size=b * c), label="w"),
                 dtype=dtype).reshape(b, c)
    # optionally a second consumer of x, whose closure the sweep runs first:
    # the pooling backward then adds into a gradient x already holds
    v = data.draw(st.none() | st.lists(values, min_size=b * n * c, max_size=b * n * c),
                  label="v")
    v = None if v is None else np.array(v, dtype=dtype).reshape(b, n, c)

    def run(order):
        xt = Tensor(x.copy(), requires_grad=True)
        out = order(xt)
        loss = tsum(mul_const(out, w))
        if v is not None:
            loss = add(tsum(mul_const(xt, v)), loss)
        loss.backward()
        return out.data, xt.grad

    new, g_new = run(lambda xt: relu(pool(xt, lens)))
    old, g_old = run(lambda xt: pool(relu(xt), lens))
    assert new.dtype == old.dtype == dtype
    assert new.tobytes() == old.tobytes()
    assert np.array_equal(g_new, g_old)
    # signed zeros may differ, only where no valid step is positive
    raw_max = pool(Tensor(x), lens).data
    differs = np.signbit(g_new) != np.signbit(g_old)
    assert not (differs & (raw_max > 0)[:, None, :]).any()
    # and both route to the first maximal valid step
    want = np.zeros_like(x)
    for r in range(b):
        for j in range(c):
            col = list(x[r, :lens[r], j])
            if max(col) > 0:
                want[r, col.index(max(col)), j] = w[r, j]
    assert np.array_equal(g_new, want if v is None else v + want)


def assert_pooling_adds_no_masked_copy(monkeypatch, c_in: int, blocks: int) -> None:
    """Bound what conv1d allocates after each block's convolution returns.

    Until the next block's convolution starts, the pooling adds less than a
    tenth of the block's output, and in training the argmax adds only its
    two bool masks (a quarter each); a masked float copy would add 1x.  The
    rows have lengths 500, 1, 37, 250, 499, 500, 3, 120 and go through a
    one-wide (c_in -> 256) identity filter.
    """
    import genderfuse.tensor as tensor_mod

    rng = np.random.default_rng(23)
    data = rng.standard_normal((8, 500, c_in)).astype(np.float32)
    lens = np.array([500, 1, 37, 250, 499, 500, 3, 120])
    f = Tensor(np.eye(c_in, 256, dtype=np.float32)[None])
    b = Tensor(np.zeros(256, dtype=np.float32))
    segments = []   # [conv output bytes, current bytes after it returned, peak after]

    def close_segment():
        if segments:
            segments[-1][2] = tracemalloc.get_traced_memory()[1]

    def conv_then_reset(*args):
        close_segment()
        out = _conv_same(*args)
        tracemalloc.reset_peak()
        segments.append([out.nbytes, tracemalloc.get_traced_memory()[0], None])
        return out

    monkeypatch.setattr(tensor_mod, "_conv_same", conv_then_reset)
    for grad, masks in ((False, 0.0), (True, 0.5)):
        x = Tensor(data, requires_grad=grad)
        segments.clear()
        tracemalloc.start()
        try:
            conv1d(x, f, b, lens)
            close_segment()
        finally:
            tracemalloc.stop()
        assert len(segments) == blocks
        for out_bytes, after_conv, peak in segments:
            added = peak - after_conv
            assert added < (masks + 0.1) * out_bytes, (grad, added / out_bytes)


def test_pool_forward_allocates_no_masked_copy(monkeypatch):
    # the whole batch is one block, a view of the input
    assert_pooling_adds_no_masked_copy(monkeypatch, c_in=256, blocks=1)


def test_pool_forward_allocates_no_masked_copy_in_any_block(monkeypatch):
    # a budget of two 500-step rows makes three blocks: rows of lengths
    # 500, 500 | 499, 250 | 120, 37, 3, 1.  Each block's rows are a copy
    # that dies once its convolution returns, and that freeing would hide
    # a masked copy of the same size, so the input is 16 channels wide,
    # 1/16 of the output.
    import genderfuse.tensor as tensor_mod
    monkeypatch.setattr(tensor_mod, "CONV_BLOCK_BYTES", 2 * 500 * (256 + 16) * 4)
    assert_pooling_adds_no_masked_copy(monkeypatch, c_in=16, blocks=3)


# ---------------------------------------------------------------------------
# batch norm
# ---------------------------------------------------------------------------

def _bn_params(f):
    return t64(np.ones(f)), t64(np.zeros(f)), BatchNormState.fresh(f, dtype=np.float64)


def test_bn_symmetric_column():
    gamma, beta, state = _bn_params(1)
    out = batch_norm(t64([[-1.0], [1.0]]), gamma, beta, state, mode="train")
    expect = 1.0 / np.sqrt(1.0 + 1e-5)
    np.testing.assert_allclose(out.data[:, 0], [-expect, expect], rtol=1e-12)


def test_bn_constant_column_near_zero():
    gamma, beta, state = _bn_params(1)
    out = batch_norm(t64([[3.0], [3.0], [3.0]]), gamma, beta, state, mode="train")
    np.testing.assert_allclose(out.data, 0.0, atol=1e-9)


def test_bn_normalizes_batch():
    rng = np.random.default_rng(13)
    gamma, beta, state = _bn_params(5)
    x = rng.standard_normal((16, 5)) * 2.0 + 1.0
    out = batch_norm(t64(x), gamma, beta, state, mode="train")
    assert np.all(np.abs(out.data.mean(axis=0)) < 1e-6)
    assert np.all(np.abs(out.data.var(axis=0) - 1.0) < 1e-4)


def test_bn_updates_running_stats_with_momentum():
    gamma, beta, state = _bn_params(2)
    x = np.array([[1.0, 10.0], [3.0, 14.0]])
    batch_norm(t64(x), gamma, beta, state, mode="train")
    np.testing.assert_allclose(state.mean, 0.1 * np.array([2.0, 12.0]))
    np.testing.assert_allclose(state.var, 0.9 * 1.0 + 0.1 * np.array([1.0, 4.0]))


def test_bn_eval_uses_running_stats():
    gamma, beta, state = _bn_params(2)
    state.mean[:] = [1.0, 2.0]
    state.var[:] = [4.0, 9.0]
    out = batch_norm(t64([[3.0, 5.0]]), gamma, beta, state, mode="eval")
    np.testing.assert_allclose(out.data, [[2.0 / np.sqrt(4 + 1e-5), 3.0 / np.sqrt(9 + 1e-5)]])


def test_bn_train_needs_two_rows():
    gamma, beta, state = _bn_params(2)
    with pytest.raises(ShapeError, match="batch >= 2"):
        batch_norm(t64(np.ones((1, 2))), gamma, beta, state, mode="train")


@pytest.mark.parametrize("mode", ["train", "eval"])
def test_bn_gradients(mode):
    rng = np.random.default_rng(14)
    x = t64(rng.standard_normal((6, 3)))
    gamma = t64(rng.standard_normal(3))
    beta = t64(rng.standard_normal(3))
    state = BatchNormState.fresh(3, dtype=np.float64)
    state.mean[:] = rng.standard_normal(3)
    state.var[:] = 0.5 + rng.random(3)

    def loss():
        out = batch_norm(x, gamma, beta, state, mode=mode)
        return weighted_sum(out, np.random.default_rng(19))

    errors = grad_check(loss, {"x": x, "gamma": gamma, "beta": beta},
                        rng=np.random.default_rng(15))
    assert max(errors.values()) < 1e-4, errors


# ---------------------------------------------------------------------------
# dropout
# ---------------------------------------------------------------------------

def test_dropout_preserves_mean():
    x = t64(np.ones(100_000))
    out = dropout(x, 0.2, np.random.default_rng(16))
    # per-element variance of inverted dropout at rate r is r/(1-r) = 0.25
    sigma_mean = 0.5 / np.sqrt(100_000)
    assert abs(out.data.mean() - 1.0) < 3 * sigma_mean
    kept = out.data != 0
    assert np.allclose(out.data[kept], 1.25)


def test_dropout_bad_rate():
    x = t64(np.ones(3))
    with pytest.raises(ValueError):
        dropout(x, 1.0, np.random.default_rng(0))
    with pytest.raises(ValueError):
        dropout(x, -0.1, np.random.default_rng(0))
    with pytest.raises(ValueError, match="rng"):
        dropout(x, 0.2, None)


def test_dropout_gradients_with_fixed_mask():
    x = t64(np.random.default_rng(17).standard_normal((4, 5)))

    def loss():
        out = dropout(x, 0.4, np.random.default_rng(23))
        return weighted_sum(out, np.random.default_rng(29))

    errors = grad_check(loss, {"x": x}, rng=np.random.default_rng(18))
    assert max(errors.values()) < 1e-4, errors


# ---------------------------------------------------------------------------
# dense / relu
# ---------------------------------------------------------------------------

def test_dense_identity():
    x = t64(np.arange(6, dtype=float).reshape(2, 3))
    w = t64(np.eye(3))
    b = t64(np.zeros(3))
    np.testing.assert_array_equal(dense(x, w, b).data, x.data)


def test_relu_values():
    out = relu(t64([[-2.0, 3.0]]))
    np.testing.assert_array_equal(out.data, [[0.0, 3.0]])


def test_dense_shape_error_names_both_shapes():
    with pytest.raises(ShapeError, match=r"\(2, 3\).*\(4, 5\)"):
        dense(t64(np.ones((2, 3))), t64(np.ones((4, 5))), t64(np.zeros(5)))


def test_dense_relu_gradients():
    rng = np.random.default_rng(19)
    x = t64(rng.standard_normal((4, 3)))
    w = t64(rng.standard_normal((3, 6)))
    b = t64(rng.standard_normal(6))

    def loss():
        return weighted_sum(relu(dense(x, w, b)), np.random.default_rng(31))

    errors = grad_check(loss, {"x": x, "w": w, "b": b}, rng=np.random.default_rng(20))
    assert max(errors.values()) < 1e-4, errors


# ---------------------------------------------------------------------------
# softmax cross-entropy
# ---------------------------------------------------------------------------

def test_softmax_uniform():
    loss, probs = softmax_xent(t64([[0.0, 0.0]]), [0])
    np.testing.assert_allclose(probs, [[0.5, 0.5]])
    assert float(loss.data) == pytest.approx(np.log(2))


def test_softmax_extreme_logits_stable():
    loss, probs = softmax_xent(t64([[1000.0, 0.0]]), [0])
    assert np.isfinite(probs).all()
    assert float(loss.data) == pytest.approx(0.0, abs=1e-9)


def test_softmax_matches_scipy():
    rng = np.random.default_rng(21)
    logits = rng.standard_normal((8, 4))
    _, probs = softmax_xent(t64(logits), rng.integers(0, 4, size=8))
    np.testing.assert_allclose(probs, scipy_softmax(logits, axis=1), atol=1e-12)
    np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-9)
    assert probs.min() >= 0 and probs.max() <= 1


def test_softmax_label_out_of_range():
    with pytest.raises(ShapeError, match="label 7 at row 1"):
        softmax_xent(t64(np.zeros((2, 3))), [0, 7])


def test_softmax_gradient_is_probs_minus_onehot_over_batch():
    rng = np.random.default_rng(22)
    logits = t64(rng.standard_normal((5, 3)))
    labels = np.array([0, 2, 1, 1, 0])
    loss, probs = softmax_xent(logits, labels)
    loss.backward()
    onehot = np.zeros((5, 3))
    onehot[np.arange(5), labels] = 1.0
    np.testing.assert_allclose(logits.grad, (probs - onehot) / 5, atol=1e-12)


def test_softmax_gradient_matches_fd():
    rng = np.random.default_rng(23)
    logits = t64(rng.standard_normal((4, 3)))
    labels = [2, 0, 1, 2]

    def loss():
        return softmax_xent(logits, labels)[0]

    errors = grad_check(loss, {"logits": logits}, rng=np.random.default_rng(24))
    assert max(errors.values()) < 1e-4, errors


# ---------------------------------------------------------------------------
# l2 penalty
# ---------------------------------------------------------------------------

def test_l2_values():
    w = t64([3.0])
    assert float(l2_penalty([w], 0.0).data) == 0.0
    assert float(l2_penalty([w], 1e-5).data) == pytest.approx(9e-5)


def test_l2_gradient_is_2_lambda_w():
    w = t64([3.0, -2.0])
    l2_penalty([w], 0.5).backward()
    np.testing.assert_allclose(w.grad, [2 * 0.5 * 3.0, 2 * 0.5 * (-2.0)])

    def loss():
        return l2_penalty([w], 0.5)

    errors = grad_check(loss, {"w": w}, rng=np.random.default_rng(25))
    assert max(errors.values()) < 1e-4, errors


# ---------------------------------------------------------------------------
# optimizers
# ---------------------------------------------------------------------------

def test_adam_first_step_magnitude():
    w = t64([5.0])
    opt = Adam({"w": w}, lr=1e-3)
    w.grad = np.array([0.37])
    opt.step()
    # t=1: mhat = g, vhat = g^2, so |delta| = lr*|g|/(|g|+eps) ~= lr
    assert abs(5.0 - w.data[0]) == pytest.approx(1e-3, rel=1e-6)


def test_adam_zero_or_missing_grad_leaves_params():
    w = t64([1.0, 2.0])
    opt = Adam({"w": w})
    opt.step()  # no grad at all
    np.testing.assert_array_equal(w.data, [1.0, 2.0])
    w.grad = np.zeros(2)
    opt.step()
    np.testing.assert_array_equal(w.data, [1.0, 2.0])


def test_adam_deterministic_trajectories():
    def run():
        rng = np.random.default_rng(26)
        w = t64(rng.standard_normal(4))
        opt = Adam({"w": w}, lr=0.01)
        for _ in range(25):
            opt.zero_grad()
            tsum(l2_penalty([w], 1.0)).backward()
            opt.step()
        return w.data.copy()

    a, b = run(), run()
    np.testing.assert_array_equal(a, b)


def test_adam_rejects_nonfinite_grad():
    w = t64([1.0])
    opt = Adam({"wobble": w})
    w.grad = np.array([np.nan])
    with pytest.raises(TrainingError, match="wobble"):
        opt.step()


def test_adam_converges_on_quadratic():
    w = t64([4.0])
    opt = Adam({"w": w}, lr=0.1)
    for _ in range(300):
        opt.zero_grad()
        l2_penalty([w], 1.0).backward()
        opt.step()
    assert abs(w.data[0]) < 1e-3


# ---------------------------------------------------------------------------
# grad_check harness itself
# ---------------------------------------------------------------------------

def test_grad_check_quadratic():
    w = t64([3.0])
    errors = grad_check(lambda: l2_penalty([w], 1.0), {"w": w},
                        rng=np.random.default_rng(27))
    assert max(errors.values()) < 1e-10, errors


def test_grad_check_flags_corrupted_gradient():
    w = t64([3.0])

    def bad_square(x):
        from genderfuse.tensor import _node

        def backward(g):
            x.accumulate(g * 2.2 * x.data)  # 10% too large on purpose

        return _node(np.asarray((x.data ** 2).sum()), (x,), backward)

    errors = grad_check(lambda: bad_square(w), {"w": w}, rng=np.random.default_rng(28))
    assert errors["w"] > 1e-4, errors


def test_grad_check_retries_a_step_across_a_kink():
    # at step 1e-5 the difference straddles relu's kink (slope 0.75, not 1);
    # the retry at 1e-6 stays on one side
    x = t64([5e-6, 1.0, 2.0])
    calls = []

    def loss():
        calls.append(1)
        return tsum(relu(x))

    errors = grad_check(loss, {"x": x}, samples_per_tensor=0, h=1e-5,
                        rng=np.random.default_rng(31))
    # one analytic pass, then both sides of 3 steps at each of the 3 coordinates
    assert len(calls) == 1 + 3 * 3 * 2
    assert max(errors.values()) < 1e-4, errors


# ---------------------------------------------------------------------------
# structural ops and the tape
# ---------------------------------------------------------------------------

def test_concat_reshape_add_gradients():
    rng = np.random.default_rng(29)
    a = t64(rng.standard_normal((2, 3)))
    b = t64(rng.standard_normal((2, 5)))

    def loss():
        joined = concat([a, b], axis=-1)
        flat = reshape(joined, (16,))
        return add(tsum(flat), tsum(mul_const(a, 2.0)))

    errors = grad_check(loss, {"a": a, "b": b}, rng=np.random.default_rng(30))
    assert max(errors.values()) < 1e-4, errors


def test_backward_requires_scalar():
    x = t64(np.ones((2, 2)))
    with pytest.raises(ShapeError, match="scalar"):
        relu(x).backward()


def test_backward_frees_interior_nodes_and_keeps_leaf_gradients():
    # the sweep consumes the graph; the leaves' gradients still match
    # central differences of the nested-loop conv and pooling oracles
    rng = np.random.default_rng(31)
    x = t64(rng.standard_normal((2, 5, 3)))
    f = t64(rng.standard_normal((3, 3, 4)))
    b = t64(rng.standard_normal(4))
    lens = np.array([5, 3])
    wts = rng.standard_normal((2, 4))
    pooled = conv1d(x, f, b, lens)
    loss = tsum(mul_const(pooled, wts))
    loss.backward()
    for node in (pooled, loss):
        assert node.grad is None and node._backward is None and node._parents == ()

    def oracle_loss():
        return sum(float(wts[r] @ pool_oracle(conv1d_oracle(x.data[r], f.data, b.data),
                                              lens[r]))
                   for r in range(2))

    for leaf in (x, f, b):
        flat = leaf.data.reshape(-1)
        numeric = np.empty_like(flat)
        for c in range(flat.size):
            orig = flat[c]
            flat[c] = orig + 1e-6
            up = oracle_loss()
            flat[c] = orig - 1e-6
            numeric[c] = (up - oracle_loss()) / 2e-6
            flat[c] = orig
        np.testing.assert_allclose(leaf.grad.reshape(-1), numeric, atol=1e-6)


def test_shared_node_accumulates_both_paths():
    x = t64([2.0])
    # y = sum(x) + sum(x) -> dy/dx = 2
    add(tsum(x), tsum(x)).backward()
    np.testing.assert_array_equal(x.grad, [2.0])


def test_float32_training_path_keeps_dtype():
    x = Tensor(np.ones((2, 2), dtype=np.float32), requires_grad=True)
    w = Tensor(np.eye(2, dtype=np.float32), requires_grad=True)
    b = Tensor(np.zeros(2, dtype=np.float32), requires_grad=True)
    out = dense(x, w, b)
    assert out.data.dtype == np.float32
    tsum(out).backward()
    assert x.grad.dtype == np.float32
