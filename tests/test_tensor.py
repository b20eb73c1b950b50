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
    _node,
    add,
    batch_norm,
    concat,
    conv1d,
    dense,
    dropout,
    embedding_lookup,
    grad_check,
    l2_penalty,
    max_over_time,
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

def conv1d_oracle(x, f, b, padding):
    w, c_in, c_out = f.shape
    n = x.shape[0]
    offset = (w - 1) // 2 if padding == "same" else 0
    m = n if padding == "same" else n - w + 1
    out = np.zeros((m, c_out))
    for t in range(m):
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


# ---------------------------------------------------------------------------
# conv1d
# ---------------------------------------------------------------------------

def test_conv_all_ones_valid():
    x = t64(np.ones((1, 3, 2)))
    f = t64(np.ones((3, 2, 1)))
    out = conv1d(x, f, t64(np.zeros(1)), padding="valid")
    assert out.data.shape == (1, 1, 1)
    assert out.data[0, 0, 0] == pytest.approx(6.0)


def test_conv_identity_filter_same():
    rng = np.random.default_rng(0)
    x = t64(rng.standard_normal((1, 6, 3)))
    f = np.zeros((3, 3, 3))
    f[1] = np.eye(3)  # unit impulse at j = offset, identity channel map
    out = conv1d(x, t64(f), t64(np.zeros(3)), padding="same")
    np.testing.assert_allclose(out.data, x.data, atol=1e-15)


@pytest.mark.parametrize("padding", ["same", "valid"])
def test_conv_matches_bruteforce_oracle(padding):
    rng = np.random.default_rng(1)
    for _ in range(20):
        n = rng.integers(3, 9)
        w = rng.integers(1, min(n, 4) + 1)
        c_in = rng.integers(1, 5)
        c_out = rng.integers(1, 4)
        x = rng.standard_normal((n, c_in))
        f = rng.standard_normal((w, c_in, c_out))
        b = rng.standard_normal(c_out)
        got = conv1d(t64(x[None]), t64(f), t64(b), padding=padding)
        want = conv1d_oracle(x, f, b, padding)
        np.testing.assert_allclose(got.data[0], want, atol=1e-12)


def test_conv_batched_equals_per_row():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((4, 7, 3))
    f = t64(rng.standard_normal((2, 3, 5)))
    b = t64(rng.standard_normal(5))
    got = conv1d(t64(x), f, b, padding="same")
    for r in range(4):
        row = conv1d(t64(x[r:r + 1]), f, b, padding="same")
        np.testing.assert_allclose(got.data[r], row.data[0], atol=1e-12)


def test_conv_valid_too_short():
    with pytest.raises(ShapeError, match="length 2"):
        conv1d(t64(np.ones((1, 2, 1))), t64(np.ones((3, 1, 1))), t64(np.zeros(1)),
               padding="valid")


def test_kernels_reject_unbatched_input():
    with pytest.raises(ShapeError, match="input shape"):
        conv1d(t64(np.ones((4, 2))), t64(np.ones((3, 2, 1))), t64(np.zeros(1)))
    with pytest.raises(ShapeError, match="batch, time, channels"):
        max_over_time(t64(np.ones((4, 2))), 4)


def test_conv_gradients():
    rng = np.random.default_rng(3)
    x = t64(rng.standard_normal((1, 5, 3)))
    f = t64(rng.standard_normal((2, 3, 4)))
    b = t64(rng.standard_normal(4))
    proj = np.random.default_rng(4)

    def loss():
        return weighted_sum(conv1d(x, f, b, padding="same"), np.random.default_rng(9))

    errors = grad_check(loss, {"x": x, "f": f, "b": b}, rng=proj)
    assert max(errors.values()) < 1e-4, errors


def test_conv_batched_gradients():
    rng = np.random.default_rng(5)
    x = t64(rng.standard_normal((3, 6, 2)))
    f = t64(rng.standard_normal((3, 2, 4)))
    b = t64(rng.standard_normal(4))

    def loss():
        return weighted_sum(conv1d(x, f, b, padding="valid"), np.random.default_rng(11))

    errors = grad_check(loss, {"x": x, "f": f, "b": b}, rng=np.random.default_rng(6))
    assert max(errors.values()) < 1e-4, errors


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


def test_embedding_id_out_of_range():
    table = t64(np.ones((2, 2)))
    with pytest.raises(ShapeError, match="id 5 at flat position 1"):
        embedding_lookup(table, [0, 5])


# ---------------------------------------------------------------------------
# max_over_time
# ---------------------------------------------------------------------------

def test_pool_example_and_single_row():
    out = max_over_time(t64([[[1.0, 5.0], [3.0, 2.0]]]), [2])
    np.testing.assert_array_equal(out.data, [[3, 5]])
    single = max_over_time(t64([[[7.0, -2.0]]]), [1])
    np.testing.assert_array_equal(single.data, [[7, -2]])


def test_pool_respects_valid_len():
    rng = np.random.default_rng(9)
    x = rng.standard_normal((6, 4))
    out = max_over_time(t64(x[None]), [3])
    np.testing.assert_allclose(out.data[0], pool_oracle(x, 3))


def test_pool_zero_len_rejected():
    with pytest.raises(ShapeError, match="valid_len"):
        max_over_time(t64(np.ones((1, 2, 2))), [0])


def test_pool_tie_routes_gradient_to_first_row():
    x = t64([[[2.0, 0.0], [2.0, 0.0]]])
    tsum(max_over_time(x, [2])).backward()
    np.testing.assert_array_equal(x.grad, [[[1, 1], [0, 0]]])


def test_pool_batched_matches_per_row():
    rng = np.random.default_rng(10)
    x = rng.standard_normal((3, 5, 2))
    lens = np.array([5, 1, 3])
    got = max_over_time(t64(x), lens)
    for r in range(3):
        np.testing.assert_allclose(got.data[r], pool_oracle(x[r], lens[r]))


def test_pool_gradients():
    rng = np.random.default_rng(11)
    x = t64(rng.standard_normal((3, 6, 4)))
    lens = np.array([6, 2, 4])

    def loss():
        return weighted_sum(max_over_time(x, lens), np.random.default_rng(17))

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

    def run(order):
        xt = Tensor(x.copy(), requires_grad=True)
        out = order(xt)
        tsum(mul_const(out, w)).backward()
        return out.data, xt.grad

    new, g_new = run(lambda xt: relu(max_over_time(xt, lens)))
    old, g_old = run(lambda xt: max_over_time(relu(xt), lens))
    assert new.dtype == old.dtype == dtype
    assert new.tobytes() == old.tobytes()
    assert np.array_equal(g_new, g_old)
    # signed zeros may differ, only where no valid step is positive
    raw_max = max_over_time(Tensor(x), lens).data
    differs = np.signbit(g_new) != np.signbit(g_old)
    assert not (differs & (raw_max > 0)[:, None, :]).any()
    # and both route to the first maximal valid step
    want = np.zeros_like(x)
    for r in range(b):
        for j in range(c):
            col = list(x[r, :lens[r], j])
            if max(col) > 0:
                want[r, col.index(max(col)), j] = w[r, j]
    assert np.array_equal(g_new, want)


def test_pool_forward_allocates_no_masked_copy():
    rng = np.random.default_rng(23)
    x = Tensor(rng.standard_normal((8, 500, 256)).astype(np.float32), requires_grad=True)
    lens = np.array([500, 1, 37, 250, 499, 500, 3, 120])
    tracemalloc.start()
    try:
        max_over_time(x, lens)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.1 * x.data.nbytes


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
