"""Forward/backward correctness of the small ReLU network, evaluated on
parameters stacked on a leading trial axis (a single model is n = 1)."""

import numpy as np
import pytest

from adaterm.mlp import MlpModel, backward, forward, mse_loss, stack_parameters
from adaterm.rng import make_rng


def test_single_linear_layer_exact():
    model = MlpModel((2, 1), make_rng(0))
    model.weights[0][:] = [[2.0], [-1.0]]
    model.biases[0][:] = [0.5]
    x = np.array([[[1.0, 3.0], [0.0, -2.0]]])
    y, _, _ = forward(*stack_parameters([model]), x)
    np.testing.assert_array_equal(y, [[[2.0 - 3.0 + 0.5], [2.0 + 0.5]]])


def test_empty_model_is_identity():
    Ws, Bs = stack_parameters([MlpModel((3,))])
    x = np.arange(6.0).reshape(1, 2, 3)
    y, inputs, masks = forward(Ws, Bs, x)
    assert np.array_equal(y, x)
    assert backward(Ws, inputs, masks, np.ones_like(x)) == ([], [])


def test_he_uniform_bounds_and_zero_biases():
    model = MlpModel((1, 8, 8, 1), make_rng(3))
    for w, fan_in in zip(model.weights, (1, 8, 8)):
        limit = np.sqrt(6.0 / fan_in)
        assert np.abs(w).max() <= limit
        assert np.abs(w).max() > 0.5 * limit  # actually spread out
    for b in model.biases:
        assert np.all(b == 0.0)


def test_rng_required_for_nonempty_model():
    with pytest.raises(ValueError, match="rng"):
        MlpModel((1, 4, 1))


@pytest.mark.parametrize("bad", [(0, 3), (2, -1), ()])
def test_layer_size_validation(bad):
    with pytest.raises(ValueError):
        MlpModel(bad, make_rng(0))


def test_forward_input_validation():
    Ws, Bs = stack_parameters([MlpModel((2, 3, 1), make_rng(0))])
    with pytest.raises(ValueError):
        forward(Ws, Bs, np.zeros((4, 2)))  # no trial axis
    with pytest.raises(ValueError):
        forward(Ws, Bs, np.zeros((1, 4, 3)))  # wrong feature count


def test_gradients_match_finite_differences():
    models = [MlpModel((2, 6, 5, 1), make_rng(s)) for s in (1, 3)]
    Ws, Bs = stack_parameters(models)
    x = make_rng(2).uniform(-1.0, 1.0, size=(2, 7, 2))
    y = np.sin(x[..., :1] + x[..., 1:])

    def loss_values():
        return mse_loss(forward(Ws, Bs, x)[0], y)[0]

    y_hat, inputs, masks = forward(Ws, Bs, x)
    _, delta = mse_loss(y_hat, y)
    gWs, gBs = backward(Ws, inputs, masks, delta)

    h = 1e-6
    for arr, grad in zip(Ws + Bs, gWs + gBs):
        it = np.nditer(arr, flags=["multi_index"])
        for _ in it:
            i = it.multi_index
            keep = arr[i]
            arr[i] = keep + h
            up = loss_values()
            arr[i] = keep - h
            down = loss_values()
            arr[i] = keep
            # Only trial i[0]'s loss depends on this parameter.
            fd = (up - down) / (2.0 * h)
            assert abs(fd[i[0]] - grad[i]) <= 1e-5 * max(1.0, abs(grad[i]))
            assert np.all(fd[np.arange(2) != i[0]] == 0.0)


def test_batch_loss_gradient_is_mean_scaled():
    # Doubling the batch by duplication halves per-element loss gradients
    # but leaves parameter gradients unchanged (mean loss).
    Ws, Bs = stack_parameters([MlpModel((1, 4, 1), make_rng(5))])
    x = np.array([[[0.2], [0.8]]])
    y = np.array([[[0.1], [0.9]]])
    y1, in1, m1 = forward(Ws, Bs, x)
    g1 = backward(Ws, in1, m1, mse_loss(y1, y)[1])
    x2 = np.concatenate([x, x], axis=1)
    y2t = np.concatenate([y, y], axis=1)
    y2, in2, m2 = forward(Ws, Bs, x2)
    g2 = backward(Ws, in2, m2, mse_loss(y2, y2t)[1])
    for a, b in zip(g1[0] + g1[1], g2[0] + g2[1]):
        np.testing.assert_allclose(a, b, rtol=1e-12)


def test_relu_blocks_gradient_at_zero():
    model = MlpModel((1, 1, 1), make_rng(0))
    model.weights[0][:] = [[1.0]]
    model.biases[0][:] = [-0.5]
    model.weights[1][:] = [[3.0]]
    model.biases[1][:] = [0.0]
    Ws, Bs = stack_parameters([model])
    x = np.array([[[0.5]]])  # pre-activation exactly 0
    y, inputs, masks = forward(Ws, Bs, x)
    assert y[0, 0, 0] == 0.0
    gWs, _ = backward(Ws, inputs, masks, np.ones((1, 1, 1)))
    assert gWs[0][0, 0, 0] == 0.0  # no flow through the dead unit
    assert gWs[1][0, 0, 0] == 0.0  # second-layer weight sees a zero input


def test_tape_depth_mismatch_detected():
    shallow = stack_parameters([MlpModel((1, 3), make_rng(0))])
    Ws_deep, _ = stack_parameters([MlpModel((1, 3, 1), make_rng(0))])
    _, inputs, masks = forward(*shallow, np.zeros((1, 2, 1)))
    with pytest.raises(ValueError, match="depth"):
        backward(Ws_deep, inputs, masks, np.zeros((1, 2, 3)))


def test_mse_hand_values():
    # Two trials of two outputs each; the loss and its gradient are per trial.
    loss, grad = mse_loss(
        np.array([[[1.0], [0.0]], [[2.0], [2.0]]]),
        np.array([[[0.0], [1.0]], [[0.0], [2.0]]]),
    )
    np.testing.assert_array_equal(loss, [1.0, 2.0])
    np.testing.assert_array_equal(grad, [[[1.0], [-1.0]], [[2.0], [0.0]]])


def test_mse_shape_mismatch():
    with pytest.raises(ValueError):
        mse_loss(np.zeros((1, 2, 1)), np.zeros((1, 1, 2)))
