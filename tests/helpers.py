"""Shared test utilities: the finite-difference gradient oracle and
small corpus/model builders."""

from __future__ import annotations

import numpy as np

from lungsound.tensor import Tensor, precision

# Central differences per the package's gradient contract:
# h = 1e-3, relative tolerance 1e-3, absolute floor 1e-5. The check
# runs the engine in float64 (via the precision switch) because
# float32 differencing cannot resolve the 1e-5 floor; the backward
# formulas under test are the same code the float32 path runs.
FD_H = 1e-3
FD_RTOL = 1e-3
FD_ATOL = 1e-5


def relu(x: Tensor) -> Tensor:
    """ReLU as an op of its own: the reference ``tensor.bn_relu_pool`` is
    held to, bit for bit, as ``relu(batchnorm2d(...))`` (then ``pool2d``)."""

    def bwd(g):
        x._adopt(g * (x.data > 0))

    return Tensor._from_op(np.maximum(x.data, x.data.dtype.type(0)), (x,), bwd)


def numeric_gradient(fn, x: np.ndarray, h: float = FD_H) -> np.ndarray:
    """Central finite differences of scalar-valued fn at x."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        up = float(fn(x))
        flat[i] = orig - h
        down = float(fn(x))
        flat[i] = orig
        gflat[i] = (up - down) / (2 * h)
    return grad


def check_gradient(build_loss, arrays: dict[str, np.ndarray], rtol=FD_RTOL, atol=FD_ATOL, h=FD_H):
    """Compare autodiff gradients of build_loss against finite differences.

    ``build_loss`` maps {name: Tensor} to a scalar Tensor. Each named
    array is checked in turn while the others stay fixed. Returns the
    number of gradient arrays checked (for case counting).
    """
    checked = 0
    with precision(np.float64):
        tensors = {k: Tensor(v.copy(), requires_grad=True) for k, v in arrays.items()}
        loss = build_loss(tensors)
        loss.backward()
        for name, arr in arrays.items():
            analytic = tensors[name].grad

            def scalar_fn(perturbed, _name=name):
                # the same flags as the analytic pass: they set batchnorm's mode
                local = {
                    k: Tensor(perturbed.copy() if k == _name else v.copy(), requires_grad=True)
                    for k, v in arrays.items()
                }
                return build_loss(local).item()

            numeric = numeric_gradient(scalar_fn, arr.astype(np.float64), h=h)
            np.testing.assert_allclose(
                analytic,
                numeric,
                rtol=rtol,
                atol=atol,
                err_msg=f"gradient mismatch for {name}",
            )
            checked += 1
    return checked


# (Sp, Se) pairs with published AS (and HS/TS where printed), limited
# to rows whose printed values are self-consistent under the score
# formulas at +-0.01 rounding.
PUBLISHED_METRIC_ROWS = [
    # (sp, se, as_, hs, ts)
    (73.21, 37.89, 55.55, None, None),
    (78.78, 37.38, 58.08, None, None),
    (79.00, 37.48, 58.24, None, None),
    (78.53, 38.49, 58.51, None, None),
    (80.37, 40.00, 60.19, None, None),
    (84.74, 40.62, 62.68, None, None),
    (79.44, 44.93, 62.19, None, None),
    (87.76, 40.66, 64.21, None, None),
    (93.97, 40.67, 67.32, None, None),
    (67.87, 62.57, 65.22, None, None),
    (72.22, 62.45, 67.34, None, None),
    (76.63, 60.43, 68.53, None, None),
    (90.39, 75.46, 82.93, 82.26, 82.59),
    (87.09, 79.15, 83.12, 82.93, 83.03),
    (91.38, 76.03, 83.70, 83.00, 83.35),
    (89.93, 89.35, 89.64, 89.64, 89.64),
    (86.81, 92.07, 89.44, 89.36, 89.40),
    (88.37, 90.50, 89.43, 89.42, 89.43),
    (93.78, 51.95, 72.86, 66.86, 69.86),
    (83.93, 59.76, 71.84, 69.81, 70.83),
    (88.32, 57.36, 72.84, 69.55, 71.20),
    (87.43, 77.93, 82.68, 82.41, 82.54),
    (83.85, 81.68, 82.77, 82.75, 82.76),
    (88.00, 78.08, 83.04, 82.74, 82.89),
]
