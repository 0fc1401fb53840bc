"""Tour of the tensor/tape core: forward ops on rows, reverse-mode
gradients, and checking an analytic gradient against central finite
differences.

Run:  python demos/01_autodiff_basics.py
"""

import numpy as np

from nliattn import autodiff as ad
from nliattn import gradcheck as gc

# Forward arithmetic works with or without a tape; the tape only records.
# Layers work on rows: affine maps each row x_i of x to w·x_i + b.
x = ad.Tensor([[1.0, 2.0], [3.0, 4.0]])
w = ad.Tensor([[0.5, -1.0]])
b = ad.Tensor([0.25])
print("affine(x, w, b) = x·wᵀ + b =\n", ad.affine(x, w, b).data)

# Record a computation and pull gradients back through it.
theta = ad.Tensor(np.array([0.3, -0.8, 1.5]))
with ad.Tape() as tape:
    loss = ad.sum_all(ad.mul(theta, theta))  # sum of squares
tape.backward(loss)
print("\nloss =", loss.item())
print("d loss / d theta =", theta.grad, "(expected 2*theta =", 2 * theta.data, ")")

# Segment softmax: a batch of sentences packs its live positions end to end
# (here 3 and 2 of them); each sentence normalizes over its own segment and
# padding never enters.
scores = ad.Tensor([2.0, -1.0, 0.5, 9.9, 9.9])
print("\nsegment softmax:", ad.segment_softmax(scores, [3, 2]).data)

# The finite-difference oracle is how every backward rule in the package is
# verified; float64 mode keeps the differences out of the rounding noise.
with ad.precision("float64"):
    rng = np.random.default_rng(0)
    rows, weight, bias = (ad.Tensor(rng.normal(size=shape)) for shape in ((3, 4), (2, 4), (2,)))
    err = gc.check_gradient(
        lambda: ad.sum_all(ad.tanh(ad.affine(rows, weight, bias))), [rows, weight, bias]
    )
print(f"\naffine gradient vs finite differences: max relative error {err:.2e}")
