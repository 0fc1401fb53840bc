"""Tour of the tensor/tape core: forward ops, reverse-mode gradients, and
checking an analytic gradient against central finite differences.

Run:  python demos/01_autodiff_basics.py
"""

import numpy as np

from nliattn import autodiff as ad
from nliattn import gradcheck as gc

# Forward arithmetic works with or without a tape; the tape only records.
x = ad.Tensor([[1.0, 2.0], [3.0, 4.0]])
w = ad.Tensor([[0.5], [-1.0]])
print("x @ w =\n", ad.matmul(x, w).data)

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
    a = ad.Tensor(np.random.default_rng(0).normal(size=(3, 4)))
    b = ad.Tensor(np.random.default_rng(1).normal(size=(4, 2)))
    err = gc.check_gradient(lambda: ad.sum_all(ad.matmul(a, b)), [a, b])
print(f"\nmatmul gradient vs finite differences: max relative error {err:.2e}")
