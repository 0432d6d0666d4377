"""Central-difference checking of analytic gradients.

Runs in float64 only: the harness perturbs each checked element by +-step,
re-evaluates the scalar function, and compares against the tape gradient.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import GradTape, NumericsError, Tensor


@dataclass
class FiniteDiffReport:
    tol: float
    max_rel_error: float = 0.0

    @property
    def passed(self):
        return self.max_rel_error < self.tol

    def __str__(self):
        status = "pass" if self.passed else "FAIL"
        return f"{status}: max rel error {self.max_rel_error:.3e} (tol {self.tol:.1e})"


def finite_diff_check(f, x, tol=1e-4, step=1e-5, max_elements=None, seed=0):
    """Compare tape gradients of scalar-valued `f` against central differences.

    f takes the tensor(s) in `x` (a Tensor or list of Tensors, float64,
    requires_grad) and returns a scalar Tensor; it must be pure, since it is
    re-evaluated per perturbed element. With `max_elements`, a seeded random
    subset of each tensor's elements is checked. Pass iff the per-element max
    relative error stays below `tol`.
    """
    xs = [x] if isinstance(x, Tensor) else list(x)
    for t in xs:
        if t.data.dtype != np.float64:
            raise NumericsError("finite_diff_check requires float64 tensors")
        t.zero_grad()

    with GradTape() as tape:
        y = f(*xs)
    if y.shape != ():
        raise NumericsError(f"finite_diff_check: f must be scalar-valued, got {y.shape}")
    tape.backward(y)
    analytic = [
        t.grad.copy() if t.grad is not None else np.zeros_like(t.data) for t in xs
    ]

    rng = np.random.default_rng(seed)
    report = FiniteDiffReport(tol=tol)
    for t, grad in zip(xs, analytic):
        if not t.data.flags["C_CONTIGUOUS"]:
            t.data = np.ascontiguousarray(t.data)
        flat = t.data.reshape(-1)
        n = flat.size
        if max_elements is not None and max_elements < n:
            idx = rng.choice(n, size=max_elements, replace=False)
        else:
            idx = np.arange(n)
        for i in idx:
            keep = flat[i]
            flat[i] = keep + step
            y_plus = float(f(*xs).data)
            flat[i] = keep - step
            y_minus = float(f(*xs).data)
            flat[i] = keep
            numeric = (y_plus - y_minus) / (2.0 * step)
            a = float(grad.reshape(-1)[i])
            if abs(a) < 1e-7 and abs(numeric) < 1e-7:
                continue
            rel = abs(a - numeric) / max(abs(a), abs(numeric))
            report.max_rel_error = max(report.max_rel_error, rel)
    return report
