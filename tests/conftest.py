from functools import lru_cache

import pytest

from qfsplit import _linalg
from qfsplit.cartier import FrobeniusBundle


@lru_cache(maxsize=None)
def step_counting_class(base: type) -> type:
    """``base``, the backend class ``make_ops`` returns for a field, counting its Krylov
    steps (``row_times_matrix`` and ``lift_step`` calls) and the step matrices it
    builds (``matrix`` calls)."""

    class StepCountingOps(base):
        calls = 0
        matrix_calls = 0

        def row_times_matrix(self, R, T):
            self.calls += 1
            return super().row_times_matrix(R, T)

        def lift_step(self, R, T, cols, lam):
            calls = self.calls + 1
            out = super().lift_step(R, T, cols, lam)
            self.calls = calls  # one step of the whole batch, whatever it calls inside
            return out

        def matrix(self, T):
            self.matrix_calls += 1
            return super().matrix(T)

    return StepCountingOps


@pytest.fixture
def step_counting():
    """b -> the same bundle on a fresh step-counting twin of its field's backend."""

    def twin(b):
        ops = step_counting_class(type(_linalg.make_ops(b.field)))(b.field)
        return FrobeniusBundle(b.basis, b.f, b.lam_coords, lambda: b.T_coords, ops=ops)

    return twin
