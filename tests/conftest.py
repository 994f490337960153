import pytest

from qfsplit import _linalg
from qfsplit.cartier import FrobeniusBundle


class StepCountingOps(_linalg.PrimeOps):
    """The production backend, counting its Krylov steps (``row_times_matrix`` calls)
    and the step matrices it builds (``matrix`` calls)."""

    calls = 0
    matrix_calls = 0

    def row_times_matrix(self, R, T):
        self.calls += 1
        return super().row_times_matrix(R, T)

    def matrix(self, T):
        self.matrix_calls += 1
        return super().matrix(T)


@pytest.fixture
def step_counting():
    """b -> the same bundle on a fresh :class:`StepCountingOps` backend."""

    def twin(b):
        return FrobeniusBundle(b.basis, b.f, b.lam_coords, b.T_coords, ops=StepCountingOps(b.field))

    return twin
