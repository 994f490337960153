import pytest

from qfsplit import _linalg
from qfsplit.cartier import FrobeniusBundle


class StepCountingOps(_linalg.PrimeOps):
    """The production backend, counting its Krylov steps (``row_times_matrix`` calls)."""

    calls = 0

    def row_times_matrix(self, R, T):
        self.calls += 1
        return super().row_times_matrix(R, T)


@pytest.fixture
def step_counting():
    """b -> the same bundle on a fresh :class:`StepCountingOps` backend."""

    def twin(b):
        return FrobeniusBundle(b.basis, b.f, b.v_f, b.lam, b.T, ops=StepCountingOps(b.field))

    return twin
