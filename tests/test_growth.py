import pytest

from prplab.backends import FreeAbelianBackend, ModVectorBackend
from prplab.growth import GrowthError, growth_report, is_log_dense
from prplab.prp import ball


def test_log_dense_examples():
    assert is_log_dense([2, 4, 8, 16], beta=2.0)
    assert not is_log_dense([2, 4, 16], beta=2.0)  # ratio 4 > beta
    assert not is_log_dense([4, 4, 8], beta=2.0)  # not increasing
    assert not is_log_dense([], beta=2.0)


def test_rate_on_coprime_pairs():
    backend = FreeAbelianBackend(1)
    start = (backend.element((1,)), backend.element((1,)))
    table = ball(backend, start, 9)
    rate = growth_report(table, [2, 4, 8])
    assert rate > 1.05
    assert rate == min(table.count_at(r) ** (1.0 / r) for r in (2, 4, 8))


def test_finite_group_rate_tends_to_one():
    backend = ModVectorBackend(3, 2)
    start = (backend.element((1, 0)), backend.element((0, 1)))
    table = ball(backend, start, 32)
    small = growth_report(table, [4, 8])
    large = growth_report(table, [16, 32])
    assert large < small
    assert large == pytest.approx(24 ** (1 / 32), rel=1e-9)


def test_truncated_radii_rejected():
    backend = FreeAbelianBackend(1)
    start = (backend.element((1,)), backend.element((1,)))
    table = ball(backend, start, 10, budget=30)
    assert table.truncated
    with pytest.raises(GrowthError, match="not complete"):
        growth_report(table, [2, 4, 8])


def test_non_log_dense_rejected():
    backend = FreeAbelianBackend(1)
    start = (backend.element((1,)), backend.element((1,)))
    table = ball(backend, start, 9)
    with pytest.raises(GrowthError, match="log-dense"):
        growth_report(table, [1, 9])
