import numpy as np
import pytest

from nsopt.control import (RadiiState, StallCounter, init_radii,
                           reduction_condition, update_radii)

EPS_MIN = 1e-5


def test_init_radii_large_gradient():
    radii = init_radii(np.array([100.0, -3.0]))
    assert radii.eps == pytest.approx(10.0)
    assert radii.delta == pytest.approx(1e12)


def test_init_radii_small_gradient_floors():
    radii = init_radii(np.array([0.05]))
    assert radii.eps == pytest.approx(1e-2)
    assert radii.delta == pytest.approx(5e8)


def test_init_radii_zero_gradient():
    radii = init_radii(np.zeros(4))
    assert radii.eps == pytest.approx(1e-2)
    assert radii.delta == pytest.approx(1e-1)


def test_update_radii_reduces_when_norms_small():
    radii = RadiiState(eps=0.01, delta=1.0)
    out, stationary = update_radii(radii, (0.005, 0.004, 0.005), False, EPS_MIN)
    assert out.eps == pytest.approx(1e-3)
    assert out.delta == pytest.approx(0.1)
    assert not stationary


def test_update_radii_unchanged_when_norms_large():
    radii = RadiiState(eps=0.01, delta=1.0)
    out, stationary = update_radii(radii, (0.02, 0.0, 0.0), False, EPS_MIN)
    assert out == radii
    assert not stationary


def test_update_radii_stall_forces_reduction():
    radii = RadiiState(eps=0.01, delta=1.0)
    out, stationary = update_radii(radii, (5.0, 5.0, 5.0), True, EPS_MIN)
    assert out.eps == pytest.approx(1e-3)
    assert not stationary


def test_reduction_condition_uses_max_norm():
    assert reduction_condition((0.005, 0.01, 0.002), eps=0.01)
    assert not reduction_condition((0.005, 0.011, 0.002), eps=0.01)


def test_stall_counter_relative_rule():
    stall = StallCounter(tolerance=1e-5)
    stall.observe(1000.0, 999.999)  # |change| = 1e-3 <= 1e-5 * 1000
    assert stall.count == 1
    stall.observe(1000.0, 999.9)  # 0.1 > 1e-2 resets
    assert stall.count == 0


def test_update_radii_continues_at_eps_min_without_trigger():
    radii = RadiiState(eps=EPS_MIN, delta=1.0)
    out, stationary = update_radii(radii, (1.0, 1.0, 1.0), False, EPS_MIN)
    assert out == radii
    assert not stationary


@pytest.mark.parametrize("trigger", ["stall", "norms"])
def test_update_radii_reduces_then_terminates_at_eps_min_edge(trigger):
    def rule(eps):
        norms = (1.0, 1.0, 1.0) if trigger == "stall" else (0.5 * EPS_MIN,) * 3
        return update_radii(RadiiState(eps=eps, delta=1.0), norms,
                            trigger == "stall", EPS_MIN)

    edge = EPS_MIN * (1.0 + 1e-9)
    out, stationary = rule(EPS_MIN * (1.0 + 1e-8))  # above the edge: reduce
    assert not stationary
    assert out.eps == pytest.approx(1e-6) and out.delta == pytest.approx(0.1)
    out, stationary = rule(edge)  # at the edge: shrink and stop
    assert stationary
    assert out.eps == pytest.approx(0.1 * edge) and out.delta == pytest.approx(0.1)
