import numpy as np
import pytest

from pase.autodiff import Parameter
from pase.optim import Adam, PolySchedule

from oracles import reference_adam_step, same_bytes


def test_poly_schedule_endpoints():
    sched = PolySchedule(lr0=1e-3, total_steps=100, power=1.0)
    assert sched.lr(0) == pytest.approx(1e-3)
    assert sched.lr(100) == 0.0
    assert sched.lr(50) == pytest.approx(5e-4)


def test_poly_schedule_monotone_nonincreasing():
    sched = PolySchedule(lr0=1e-3, total_steps=37, power=2.0)
    values = [sched.lr(s) for s in range(38)]
    assert all(a >= b for a, b in zip(values, values[1:]))
    assert values[0] == pytest.approx(1e-3)


def test_poly_schedule_rejects_out_of_range():
    sched = PolySchedule(lr0=1e-3, total_steps=10)
    with pytest.raises(ValueError):
        sched.lr(11)
    with pytest.raises(ValueError):
        sched.lr(-1)


def test_adam_zero_gradient_is_noop():
    p = Parameter("p", np.array([1.0, -2.0, 3.0], dtype=np.float32))
    adam = Adam([p])
    before = p.data.copy()
    p.grad = np.zeros_like(p.data)
    adam.step(1e-3)
    assert np.array_equal(p.data, before)

    p.grad = None  # missing gradient also leaves the parameter alone
    adam.step(1e-3)
    assert np.array_equal(p.data, before)


def test_adam_first_step_magnitude_is_lr():
    p = Parameter("p", np.zeros(4, dtype=np.float32))
    adam = Adam([p])
    p.grad = np.full(4, 0.37, dtype=np.float32)
    adam.step(1e-3)
    # bias-corrected first step moves by ~lr regardless of gradient scale
    assert np.allclose(np.abs(p.data), 1e-3, rtol=1e-4)


def test_adam_quadratic_bowl_descends():
    # lr small enough that 200 near-constant Adam steps cannot cross zero,
    # so |x| shrinks monotonically instead of oscillating around the optimum
    p = Parameter("x", np.array([2.5], dtype=np.float32))
    adam = Adam([p])
    history = []
    for _ in range(200):
        p.grad = 2.0 * p.data  # d/dx x^2
        adam.step(0.012)
        history.append(abs(float(p.data[0])))
    tail = history[5:]
    assert all(a >= b for a, b in zip(tail, tail[1:]))
    assert tail[-1] < 0.5 * tail[0]


def test_adam_moment_shapes_and_unique_names():
    a = Parameter("a", np.zeros((2, 3), dtype=np.float32))
    b = Parameter("b", np.zeros(5, dtype=np.float32))
    adam = Adam([a, b])
    assert adam.m["a"].shape == (2, 3)
    assert adam.v["b"].shape == (5,)
    with pytest.raises(ValueError):
        Adam([a, Parameter("a", np.zeros(1))])


def test_adam_steps_equal_the_expression_bit_for_bit():
    rng = np.random.default_rng(3)
    shapes = {"w": (7, 5), "b": (5,), "s": (1,)}
    params = [Parameter(name, rng.standard_normal(shape)) for name, shape in shapes.items()]
    want = {p.name: [p.data.copy(), np.zeros_like(p.data), np.zeros_like(p.data)] for p in params}
    adam = Adam(params)
    schedule = PolySchedule(lr0=1e-3, total_steps=3)
    for step in range(1, 4):
        for p in params:
            p.grad = (rng.standard_normal(p.shape) * 10.0 ** rng.integers(-4, 3)).astype(np.float32)
            p.grad.flat[0] = 0.0  # a zero gradient: m, v and the update start from it
            reference_adam_step(*want[p.name], p.grad, step, schedule.lr(step - 1))
        adam.step(schedule.lr(step - 1))
        for p in params:
            assert same_bytes(p.data, want[p.name][0]), (step, p.name)
            assert same_bytes(adam.m[p.name], want[p.name][1]), (step, p.name)
            assert same_bytes(adam.v[p.name], want[p.name][2]), (step, p.name)
