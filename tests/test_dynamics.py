import math

import pytest

from affmech.affgebroid import HamiltonianSection
from affmech.expr import evaluate
from affmech.dynamics import (
    hamilton_stage,
    integrate,
    integrate_field,
    interpret,
    reduced_stage,
)
from affmech.models import harmonic_oscillator, linear_tangent_model, rigid_body, trivial_fibration

from helpers import integrate_reduced


# --------------------------------------------------------------- right side


def field_at(h, state):
    """The Hamilton field of h at one state, interpreted."""
    return interpret(*hamilton_stage(h))(state)


def reduced_field_of(alpha, h):
    """The reduced field X(x) of the theorem, interpreted (``integrate_field`` reads it so)."""
    field = interpret(*reduced_stage(alpha, h))
    return lambda x: field(x)[: h.chart.m]


def test_rhs_free_particle():
    bundle = trivial_fibration(1)
    assert field_at(bundle.hamiltonian, [0.0, 0.0, 1.0]) == [1.0, 1.0, 0.0]


def test_rhs_rigid_body_principal_axis_equilibrium():
    bundle = rigid_body(1.0, 2.0, 3.0)
    rhs = field_at(bundle.hamiltonian, [0.0, 0.0, 0.0, 1.0])
    assert rhs[0] == 1.0
    assert rhs[1:] == [0.0, 0.0, 0.0]


def test_rhs_rigid_body_is_cross_product():
    inertia = (1.0, 2.0, 3.0)
    bundle = rigid_body(*inertia)
    P = [0.4, -0.7, 0.9]
    omega = [P[a] / inertia[a] for a in range(3)]
    expected = [
        P[1] * omega[2] - P[2] * omega[1],
        P[2] * omega[0] - P[0] * omega[2],
        P[0] * omega[1] - P[1] * omega[0],
    ]
    rhs = field_at(bundle.hamiltonian, [0.0] + P)
    assert rhs[1:] == pytest.approx(expected, abs=1e-14)


def test_rhs_zero_hamiltonian_follows_reference_anchor():
    bundle = trivial_fibration(2)
    h0 = HamiltonianSection(bundle.chart, 0.0)
    rhs = field_at(h0, [0.3, 0.1, -0.2, 0.5, 0.7])
    assert rhs == [1.0, 0.0, 0.0, 0.0, 0.0]


# -------------------------------------------------------------- integration


def test_integrate_constant_rhs():
    bundle = trivial_fibration(1)
    h0 = HamiltonianSection(bundle.chart, 0.0)
    traj = integrate(h0, [0.0, 0.25, 0.75], 0.0, 1.0, 1e-3)
    assert traj.ok and len(traj) >= 2
    assert traj.times[-1] == 1.0
    # y is untouched step by step, x accumulates the constant drift
    assert all(s[1] == 0.25 and s[2] == 0.75 for s in traj.states)
    assert abs(traj.states[-1][0] - 1.0) <= 1e-12


def test_integrate_lands_exactly_on_t_end():
    bundle = trivial_fibration(1)
    traj = integrate(bundle.hamiltonian, [0.0, 1.0, 0.0], 0.0, 0.0105, 1e-3)
    assert traj.times[-1] == 0.0105
    assert traj.times[-1] - traj.times[-2] < 1e-3


def test_integrate_input_validation():
    bundle = trivial_fibration(1)
    with pytest.raises(ValueError):
        integrate(bundle.hamiltonian, [0.0, 0.0, 0.0], 0.0, -1.0, 1e-3)
    with pytest.raises(ValueError):
        integrate(bundle.hamiltonian, [0.0, 0.0, 0.0], 0.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        integrate(bundle.hamiltonian, [0.0, 0.0], 0.0, 1.0, 1e-3)


def test_integrate_aborts_on_blowup():
    # dq/dt = q^2 from q=2 blows up at t = 0.5: expect a flagged partial run
    bundle = trivial_fibration(1)
    h = HamiltonianSection(bundle.chart, "p1*q1^2")
    traj = integrate(h, [0.0, 2.0, 1.0], 0.0, 1.0, 1e-3)
    assert not traj.ok
    assert traj.error and ("non-finite" in traj.error or "domain violation" in traj.error)
    assert 2 <= len(traj) < 1001


def test_harmonic_oscillator_period_return():
    bundle = harmonic_oscillator()
    traj = integrate(bundle.hamiltonian, [0.0, 1.0, 0.0], 0.0, 2.0 * math.pi, 1e-3)
    q_end, p_end = traj.states[-1][1], traj.states[-1][2]
    assert math.hypot(q_end - 1.0, p_end) <= 1e-9


def test_rk4_order_factor_on_oscillator():
    bundle = harmonic_oscillator()

    def endpoint_error(step):
        traj = integrate(bundle.hamiltonian, [0.0, 1.0, 0.0], 0.0, 2.0 * math.pi, step)
        s = traj.states[-1]
        return math.hypot(s[1] - 1.0, s[2])

    factor = endpoint_error(0.05) / endpoint_error(0.025)
    assert 12.0 <= factor <= 20.0


def test_time_reversal_round_trip():
    # integrate forward, then run the negated field from the endpoint
    for bundle in (harmonic_oscillator(), rigid_body(1.0, 2.0, 3.0)):
        h = bundle.hamiltonian
        start = [0.0, 0.8, -0.3] if bundle.chart.n == 1 else [0.0, 0.8, -0.3, 0.5]
        forward = integrate(h, start, 0.0, 1.0, 1e-3)
        backward = integrate_field(
            lambda s: [-v for v in field_at(h, s)],
            forward.states[-1],
            0.0,
            1.0,
            1e-3,
        )
        diff = max(abs(a - b) for a, b in zip(backward.states[-1], start))
        assert diff <= 1e-7, bundle.name


# ------------------------------------------------------------ reduced field


def test_reduced_field_free_particle_spreading_solution():
    bundle = trivial_fibration(1)
    field = reduced_field_of(bundle.section("w_free"), bundle.hamiltonian)
    for t, q in [(0.0, 1.0), (0.5, -0.4), (1.0, 2.0)]:
        x = field([t, q])
        assert x[0] == pytest.approx(1.0, abs=1e-15)
        assert x[1] == pytest.approx(q / (t + 1.0), abs=1e-14)


def test_reduced_field_zero_hamiltonian_is_reference_anchor():
    bundle = trivial_fibration(2)
    h0 = HamiltonianSection(bundle.chart, 0.0)
    field = reduced_field_of(bundle.section("zero"), h0)
    assert field([0.1, 0.2, 0.3]) == [1.0, 0.0, 0.0]


def test_reduced_field_linear_mode_contracts_anchor_with_gradient():
    bundle = linear_tangent_model(2)
    alpha = bundle.section("grad_sq")  # alphaV = (x1, x2)
    field = reduced_field_of(alpha, bundle.hamiltonian)
    assert field([0.4, -0.7]) == pytest.approx([0.4, -0.7], abs=1e-15)


def test_integrate_reduced_closed_form():
    # q' = q/(t+1) with q(0) = q0 follows q = q0 (1+t)
    bundle = trivial_fibration(1)
    for q0 in (1.0, -0.6):
        traj = integrate_reduced(bundle.section("w_free"), bundle.hamiltonian, [0.0, q0], 0.0, 1.0, 1e-3)
        assert traj.ok
        t_end, q_end = traj.states[-1]
        assert abs(q_end - q0 * (1.0 + t_end)) <= 1e-8


def test_full_and_reduced_flows_agree_on_solutions():
    # starting the full flow on the graph of an HJ solution keeps both base
    # trajectories together
    bundle = trivial_fibration(1)
    alpha = bundle.section("w_free")
    x0 = [0.0, 1.3]
    env0 = dict(zip(bundle.chart.base_vars, x0))
    y0 = [evaluate(c, env0) for c in alpha.alphaV]
    full = integrate(bundle.hamiltonian, x0 + y0, 0.0, 1.0, 1e-3)
    reduced = integrate_reduced(alpha, bundle.hamiltonian, x0, 0.0, 1.0, 1e-3)
    worst = max(
        max(abs(a - b) for a, b in zip(full_state[:2], red_state))
        for full_state, red_state in zip(full.states, reduced.states)
    )
    assert worst <= 1e-6


def test_rigid_body_casimir_conservation():
    bundle = rigid_body(1.0, 2.0, 3.0)
    start = [0.0, 1.0, 0.5, -0.3]
    traj = integrate(bundle.hamiltonian, start, 0.0, 10.0, 1e-3)
    c0 = sum(v * v for v in start[1:])
    drift = max(abs(sum(v * v for v in s[1:]) - c0) for s in traj.states)
    assert drift <= 1e-8
    # reference run at one tenth of the step, shared horizon
    ref = integrate(bundle.hamiltonian, start, 0.0, 1.0, 1e-4)
    coarse = integrate(bundle.hamiltonian, start, 0.0, 1.0, 1e-3)
    assert max(abs(a - b) for a, b in zip(ref.states[-1], coarse.states[-1])) <= 1e-9
