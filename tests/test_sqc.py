import gc
import os
import re
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import mmsqc
from mmsqc import arrayio, sqc
from mmsqc.dataset import SequenceDataset
from mmsqc.models import HBAR_EV_FS, SiteExcitonModel, build_model
from mmsqc.sqc import (
    ENERGY_CHUNK,
    IntegrationError,
    IntegratorConfig,
    Trajectory,
    TrajectoryEnsemble,
    action,
    assign_from_actions,
    mm_energy,
    populations,
    propagate,
    run_ensemble,
    sample_initial,
    ensemble_energies,
    _BathRK4,
    _Hamiltonian,
    _map_chunks,
    _propagate_batch,
    _sample_starts,
    _tree_sum_rows,
)
from mmsqc.streams import substream
from mmsqc.surrogate import TrainConfig, train

GAMMA = 1.0 / 3.0


def deriv(model, y):
    """Hamilton's equations at one x_e|p_e|Q|P vector, in 1/fs."""
    Y = y[:, None]
    return FullStateDeriv(model).deriv(Y, np.empty_like(Y))[:, 0]


def rows_of(starts):
    """`_map_chunks`' start vectors of trajectories a..b-1 from a fixed (n, dim) array."""
    return lambda a, b: starts[a:b]


def blocks(model, y):
    """The x_e, p_e, Q and P blocks of a state vector."""
    ne, nv = model.n_states, model.n_modes
    return y[:ne], y[ne:2 * ne], y[2 * ne:2 * ne + nv], y[2 * ne + nv:]


def kappa_zeroed(model):
    modes = [[(w, 0.0) for w in model.omega[sl]] for sl in model.state_slices]
    return SiteExcitonModel(model.label + "-k0", model.v, modes)


def unequal_model():
    """Three states with 3, 0 and 5 modes; states 0 and 2 are not coupled."""
    rng = np.random.default_rng(17)
    modes = [[(float(rng.uniform(0.05, 0.2)), float(rng.normal(scale=0.05)))
              for _ in range(count)] for count in (3, 0, 5)]
    v = [[0.1, 0.05, 0.0], [0.05, -0.02, 0.07], [0.0, 0.07, 0.0]]
    return SiteExcitonModel("unequal", v, modes)


# ---------------------------------------------------------------------------
# configs, actions, windows


def test_config_validation():
    for dt in (0.0, -0.01, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="dt_internal must be finite and positive"):
            IntegratorConfig(dt_internal=dt)


def test_action_values():
    assert action(np.sqrt(2.0), 0.0) == pytest.approx(2.0 / 3.0)
    assert action(0.0, 0.0) == pytest.approx(-GAMMA)
    assert action(1.0, 1.0) == pytest.approx(2.0 / 3.0)


def test_assign_from_actions_examples():
    assert assign_from_actions(np.array([0.8, -0.1])) == 0
    assert assign_from_actions(np.array([0.5, 0.5])) == -1
    # all mapping variables zero
    assert assign_from_actions(action(np.zeros(2), np.zeros(2))) == -1
    x = np.sqrt(2.0 * np.array([0.8 + GAMMA, -0.1 + GAMMA]))
    assert assign_from_actions(action(x, np.zeros(2))) == 0


def test_window_disjointness_random_actions():
    rng = np.random.default_rng(123)
    for n_states in (2, 3):
        n = rng.uniform(-GAMMA, 2.0, size=(200_000, n_states))
        positive = np.zeros(len(n), dtype=int)
        for k in range(n_states):
            ok = n[:, k] + GAMMA >= 1.0
            for j in range(n_states):
                if j != k:
                    ok &= (n[:, j] + GAMMA >= 0.0) & (n[:, k] + n[:, j] <= 2 - 2 * GAMMA)
            positive += ok
        assert positive.max() <= 1
        # the vectorized assignment agrees with the per-window evaluation
        assigned = assign_from_actions(n)
        assert np.array_equal(assigned >= 0, positive == 1)


# ---------------------------------------------------------------------------
# energy and equations of motion


def test_mm_energy_examples():
    assert mm_energy(build_model("I"), np.zeros(36)) == 0.0
    m2 = build_model("II")
    assert mm_energy(m2, np.zeros(m2.dim)) == pytest.approx(-GAMMA * 0.2)
    excited = np.zeros(m2.dim)
    excited[0] = np.sqrt(2 * (1 + GAMMA))
    assert mm_energy(m2, excited) == pytest.approx(0.2)


def test_mm_energy_dimension_mismatch():
    with pytest.raises(ValueError, match="model I needs"):
        mm_energy(build_model("I"), np.zeros(build_model("III").dim))


def test_eom_at_origin():
    """At the origin the electronic derivatives and dQ vanish; the nuclear
    momenta feel the residual zero-point force dP = gamma*kappa/hbar from the
    -gamma shift in the mapping weight."""
    model = build_model("I")
    dx, dp, dQ, dP = blocks(model, deriv(model, np.zeros(model.dim)))
    assert np.array_equal(dx, np.zeros(2))
    assert np.array_equal(dp, np.zeros(2))
    assert np.array_equal(dQ, np.zeros(16))
    assert np.allclose(dP, GAMMA * model.kappa / HBAR_EV_FS, rtol=1e-12)


@pytest.mark.parametrize("label,seed", [("I", 0), ("I", 1), ("III", 2), ("V", 3),
                                        ("unequal", 4)])
def test_eom_matches_energy_gradient(label, seed):
    """Hamilton's equations = (1/hbar) * symplectic gradient of the energy."""
    model = unequal_model() if label == "unequal" else build_model(label)
    vec = np.random.default_rng(seed).normal(size=model.dim)
    got = deriv(model, vec)
    h = 1e-6
    steps = h * np.eye(model.dim)   # row i moves variable i alone
    grad = (mm_energy(model, vec + steps) - mm_energy(model, vec - steps)) / (2 * h)
    dE_dx, dE_dp, dE_dQ, dE_dP = blocks(model, grad)
    expected = np.concatenate([dE_dp, -dE_dx, dE_dP, -dE_dQ]) / HBAR_EV_FS
    assert np.max(np.abs(got - expected)) <= 1e-8 * np.max(np.abs(expected))


class PerStateDeriv:
    """Hamilton's equations one state at a time: each state's diagonal is its
    own tree sum, and each coupling is added only where V_kl != 0, in
    increasing l. The reference for FullStateDeriv."""

    def __init__(self, model, gamma):
        self.ne, self.nv, self.gamma = model.n_states, model.n_modes, gamma
        self.slices = model.state_slices
        self.v_over_h = model.v / HBAR_EV_FS
        self.kappa_over_h = (model.kappa / HBAR_EV_FS)[:, None]
        self.omega_over_h = (model.omega / HBAR_EV_FS)[:, None]
        self.mode_state = np.repeat(np.arange(self.ne),
                                    [sl.stop - sl.start for sl in self.slices])

    def __call__(self, Y):
        ne, nv = self.ne, self.nv
        xe, pe = Y[:ne], Y[ne:2 * ne]
        Q, P = Y[2 * ne:2 * ne + nv], Y[2 * ne + nv:]
        out = np.empty_like(Y)
        weight = 0.5 * (xe * xe + pe * pe)
        weight -= self.gamma
        out[2 * ne:2 * ne + nv] = P * self.omega_over_h
        dP = Q * -self.omega_over_h
        dP += weight[self.mode_state] * -self.kappa_over_h
        out[2 * ne + nv:] = dP
        vh = self.v_over_h
        for k in range(ne):
            sl = self.slices[k]
            diag_h = _tree_sum_rows(self.kappa_over_h[sl] * Q[sl])
            diag_h += vh[k, k]
            cx = pe[k] * diag_h
            cp = xe[k] * diag_h
            for l in range(ne):
                if l != k and vh[k, l] != 0.0:
                    cx += vh[k, l] * pe[l]
                    cp += vh[k, l] * xe[l]
            out[k] = cx
            out[ne + k] = -cp
        return out


def per_state_energy(model, y, gamma):
    """Energy of one packed state vector, term by term (eV), and the sum of
    the terms' magnitudes."""
    ne, nv = model.n_states, model.n_modes
    xe, pe, Q, P = y[:ne], y[ne:2 * ne], y[2 * ne:2 * ne + nv], y[2 * ne + nv:]
    terms = [0.5 * w * (q * q + p * p) for w, q, p in zip(model.omega, Q, P)]
    for k, sl in enumerate(model.state_slices):
        diag = model.v[k, k] + sum(kp * q for kp, q in zip(model.kappa[sl], Q[sl]))
        terms.append((0.5 * (xe[k]**2 + pe[k]**2) - gamma) * diag)
        for l in range(k + 1, ne):
            terms.append(model.v[k, l] * (xe[k] * xe[l] + pe[k] * pe[l]))
    return sum(terms), sum(abs(t) for t in terms)


@st.composite
def custom_models(draw):
    """2-3 states, 0-9 modes per state, zero and nonzero couplings."""
    ne = draw(st.integers(2, 3))
    energy = st.floats(-0.3, 0.3, allow_subnormal=False)
    v = np.zeros((ne, ne))
    for k in range(ne):
        v[k, k] = draw(energy)
        for l in range(k + 1, ne):
            v[k, l] = v[l, k] = draw(st.sampled_from([0.0, 0.2]) | energy)
    modes = [[(draw(st.floats(0.01, 0.3)), draw(energy))
              for _ in range(draw(st.integers(0, 9)))] for _ in range(ne)]
    return SiteExcitonModel("custom", v, modes)


@settings(max_examples=150, deadline=None)
@given(model=custom_models(), n=st.integers(1, 9), seed=st.integers(0, 2**32 - 1))
@example(model=SiteExcitonModel("none", [[0.1, 0.05], [0.05, 0.0]], [[], []]), n=3, seed=0)
def test_hamiltonian_matches_per_state_reference(model, n, seed):
    """The one-pass diagonal gives the per-state derivative (equal values;
    a zero coupling adds 0*p, which may turn an exact -0.0 into +0.0), a
    trajectory's derivative does not depend on its batch, and the energy is
    the plain per-state sum."""
    Y = np.random.default_rng(seed).normal(size=(model.dim, n))
    ham = FullStateDeriv(model)
    dY = ham.deriv(Y, np.empty_like(Y))
    assert np.array_equal(dY, PerStateDeriv(model, GAMMA)(Y))
    i = seed % n
    row = np.ascontiguousarray(Y[:, i:i + 1])
    assert ham.deriv(row, np.empty_like(row)).tobytes() == dY[:, i:i + 1].tobytes()
    energies = ham._energy(Y)
    for j in range(n):
        want, scale = per_state_energy(model, Y[:, j], GAMMA)
        assert abs(energies[j] - want) <= 1e-12 * scale


class FullStateDeriv(_Hamiltonian):
    """Hamilton's equations on a (dim, n) batch, in 1/fs, built from
    `_Hamiltonian`'s `_weight`, `_diagonal` and `_electronic`; the nuclear
    force takes each mode's state weight through `mode_state`."""

    def __init__(self, model):
        super().__init__(model)
        counts = [sl.stop - sl.start for sl in model.state_slices]
        self.mode_state = np.repeat(np.arange(self.ne), counts)

    def deriv(self, Y, out):
        ne, nv = self.ne, self.nv
        Q, P = Y[2 * ne:2 * ne + nv], Y[2 * ne + nv:]
        E = Y[:2 * ne].reshape(2, ne, -1)
        # nuclear: dQ = (w/hbar) P, dP = -(w/hbar) Q - (kappa/hbar) weight_state
        out[2 * ne:2 * ne + nv] = P * self.omega_h
        out[2 * ne + nv:] = -(Q * self.omega_h) - self.kappa_h * self._weight(E)[self.mode_state]
        out[:2 * ne] = self._electronic(E, self._diagonal(Y)).reshape(2 * ne, -1)
        return out


def reference_rk4(model, Y0, h, n_sub, n_rec):
    """Classic RK4 on the full state through `FullStateDeriv`, four stages
    of every row per substep: the reference for `_BathRK4`. Returns the
    (n_rec, dim, n) states on the record grid."""
    deriv = FullStateDeriv(model).deriv
    Y = np.array(Y0, dtype=float)
    k1, k2, k3, k4 = (np.empty_like(Y) for _ in range(4))
    records = [Y.copy()]
    for _ in range(1, n_rec):
        for _ in range(n_sub):
            deriv(Y, k1)
            deriv(Y + 0.5 * h * k1, k2)
            deriv(Y + 0.5 * h * k2, k3)
            deriv(Y + h * k3, k4)
            Y += h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        records.append(Y.copy())
    return np.array(records)


@settings(max_examples=100, deadline=None)
@given(model=custom_models(), n=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
@example(model=SiteExcitonModel("none", [[0.0, 0.05], [0.05, 0.0]], [[], []]), n=2, seed=0)
@example(model=unequal_model(), n=3, seed=1)
def test_bath_rk4_is_rk4_on_the_full_state(model, n, seed):
    """The closed-form bath substep is RK4 on the full state up to roundoff;
    a trajectory run alone gives the same bytes as in a batch; and the
    stage-1 diagonal is `_diagonal` bit for bit."""
    rng = np.random.default_rng(seed)
    Y0 = rng.normal(size=(n, model.dim))
    icfg, record_dt, n_rec = IntegratorConfig(0.05), 1.0, 4
    out = np.empty((n, n_rec, model.dim))
    _propagate_batch(Y0, 0, out, model, icfg, record_dt)
    want = reference_rk4(model, Y0.T, 0.05, 20, n_rec).transpose(2, 0, 1)
    assert np.max(np.abs(out - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))
    i = seed % n
    alone = np.empty((1, n_rec, model.dim))
    _propagate_batch(Y0[i:i + 1], 0, alone, model, icfg, record_dt)
    assert alone.tobytes() == out[i:i + 1].tobytes()
    ham = _Hamiltonian(model)
    rk4 = _BathRK4(ham, 0.05, Y0)
    rk4.step()
    assert rk4.diag[0].tobytes() == ham._diagonal(np.ascontiguousarray(Y0.T)).tobytes()


@settings(max_examples=30, deadline=None)
@given(model=custom_models(), n=st.integers(1, 5), seed=st.integers(0, 2**32 - 1))
def test_propagation_leaves_its_starts_alone(model, n, seed):
    """`_propagate_batch` and `propagate` only read their start vectors: the
    caller's array keeps its bytes, also where `propagate` passes a view of
    it on to the stepper."""
    Y0 = np.random.default_rng(seed).normal(size=(n, model.dim))
    before = Y0.tobytes()
    icfg = IntegratorConfig(0.05)
    _propagate_batch(Y0, 0, np.empty((n, 3, model.dim)), model, icfg, 1.0)
    assert Y0.tobytes() == before
    propagate(model, Y0[n - 1], icfg, 2.0, 1.0)
    assert Y0.tobytes() == before


# ---------------------------------------------------------------------------
# sampling


def test_sample_initial_support_and_rings():
    model = build_model("III")
    for i in range(500):
        s = sample_initial(model, 1, substream(9, "sampling", i))
        assert s.shape == (model.dim,)
        x_e, p_e, Q, P = blocks(model, s)
        e = 0.5 * (x_e**2 + p_e**2)
        assert 1.0 <= e[1] <= 2.0
        for j in (0, 2):
            assert 0.0 <= e[j] <= 1.0
            assert e[1] + e[j] <= 2.0
        assert np.max(np.abs(Q**2 + P**2 - 1.0)) < 1e-12
        assert assign_from_actions(action(x_e, p_e)) == 1


def test_sample_initial_mean_radial_action():
    """Mean of e_init over the triangle {e1 in [1,2], e2 in [0,1],
    e1+e2 <= 2} is its centroid coordinate 4/3."""
    model = build_model("I")
    rng = np.random.default_rng(2024)
    n = 40_000
    e1 = np.empty(n)
    for i in range(n):
        x_e, p_e, _, _ = blocks(model, sample_initial(model, 0, rng))
        e1[i] = 0.5 * (x_e[0]**2 + p_e[0]**2)
    assert e1.mean() == pytest.approx(4.0 / 3.0, abs=0.01)


def test_sample_initial_bad_state_index():
    with pytest.raises(ValueError):
        sample_initial(build_model("I"), 2, np.random.default_rng(0))


def one_at_a_time(model, init_state, rng):
    """The sampler drawn one value group at a time: the initial state's
    radius, the others', each attempt until it lies in the window, then theta
    and phi in two draws."""
    ne = model.n_states
    others = [k for k in range(ne) if k != init_state]
    e = np.empty(ne)
    while True:
        e[init_state] = rng.uniform(1.0, 2.0)
        e[others] = rng.uniform(0.0, 1.0, size=ne - 1)
        if np.all(e[init_state] + e[others] <= 2.0):
            break
    theta = rng.uniform(0.0, 2.0 * np.pi, size=ne)
    radius = np.sqrt(2.0 * e)
    phi = rng.uniform(0.0, 2.0 * np.pi, size=model.n_modes)
    return np.concatenate([radius * np.cos(theta), -radius * np.sin(theta),
                           np.cos(phi), -np.sin(phi)])


@settings(max_examples=40, deadline=None)
@given(model=custom_models(), init=st.integers(0, 2), a=st.integers(0, 40),
       count=st.integers(1, 40), seed=st.integers(0, 2**32 - 1))
@example(model=SiteExcitonModel("one", [[0.1]], [[(0.1, 0.02)]]), init=0, a=0, count=5, seed=3)
def test_chunk_sampling_draws_the_same_starts(model, init, a, count, seed):
    """Rows a..b-1 of a chunk's draw are, bit for bit, the starts that
    `sample_initial` and the one-group-at-a-time sampler give trajectory i
    from its own (seed, "sampling", i) stream, and a sequence of draws from
    one generator consumes it in the same order."""
    init, b = init % model.n_states, a + count
    batch = _sample_starts(model, init, seed, a, b)
    for i in range(a, b):
        alone = sample_initial(model, init, substream(seed, "sampling", i))
        reference = one_at_a_time(model, init, substream(seed, "sampling", i))
        assert batch[i - a].tobytes() == alone.tobytes() == reference.tobytes()
    rng, reference = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(3):
        assert (sample_initial(model, init, rng).tobytes()
                == one_at_a_time(model, init, reference).tobytes())


# ---------------------------------------------------------------------------
# propagation


def test_record_count():
    model = build_model("I")
    state = sample_initial(model, 0, np.random.default_rng(1))
    traj = propagate(model, state, IntegratorConfig(0.05), t_end=10.0, record_dt=1.0)
    assert traj.n_records == 11
    assert traj.times[0] == 0.0
    assert traj.times[-1] == pytest.approx(10.0)
    assert np.array_equal(traj.data[0], state)


def test_grid_validation():
    model = build_model("I")
    state = np.zeros(model.dim)
    with pytest.raises(ValueError, match="t_end"):
        propagate(model, state, IntegratorConfig(0.01), t_end=10.5, record_dt=1.0)
    with pytest.raises(ValueError, match="record_dt"):
        propagate(model, state, IntegratorConfig(0.03), t_end=10.0, record_dt=1.0)
    for wrong in (np.zeros(model.dim - 1), np.zeros((1, model.dim))):
        with pytest.raises(ValueError, match="model I needs a \\(36,\\) initial state"):
            propagate(model, wrong, IntegratorConfig(0.01), t_end=10.0, record_dt=1.0)


@pytest.mark.parametrize("workers", [1, 2])
def test_substep_grid_is_checked_before_any_chunk(monkeypatch, workers):
    """A record_dt that is no multiple of dt is refused before any chunk
    samples its starts or any worker starts."""
    def sampled(*args):
        raise AssertionError("a chunk sampled its starts")

    monkeypatch.setattr(sqc, "_sample_starts", sampled)
    with pytest.raises(ValueError, match="record_dt: 1.0 is not a positive multiple of 0.03"):
        run_ensemble(build_model("I"), 4, 0, 1, IntegratorConfig(0.03), 2.0, 1.0,
                     workers=workers)


def test_uncoupled_mode_returns_after_one_period():
    model = SiteExcitonModel("osc", [[0.0, 0.0], [0.0, 0.0]],
                             [[(0.2, 0.0)], []])
    state = np.array([0.0, 0.0, 0.0, 0.0, 1.0, 0.0])   # x_e | p_e | Q = 1 | P = 0
    period = 2 * np.pi * HBAR_EV_FS / 0.2   # about 20.68 fs
    icfg = IntegratorConfig(dt_internal=period / 2068)
    traj = propagate(model, state, icfg, t_end=period, record_dt=period)
    assert traj.data[-1, 4] == pytest.approx(1.0, abs=1e-6)
    assert traj.data[-1, 5] == pytest.approx(0.0, abs=1e-6)


def test_electronic_amplitudes_match_unitary_oracle():
    """With all couplings zeroed the mapping amplitudes evolve like a
    two-level Schroedinger problem; compare against the matrix exponential."""
    model = kappa_zeroed(build_model("I"))
    ens = run_ensemble(model, 20, 0, 77, IntegratorConfig(0.01), 100.0, 1.0)
    w, V = np.linalg.eigh(model.v)
    a0 = (ens.data[:, 0, :2] + 1j * ens.data[:, 0, 2:4]) / np.sqrt(2)
    worst = 0.0
    for it, t in enumerate(ens.times):
        U = V @ np.diag(np.exp(-1j * w * t / HBAR_EV_FS)) @ V.conj().T
        at = (ens.data[:, it, :2] + 1j * ens.data[:, it, 2:4]) / np.sqrt(2)
        worst = max(worst, np.max(np.abs(at - a0 @ U.T)))
    assert worst < 1e-6


def test_energy_conservation_short():
    model = build_model("I")
    ens = run_ensemble(model, 3, 0, 5, IntegratorConfig(0.01), 100.0, 1.0)
    energies = ensemble_energies(model, ens)
    assert np.max(np.abs(energies - energies[:, :1])) <= 1e-5


def mapping_norm_drift(model, ens):
    """|N(t) - N(0)| of every trajectory and record, N = sum_k (x_k^2 + p_k^2)/2."""
    E = ens.data[:, :, :2 * model.n_states]
    norm = 0.5 * np.sum(E * E, axis=-1)
    return np.abs(norm - norm[:, :1])


def norm_corner_model():
    """A model whose largest drift at dt 0.05 falls only 7.4-fold at dt 0.025:
    there the h^4 and h^5 terms of the error nearly cancel."""
    v = [[0.125, 0.0, 0.2], [0.0, 0.0, 0.0], [0.2, 0.0, 0.28125]]
    modes = [[(0.03125, -0.25), (0.25, 0.0), (0.25, 0.0)], [(0.25, 0.0)] * 9,
             [(0.25, 0.0)] * 4 + [(0.25, 0.25)]]
    return SiteExcitonModel("custom", v, modes)


@settings(max_examples=40, deadline=None)
@given(model=custom_models(), seed=st.integers(0, 2**32 - 1))
@example(model=norm_corner_model(), seed=0)
def test_mapping_norm_is_kept_to_rk4_order(model, seed):
    """The mapping norm N is exact for any kappa: xdot = M p and pdot = -M x
    with M = (V + diag(kappa.Q))/hbar symmetric give dN/dt = 0. RK4's mean
    drift over 4 trajectories and 5 fs (records every 1 fs) falls at least 8-fold
    when dt halves (16- to 32-fold in the limit; a first- or second-order
    stepper gives at most 4), wherever it is above roundoff. The largest
    drift alone can land where two orders of the error cancel."""
    assume(np.any(model.kappa != 0.0))
    coarse, fine = (mapping_norm_drift(model, run_ensemble(model, 4, 0, seed,
                                                           IntegratorConfig(dt), 5.0, 1.0))
                    for dt in (0.05, 0.025))
    if coarse.mean() > 1e-10:
        assert coarse.mean() >= 8.0 * fine.mean()


def test_mapping_norm_model_i():
    """Model I, 50 trajectories over 100 fs at dt 0.05 fs (seed 31): the norm
    drift read 4.7e-7 when first measured, and 1.6e-10 at dt 0.01 fs."""
    model = build_model("I")
    ens = run_ensemble(model, 50, 0, 31, IntegratorConfig(0.05), 100.0, 1.0)
    assert mapping_norm_drift(model, ens).max() < 1e-6


@settings(max_examples=25, deadline=None)
@given(model=custom_models(), n_axes=st.integers(0, 3),
       first=st.integers(0, 40) | st.integers(ENERGY_CHUNK - 8, ENERGY_CHUNK + 40),
       rest=st.tuples(st.integers(1, 3), st.integers(1, 3)), seed=st.integers(0, 2**32 - 1))
@example(model=build_model("I"), n_axes=2, first=ENERGY_CHUNK // 16 + 3, rest=(17, 1), seed=6)
def test_ensemble_energies_match_mm_energy(model, n_axes, first, rest, seed):
    """mm_energy takes any (..., dim) stack and returns its leading shape.
    Evaluated in chunks of ENERGY_CHUNK vectors, every energy is still the
    one mm_energy gives for that vector alone, bit for bit, and so is every
    energy ensemble_energies gives."""
    lead = (first, *rest)[:n_axes]
    data = np.random.default_rng(seed).normal(size=(*lead, model.dim))
    energies = mm_energy(model, data)
    assert energies.shape == lead
    expected = [mm_energy(model, data[idx]) for idx in np.ndindex(lead)]
    assert energies.tobytes() == np.array(expected).tobytes()
    if n_axes == 2:
        ens = TrajectoryEnsemble(1.0, data, model.n_states)
        assert ensemble_energies(model, ens).tobytes() == energies.tobytes()


def test_ensemble_energies_refuse_another_models_ensemble():
    """Models of different state counts can share a vector size (here 22);
    an ensemble of one is refused for the other, as is one of another size."""
    mode = (0.1, 0.02)
    two = SiteExcitonModel("two", [[0.1, 0.05], [0.05, 0.0]], [[mode] * 5, [mode] * 4])
    three = SiteExcitonModel("three", np.diag([0.1, 0.0, -0.1]), [[mode] * 3, [mode] * 3,
                                                                  [mode] * 2])
    assert two.dim == three.dim == 22
    ens = run_ensemble(three, 3, 0, 1, IntegratorConfig(0.05), 1.0, 1.0)
    with pytest.raises(ValueError, match="ensemble of model three has 3 states.*model two has 2"):
        ensemble_energies(two, ens)
    ens_i = run_ensemble(build_model("I"), 2, 0, 1, IntegratorConfig(0.05), 1.0, 1.0)
    with pytest.raises(ValueError, match="ensemble of model I .* model III"):
        ensemble_energies(build_model("III"), ens_i)


def test_time_reversal():
    model = build_model("I")
    state = sample_initial(model, 0, np.random.default_rng(4))
    icfg = IntegratorConfig(0.01)
    ne, nv = model.n_states, model.n_modes
    flip = np.repeat([1.0, -1.0, 1.0, -1.0], [ne, ne, nv, nv])   # p_e -> -p_e, P -> -P
    forward = propagate(model, state, icfg, 10.0, 10.0)
    back = propagate(model, forward.data[1] * flip, icfg, 10.0, 10.0).data[1]
    assert np.max(np.abs(back * flip - state)) < 1e-8


def test_integration_error_reports_time_and_variable():
    model = build_model("I")
    state = np.zeros(model.dim)
    state[0] = 1e200   # x_e[0]; overflows within the first recording interval
    with pytest.raises(IntegrationError) as err:
        propagate(model, state, IntegratorConfig(0.01), 2.0, 1.0)
    assert err.value.t > 0
    assert err.value.variable


# ---------------------------------------------------------------------------
# ensembles


def test_run_ensemble_shapes_and_determinism():
    model = build_model("I")
    icfg = IntegratorConfig(0.05)
    ens = run_ensemble(model, 6, 0, 11, icfg, 10.0, 1.0)
    assert ens.data.shape == (6, 11, 36)
    again = run_ensemble(model, 6, 0, 11, icfg, 10.0, 1.0)
    assert np.array_equal(ens.data, again.data)
    # each row equals the individually propagated trajectory, bit for bit
    state = sample_initial(model, 0, substream(11, "sampling", 3))
    single = propagate(model, state, icfg, 10.0, 1.0)
    assert np.array_equal(single.data, ens.data[3])


@pytest.mark.parametrize("label, workers", [("I", 1), ("III", 2), ("V", 3)])
def test_workers_score_the_drift_of_their_trajectories(label, workers, tmp_path):
    """Written into `out`, the ensemble is the one `run_ensemble` returns, and
    the drifts its workers score are the largest |E(t) - E(0)| through
    `ensemble_energies`, bit for bit, and the largest mapping-norm drift."""
    model = build_model(label)
    icfg, n_traj = IntegratorConfig(0.05), 7
    ens = run_ensemble(model, n_traj, 0, 4, icfg, 3.0, 1.0)
    path = str(tmp_path / "e.traj")
    with sqc.ensemble_file(path, model, ens.data.shape, 1.0, 4) as out:
        drift, norm_drift = run_ensemble(model, n_traj, 0, 4, icfg, 3.0, 1.0,
                                         workers=workers, out=out)
    assert TrajectoryEnsemble.load(path).data.tobytes() == ens.data.tobytes()
    energies = ensemble_energies(model, ens)
    assert drift == np.max(np.abs(energies - energies[:, :1])) > 0.0
    assert norm_drift == pytest.approx(mapping_norm_drift(model, ens).max(), rel=1e-6, abs=1e-15)


def test_out_must_be_a_row_writer_of_the_ensembles_shape(tmp_path):
    model = build_model("I")
    icfg = IntegratorConfig(0.05)
    shape = (3, 3, model.dim)
    path = tmp_path / "out.traj"
    expected = run_ensemble(model, 3, 0, 1, icfg, 2.0, 1.0).data.tobytes()
    for workers in (1, 2):
        with arrayio.payload_file(str(path), arrayio.ENSEMBLE, {}, (3, 2, model.dim)) as other:
            with pytest.raises(ValueError, match="shape"):
                run_ensemble(model, 3, 0, 1, icfg, 2.0, 1.0, workers=workers, out=other)
        assert not path.read_bytes().split(b"\n", 1)[1].strip(b"\0")   # no row written
        with arrayio.payload_file(str(path), arrayio.ENSEMBLE, {}, shape) as out:
            run_ensemble(model, 3, 0, 1, icfg, 2.0, 1.0, workers=workers, out=out)
        assert path.read_bytes().split(b"\n", 1)[1] == expected
    with pytest.raises(ValueError, match="init_state"):
        run_ensemble(model, 3, 2, 1, icfg, 2.0, 1.0, workers=2)


def test_run_ensemble_worker_invariance():
    model = build_model("I")
    icfg = IntegratorConfig(0.05)
    base = run_ensemble(model, 7, 0, 13, icfg, 5.0, 1.0, workers=1)
    for workers in (2, 3, 5):   # 5 outnumbers a small machine's cores
        other = run_ensemble(model, 7, 0, 13, icfg, 5.0, 1.0, workers=workers)
        assert np.array_equal(base.data, other.data)


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_fan_out_error_names_absolute_trajectory(workers):
    """The error names the earliest time, then the lowest trajectory, then
    its lowest variable, at any worker count."""
    model = build_model("I")
    Y0 = _sample_starts(model, 0, 5, 0, 6)
    Y0[4, 0] = 1e200   # overflows within the first recording interval
    with pytest.raises(IntegrationError) as err:
        _map_chunks(_propagate_batch, len(Y0), rows_of(Y0), (3, model.dim), workers,
                    model, IntegratorConfig(0.05), 1.0)
    assert err.value.trajectory == 4
    # trajectory 1 (amplified 50x) overflows by t = 2, trajectory 5 by t = 1;
    # amplified 100x, both overflow by t = 1
    for factor, t, trajectory in [(50.0, 1.0, 5), (100.0, 1.0, 1)]:
        Y0 = _sample_starts(model, 0, 5, 0, 6)
        Y0[1, :4] *= factor
        Y0[5, 0] = 1e200
        with pytest.raises(IntegrationError) as err:
            _map_chunks(_propagate_batch, len(Y0), rows_of(Y0), (11, model.dim), workers,
                        model, IntegratorConfig(0.05), 1.0)
        assert (err.value.t, err.value.trajectory, err.value.variable) == (t, trajectory, "x_e[0]")
    # no modes, no coupling: trajectory 0 fails only in state 1, trajectory 1
    # only in state 0, both by t = 1
    none = SiteExcitonModel("none", [[0.1, 0.0], [0.0, 0.2]], [[], []])
    Y0 = np.ones((2, none.dim))
    Y0[0, 3] = Y0[1, 2] = np.inf
    with pytest.raises(IntegrationError) as err:
        _map_chunks(_propagate_batch, len(Y0), rows_of(Y0), (3, none.dim), workers,
                    none, IntegratorConfig(0.05), 1.0)
    assert (err.value.t, err.value.trajectory, err.value.variable) == (1.0, 0, "x_e[1]")


MEMORY_PROBE = """
import resource, sys
from mmsqc.models import build_model
from mmsqc.sqc import IntegratorConfig, ensemble_energies, run_ensemble

model = build_model("I")
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
ens = run_ensemble(model, 3400, 0, 1, IntegratorConfig(0.5), 50.0, 1.0,
                   workers=int(sys.argv[1]))
ensemble_energies(model, ens)   # reads every record once more
grown = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before) * 1024
print(grown / ens.data.nbytes)
"""


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_fan_out_holds_one_copy_of_the_ensemble(workers):
    """The parent's peak RSS grows by about one payload (3400 x 51 x 36
    doubles, 50 MB) at any worker count: every chunk writes its rows to a
    temp file once, and nothing is sent back or stacked. Run in a fresh
    interpreter so that the high-water mark starts from a clean import."""
    src = os.path.dirname(os.path.dirname(mmsqc.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    probe = subprocess.run([sys.executable, "-c", MEMORY_PROBE, str(workers)], env=env,
                           capture_output=True, text=True, check=True, timeout=300)
    assert float(probe.stdout) < 1.5


WRITE_PROBE = """
import resource, sys
import numpy as np
from mmsqc import arrayio

src = np.random.default_rng(0).random((64, 1024, 64))   # 32 MB, resident before the copy
with arrayio.payload_file(sys.argv[1], arrayio.ENSEMBLE, {}, src.shape) as out:
    before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    out(0, src)
    grown = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before) * 1024
with open(sys.argv[1], "rb") as fh:
    print(fh.read().endswith(src.tobytes()), grown / src.nbytes)
"""


def test_one_worker_writes_out_through_the_file(tmp_path):
    """The writer's rows reach the file through its descriptor: the file
    gets every byte, and the peak RSS grows by far less than the 32 MB
    payload (by about one payload through a mapping of the file). Run in a
    fresh interpreter so that the high-water mark starts from a clean
    import."""
    src = os.path.dirname(os.path.dirname(mmsqc.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    probe = subprocess.run([sys.executable, "-c", WRITE_PROBE, str(tmp_path / "e.traj")],
                           env=env, capture_output=True, text=True, check=True, timeout=300)
    same, ratio = probe.stdout.split()
    assert same == "True" and float(ratio) < 0.1


def test_shared_ensemble_outlives_its_pool(tmp_path):
    """An ensemble from the worker fan-out is an ordinary array: C-contiguous,
    writable float64, byte-equal to the one-worker result once the workers
    have exited and after a collection, and through a save/load round trip."""
    model = build_model("I")
    icfg = IntegratorConfig(0.05)
    shared = run_ensemble(model, 9, 0, 21, icfg, 4.0, 1.0, workers=2)
    gc.collect()
    base = run_ensemble(model, 9, 0, 21, icfg, 4.0, 1.0, workers=1)
    data = shared.data
    assert data.dtype == np.float64 and data.flags.c_contiguous and data.flags.writeable
    assert data.tobytes() == base.data.tobytes()
    path = str(tmp_path / "shared.traj")
    shared.save(path)
    assert TrajectoryEnsemble.load(path).data.tobytes() == base.data.tobytes()


def test_temp_files_leave_tmpdir_as_found(tmp_path, monkeypatch):
    """In-memory rows and the best weights of `train` wait in unnamed temp
    files: a run, a run that fails in a worker and a training leave TMPDIR
    as they found it."""
    tmpdir = tmp_path / "tmp"
    tmpdir.mkdir()
    (tmpdir / "older").write_bytes(b"kept")
    monkeypatch.setattr(tempfile, "tempdir", str(tmpdir))
    model = build_model("I")
    icfg = IntegratorConfig(0.05)
    ens = run_ensemble(model, 3, 0, 1, icfg, 2.0, 1.0, workers=2)
    Y0 = _sample_starts(model, 0, 5, 0, 6)
    Y0[4, 0] = 1e200
    with pytest.raises(IntegrationError):
        _map_chunks(_propagate_batch, len(Y0), rows_of(Y0), (3, model.dim), 2, model, icfg, 1.0)
    dataset = SequenceDataset(3, model.dim, ens.data, ens.data[:1].copy())
    train(dataset, TrainConfig(seq_len=3, hidden=4, learning_rate=1e-3, epochs=2))
    assert [p.name for p in tmpdir.iterdir()] == ["older"]
    assert (tmpdir / "older").read_bytes() == b"kept"


def test_run_ensemble_rejects_zero_trajectories():
    with pytest.raises(ValueError):
        run_ensemble(build_model("I"), 0, 0, 1, IntegratorConfig(), 1.0, 1.0)


def test_model_v_state_dimension():
    model = build_model("V")
    ens = run_ensemble(model, 2, 0, 1, IntegratorConfig(0.05), 2.0, 1.0)
    assert ens.dim == 284


# ---------------------------------------------------------------------------
# populations


def test_populations_initial_certainty_and_normalization():
    model = build_model("I")
    ens = run_ensemble(model, 40, 0, 21, IntegratorConfig(0.05), 10.0, 1.0)
    pops = populations(ens)
    assert pops.values[0, 0] == 1.0
    assert pops.unassigned[0] == 0.0
    sums = pops.values[pops.defined].sum(axis=1)
    assert np.allclose(sums, 1.0, atol=1e-12)
    assert np.all((pops.values[pops.defined] >= 0) & (pops.values[pops.defined] <= 1))


def test_populations_flag_undefined():
    data = np.zeros((5, 3, 8))   # all mapping variables zero: nothing assigned
    ens = TrajectoryEnsemble(1.0, data, 2)
    pops = populations(ens)
    assert not pops.defined.any()
    assert np.all(np.isnan(pops.values))
    assert np.all(pops.unassigned == 1.0)


def test_populations_rabi_small():
    model = kappa_zeroed(build_model("I"))
    ens = run_ensemble(model, 400, 0, 99, IntegratorConfig(0.01), 20.0, 1.0)
    pops = populations(ens)
    theory = np.cos(0.2 * ens.times / HBAR_EV_FS)**2
    assert np.nanmax(np.abs(pops.values[:, 0] - theory)) < 0.08


# ---------------------------------------------------------------------------
# trajectories and file round trips


def test_trajectory_state_accessors():
    model = build_model("I")
    ens = run_ensemble(model, 2, 0, 3, IntegratorConfig(0.05), 3.0, 1.0)
    traj = Trajectory(ens.record_dt, ens.data[1], ens.n_states)
    assert traj.n_records == 4
    assert traj.times[2] == pytest.approx(2.0)


def test_ensemble_file_round_trip(tmp_path):
    model = build_model("I")
    ens = run_ensemble(model, 4, 0, 31, IntegratorConfig(0.05), 5.0, 1.0)
    path = str(tmp_path / "e.traj")
    ens.save(path)
    loaded = TrajectoryEnsemble.load(path)
    assert np.array_equal(loaded.data, ens.data)
    assert loaded.record_dt == ens.record_dt
    assert loaded.model_label == "I"
    assert loaded.seed == 31
    # byte-identical rewrite
    ens.save(str(tmp_path / "e2.traj"))
    assert (tmp_path / "e.traj").read_bytes() == (tmp_path / "e2.traj").read_bytes()
    assert loaded.content_hash() == ens.content_hash()


@settings(max_examples=80, deadline=None)
@given(n_states=st.integers(-2, 12), dim=st.integers(0, 24))
def test_ensemble_refuses_a_state_count_its_vectors_cannot_hold(n_states, dim):
    """An ensemble takes n_states only if its state vectors can be
    x_e|p_e|Q|P of n_states >= 1 states and some n_modes >= 0 modes."""
    fits = n_states >= 1 and any(dim == 2 * n_states + 2 * m for m in range(dim + 1))
    data = np.zeros((1, 2, dim))
    if fits:
        assert TrajectoryEnsemble(1.0, data, n_states).n_states == n_states
    else:
        with pytest.raises(ValueError, match=f"n_states {n_states} does not fit"):
            TrajectoryEnsemble(1.0, data, n_states)


@settings(max_examples=80, deadline=None)
@given(record_dt=st.floats() | st.sampled_from([0.0, -1.0, np.nan, np.inf, -np.inf, 0.5]))
def test_record_grid_must_be_finite_and_positive(record_dt):
    """Both trajectory containers refuse a record_dt that is NaN, infinite
    or not positive, and `load` reports it as a HeaderError that names the
    file; a finite positive record_dt loads as written."""
    data = np.zeros((2, 3, 4))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "e.traj")
        header = {**TrajectoryEnsemble(1.0, data, 1).header(), "record_dt": record_dt}
        arrayio.write_array_file(path, arrayio.ENSEMBLE, header, data)
        if 0.0 < record_dt < np.inf:
            assert TrajectoryEnsemble.load(path).record_dt == record_dt
            assert Trajectory(record_dt, data[0], 1).record_dt == record_dt
            return
        with pytest.raises(arrayio.HeaderError,
                           match=re.escape(f"{path}: record_dt must be finite and positive")):
            TrajectoryEnsemble.load(path)
    for make in (lambda: TrajectoryEnsemble(record_dt, data, 1),
                 lambda: Trajectory(record_dt, data[0], 1)):
        with pytest.raises(ValueError, match="record_dt must be finite and positive"):
            make()


@pytest.mark.parametrize("n_states", [0, -1, 19])
def test_load_refuses_a_state_count_the_vectors_cannot_hold(tmp_path, n_states):
    """A header whose n_states the vectors cannot hold is a HeaderError that
    names the file."""
    ens = run_ensemble(build_model("I"), 2, 0, 1, IntegratorConfig(0.05), 2.0, 1.0)
    path = tmp_path / "e.traj"
    ens.save(str(path))
    raw = path.read_bytes()
    assert raw.count(b'"n_states":2') == 1
    path.write_bytes(raw.replace(b'"n_states":2', b'"n_states":%d' % n_states))
    with pytest.raises(arrayio.HeaderError, match=re.escape(f"{path}: n_states {n_states} ")):
        TrajectoryEnsemble.load(str(path))


def test_ensemble_file_errors(tmp_path):
    model = build_model("I")
    ens = run_ensemble(model, 2, 0, 1, IntegratorConfig(0.05), 2.0, 1.0)
    path = str(tmp_path / "e.traj")
    ens.save(path)
    raw = (tmp_path / "e.traj").read_bytes()

    (tmp_path / "bad1.traj").write_bytes(b"not json" + raw)
    with pytest.raises(arrayio.HeaderError):
        TrajectoryEnsemble.load(str(tmp_path / "bad1.traj"))

    (tmp_path / "bad2.traj").write_bytes(raw[:-16])
    with pytest.raises(arrayio.PayloadSizeError):
        TrajectoryEnsemble.load(str(tmp_path / "bad2.traj"))

    header_end = raw.index(b"\n")
    tampered = raw[:header_end].replace(b'"version":1', b'"version":9') + raw[header_end:]
    (tmp_path / "bad3.traj").write_bytes(tampered)
    with pytest.raises(arrayio.VersionError):
        TrajectoryEnsemble.load(str(tmp_path / "bad3.traj"))
