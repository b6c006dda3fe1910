import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from mmsqc import arrayio
from mmsqc.models import HBAR_EV_FS, Mode, SiteExcitonModel, build_model
from mmsqc.sqc import (
    ENERGY_CHUNK,
    IntegrationError,
    IntegratorConfig,
    PhaseSpaceState,
    Trajectory,
    TrajectoryEnsemble,
    WindowConfig,
    action,
    assign_from_actions,
    eom,
    mm_energy,
    pack_state,
    populations,
    propagate,
    run_ensemble,
    sample_initial,
    unpack_state,
    window_assign,
    ensemble_energies,
    _Hamiltonian,
    _map_chunks,
    _propagate_chunk,
    _sample_starts,
    _tree_sum_rows,
)
from mmsqc.streams import substream

GAMMA = 1.0 / 3.0


def zero_state(model, t=0.0):
    return PhaseSpaceState(np.zeros(model.n_states), np.zeros(model.n_states),
                           np.zeros(model.n_modes), np.zeros(model.n_modes), t=t)


def kappa_zeroed(model):
    modes = [[Mode(m.omega, 0.0) for m in lst] for lst in model.modes_per_state]
    return SiteExcitonModel(model.label + "-k0", model.v, modes)


def unequal_model():
    """Three states with 3, 0 and 5 modes; states 0 and 2 are not coupled."""
    rng = np.random.default_rng(17)
    modes = [[Mode(float(rng.uniform(0.05, 0.2)), float(rng.normal(scale=0.05)))
              for _ in range(count)] for count in (3, 0, 5)]
    v = [[0.1, 0.05, 0.0], [0.05, -0.02, 0.07], [0.0, 0.07, 0.0]]
    return SiteExcitonModel("unequal", v, modes)


def random_state(model, seed):
    rng = np.random.default_rng(seed)
    return PhaseSpaceState(rng.normal(size=model.n_states),
                           rng.normal(size=model.n_states),
                           rng.normal(size=model.n_modes),
                           rng.normal(size=model.n_modes))


# ---------------------------------------------------------------------------
# configs, actions, windows


def test_config_validation():
    with pytest.raises(ValueError):
        WindowConfig(gamma=0.0)
    with pytest.raises(ValueError):
        WindowConfig(gamma=1.0)
    with pytest.raises(ValueError):
        IntegratorConfig(dt_internal=0.0)


def test_action_values():
    cfg = WindowConfig()
    assert action(np.sqrt(2.0), 0.0, cfg) == pytest.approx(2.0 / 3.0)
    assert action(0.0, 0.0, cfg) == pytest.approx(-GAMMA)
    assert action(1.0, 1.0, cfg) == pytest.approx(2.0 / 3.0)


def test_window_assign_examples():
    cfg = WindowConfig()
    assert assign_from_actions(np.array([0.8, -0.1]), cfg) == 0
    assert assign_from_actions(np.array([0.5, 0.5]), cfg) == -1
    # all mapping variables zero
    assert window_assign(np.zeros(2), np.zeros(2), cfg) is None
    x = np.sqrt(2.0 * np.array([0.8 + GAMMA, -0.1 + GAMMA]))
    assert window_assign(x, np.zeros(2), cfg) == 0


def test_window_disjointness_random_actions():
    rng = np.random.default_rng(123)
    cfg = WindowConfig()
    for n_states in (2, 3):
        n = rng.uniform(-GAMMA, 2.0, size=(200_000, n_states))
        positive = np.zeros(len(n), dtype=int)
        for k in range(n_states):
            ok = n[:, k] + cfg.gamma >= 1.0
            for j in range(n_states):
                if j != k:
                    ok &= (n[:, j] + cfg.gamma >= 0.0) & (n[:, k] + n[:, j] <= 2 - 2 * cfg.gamma)
            positive += ok
        assert positive.max() <= 1
        # the vectorized assignment agrees with the per-window evaluation
        assigned = assign_from_actions(n, cfg)
        assert np.array_equal(assigned >= 0, positive == 1)


# ---------------------------------------------------------------------------
# energy and equations of motion


def test_mm_energy_examples():
    assert mm_energy(build_model("I"), zero_state(build_model("I"))) == 0.0
    m2 = build_model("II")
    assert mm_energy(m2, zero_state(m2)) == pytest.approx(-GAMMA * 0.2)
    excited = PhaseSpaceState(np.array([np.sqrt(2 * (1 + GAMMA)), 0.0]), np.zeros(2),
                              np.zeros(16), np.zeros(16))
    assert mm_energy(m2, excited) == pytest.approx(0.2)


def test_mm_energy_dimension_mismatch():
    with pytest.raises(ValueError):
        mm_energy(build_model("I"), zero_state(build_model("III")))


def test_eom_at_origin():
    """At the origin the electronic derivatives and dQ vanish; the nuclear
    momenta feel the residual zero-point force dP = gamma*kappa/hbar from the
    -gamma shift in the mapping weight."""
    model = build_model("I")
    dx, dp, dQ, dP = eom(model, zero_state(model))
    assert np.array_equal(dx, np.zeros(2))
    assert np.array_equal(dp, np.zeros(2))
    assert np.array_equal(dQ, np.zeros(16))
    assert np.allclose(dP, GAMMA * model.kappa / HBAR_EV_FS, rtol=1e-12)


@pytest.mark.parametrize("label,seed", [("I", 0), ("I", 1), ("III", 2), ("V", 3),
                                        ("unequal", 4)])
def test_eom_matches_energy_gradient(label, seed):
    """Hamilton's equations = (1/hbar) * symplectic gradient of the energy."""
    model = unequal_model() if label == "unequal" else build_model(label)
    state = random_state(model, seed)
    dx, dp, dQ, dP = eom(model, state)
    vec = pack_state(state)
    h = 1e-6
    grad = np.zeros(model.dim)
    for i in range(model.dim):
        vp, vm = vec.copy(), vec.copy()
        vp[i] += h
        vm[i] -= h
        ep = mm_energy(model, unpack_state(vp, model.n_states))
        em = mm_energy(model, unpack_state(vm, model.n_states))
        grad[i] = (ep - em) / (2 * h)
    ne, nv = model.n_states, model.n_modes
    dE_dx = grad[:ne]
    dE_dp = grad[ne:2 * ne]
    dE_dQ = grad[2 * ne:2 * ne + nv]
    dE_dP = grad[2 * ne + nv:]
    expected = np.concatenate([dE_dp, -dE_dx, dE_dP, -dE_dQ]) / HBAR_EV_FS
    got = np.concatenate([dx, dp, dQ, dP])
    assert np.max(np.abs(got - expected)) <= 1e-8 * np.max(np.abs(expected))


class PerStateDeriv:
    """Hamilton's equations one state at a time: each state's diagonal is its
    own tree sum, and each coupling is added only where V_kl != 0, in
    increasing l. The reference for _Hamiltonian._deriv."""

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
    modes = [[Mode(draw(st.floats(0.01, 0.3)), draw(energy))
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
    ham = _Hamiltonian(model, GAMMA)
    dY = ham._deriv(Y, np.empty_like(Y))
    assert np.array_equal(dY, PerStateDeriv(model, GAMMA)(Y))
    i = seed % n
    row = np.ascontiguousarray(Y[:, i:i + 1])
    assert ham._deriv(row, np.empty_like(row)).tobytes() == dY[:, i:i + 1].tobytes()
    energies = ham._energy(Y)
    for j in range(n):
        want, scale = per_state_energy(model, Y[:, j], GAMMA)
        assert abs(energies[j] - want) <= 1e-12 * scale


# ---------------------------------------------------------------------------
# sampling


def test_sample_initial_support_and_rings():
    model = build_model("III")
    cfg = WindowConfig()
    for i in range(500):
        s = sample_initial(model, 1, cfg, substream(9, "sampling", i))
        e = 0.5 * (s.x_e**2 + s.p_e**2)
        assert 1.0 <= e[1] <= 2.0
        for j in (0, 2):
            assert 0.0 <= e[j] <= 1.0
            assert e[1] + e[j] <= 2.0
        assert np.max(np.abs(s.Q**2 + s.P**2 - 1.0)) < 1e-12
        assert window_assign(s.x_e, s.p_e, cfg) == 1
        assert s.t == 0.0


def test_sample_initial_mean_radial_action():
    """Mean of e_init over the triangle {e1 in [1,2], e2 in [0,1],
    e1+e2 <= 2} is its centroid coordinate 4/3."""
    model = build_model("I")
    cfg = WindowConfig()
    rng = np.random.default_rng(2024)
    n = 40_000
    e1 = np.empty(n)
    for i in range(n):
        s = sample_initial(model, 0, cfg, rng)
        e1[i] = 0.5 * (s.x_e[0]**2 + s.p_e[0]**2)
    assert e1.mean() == pytest.approx(4.0 / 3.0, abs=0.01)


def test_sample_initial_bad_state_index():
    with pytest.raises(ValueError):
        sample_initial(build_model("I"), 2, WindowConfig(), np.random.default_rng(0))


# ---------------------------------------------------------------------------
# propagation


def test_record_count():
    model = build_model("I")
    state = sample_initial(model, 0, WindowConfig(), np.random.default_rng(1))
    traj = propagate(model, state, IntegratorConfig(0.05), t_end=10.0, record_dt=1.0)
    assert traj.n_records == 11
    assert traj.times[0] == 0.0
    assert traj.times[-1] == pytest.approx(10.0)
    assert np.array_equal(traj.data[0], pack_state(state))


def test_grid_validation():
    model = build_model("I")
    state = zero_state(model)
    with pytest.raises(ValueError, match="t_end"):
        propagate(model, state, IntegratorConfig(0.01), t_end=10.5, record_dt=1.0)
    with pytest.raises(ValueError, match="record_dt"):
        propagate(model, state, IntegratorConfig(0.03), t_end=10.0, record_dt=1.0)


def test_uncoupled_mode_returns_after_one_period():
    model = SiteExcitonModel("osc", [[0.0, 0.0], [0.0, 0.0]],
                             [[Mode(0.2, 0.0)], []])
    state = PhaseSpaceState(np.zeros(2), np.zeros(2), np.array([1.0]), np.array([0.0]))
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


def test_ensemble_energies_match_mm_energy():
    """Evaluated in chunks of ENERGY_CHUNK states, every energy is still
    the one mm_energy gives for that state alone, bit for bit."""
    model = build_model("I")
    data = np.random.default_rng(6).normal(size=(ENERGY_CHUNK // 16 + 3, 17, model.dim))
    energies = ensemble_energies(model, TrajectoryEnsemble(1.0, data, model.n_states))
    expected = [[mm_energy(model, unpack_state(y, model.n_states)) for y in traj]
                for traj in data]
    assert energies.tobytes() == np.array(expected).tobytes()


def test_time_reversal():
    model = build_model("I")
    state = sample_initial(model, 0, WindowConfig(), np.random.default_rng(4))
    icfg = IntegratorConfig(0.01)
    forward = propagate(model, state, icfg, 10.0, 10.0)
    end = forward.state(1)
    flipped = PhaseSpaceState(end.x_e, -end.p_e, end.Q, -end.P)
    back = propagate(model, flipped, icfg, 10.0, 10.0).state(1)
    returned = np.concatenate([back.x_e, -back.p_e, back.Q, -back.P])
    assert np.max(np.abs(returned - pack_state(state))) < 1e-8


def test_integration_error_reports_time_and_variable():
    model = build_model("I")
    state = zero_state(model)
    state.x_e[0] = 1e200   # overflows within the first recording interval
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
    state = sample_initial(model, 0, WindowConfig(), substream(11, "sampling", 3))
    single = propagate(model, state, icfg, 10.0, 1.0)
    assert np.array_equal(single.data, ens.data[3])


def test_run_ensemble_worker_invariance():
    model = build_model("I")
    icfg = IntegratorConfig(0.05)
    base = run_ensemble(model, 7, 0, 13, icfg, 5.0, 1.0, workers=1)
    for workers in (2, 3):
        other = run_ensemble(model, 7, 0, 13, icfg, 5.0, 1.0, workers=workers)
        assert np.array_equal(base.data, other.data)


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_fan_out_error_names_absolute_trajectory(workers):
    """The error names the earliest time, then the lowest trajectory, then
    its lowest variable, at any worker count."""
    model = build_model("I")
    Y0 = _sample_starts(model, 6, 0, 5, WindowConfig())
    Y0[4, 0] = 1e200   # overflows within the first recording interval
    with pytest.raises(IntegrationError) as err:
        _map_chunks(_propagate_chunk, Y0, workers,
                    model, IntegratorConfig(0.05), 2.0, 1.0, GAMMA)
    assert err.value.trajectory == 4
    # trajectory 1 (amplified 50x) overflows by t = 2, trajectory 5 by t = 1;
    # amplified 100x, both overflow by t = 1
    for factor, t, trajectory in [(50.0, 1.0, 5), (100.0, 1.0, 1)]:
        Y0 = _sample_starts(model, 6, 0, 5, WindowConfig())
        Y0[1, :4] *= factor
        Y0[5, 0] = 1e200
        with pytest.raises(IntegrationError) as err:
            _map_chunks(_propagate_chunk, Y0, workers,
                        model, IntegratorConfig(0.05), 10.0, 1.0, GAMMA)
        assert (err.value.t, err.value.trajectory, err.value.variable) == (t, trajectory, "x_e[0]")
    # no modes, no coupling: trajectory 0 fails only in state 1, trajectory 1
    # only in state 0, both by t = 1
    none = SiteExcitonModel("none", [[0.1, 0.0], [0.0, 0.2]], [[], []])
    Y0 = np.ones((2, none.dim))
    Y0[0, 3] = Y0[1, 2] = np.inf
    with pytest.raises(IntegrationError) as err:
        _map_chunks(_propagate_chunk, Y0, workers, none, IntegratorConfig(0.05), 2.0, 1.0, GAMMA)
    assert (err.value.t, err.value.trajectory, err.value.variable) == (1.0, 0, "x_e[1]")


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
# state packing and file round trips


def test_pack_unpack_round_trip():
    model = build_model("III")
    state = random_state(model, 8)
    vec = pack_state(state)
    assert vec.shape == (54,)
    back = unpack_state(vec, 3, t=2.0)
    assert np.array_equal(back.x_e, state.x_e)
    assert np.array_equal(back.P, state.P)
    assert back.t == 2.0


def test_trajectory_state_accessors():
    model = build_model("I")
    ens = run_ensemble(model, 2, 0, 3, IntegratorConfig(0.05), 3.0, 1.0)
    traj = ens.trajectory(1)
    assert traj.n_records == 4
    assert traj.state(2).t == pytest.approx(2.0)


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
