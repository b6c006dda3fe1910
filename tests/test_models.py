import numpy as np
import pytest

from mmsqc.models import (
    CM1_TO_EV,
    DEBYE_SPEC,
    HBAR_EV_FS,
    DebyeBathSpec,
    Mode,
    SiteExcitonModel,
    build_model,
    debye_spectral_density,
    discretize_debye,
    load_model,
    save_model,
)
from mmsqc.sqc import _Hamiltonian, mm_energy
from reference_tables import DEBYE_MODES_EV, LOCAL_MODES_EV, SITE_MATRICES_EV


def test_site_matrices():
    for label, expected in SITE_MATRICES_EV.items():
        model = build_model(label)
        assert np.array_equal(model.v, np.array(expected))
        assert np.array_equal(model.v, model.v.T)


def test_mode_counts_and_dimensions():
    assert build_model("I").n_modes == 16
    assert build_model("I").dim == 36
    assert build_model("III").n_modes == 24
    assert build_model("III").dim == 54
    for label in ("V", "VI"):
        model = build_model(label)
        assert model.n_modes == 140
        assert model.dim == 284


def test_local_modes_match_reference_table():
    model = build_model("II")
    for modes in model.modes_per_state:
        table = np.array([(m.omega, m.kappa) for m in modes])
        assert np.array_equal(table, LOCAL_MODES_EV)


def test_unknown_model_rejected():
    with pytest.raises(ValueError, match="unknown model"):
        build_model("VII")


def test_debye_modes_reproduce_reference_table():
    modes = discretize_debye(DEBYE_SPEC)
    assert len(modes) == 70
    omegas = np.array([m.omega for m in modes])
    kappas = np.array([m.kappa for m in modes])
    # frequencies sit exactly on the 12 cm^-1 grid
    assert np.allclose(omegas, 12.0 * CM1_TO_EV * np.arange(1, 71), rtol=0, atol=1e-15)
    assert np.all(np.diff(omegas) > 0)
    # the reference table carries a slightly different cm^-1 -> eV constant
    assert np.all(np.abs(omegas - DEBYE_MODES_EV[:, 0]) / DEBYE_MODES_EV[:, 0] < 1e-3)
    assert np.all(np.abs(kappas - DEBYE_MODES_EV[:, 1]) / DEBYE_MODES_EV[:, 1] < 1e-3)


def test_debye_specific_rows():
    modes = discretize_debye(DEBYE_SPEC)
    assert modes[0].kappa == pytest.approx(0.00059338, rel=1e-3)
    assert modes[41].omega == pytest.approx(0.06248824, rel=1e-3)
    assert modes[41].kappa == pytest.approx(0.00270914, rel=1e-3)


def test_debye_zero_reorganization_energy():
    spec = DebyeBathSpec(reorg=0.0, omega_c=DEBYE_SPEC.omega_c,
                         n_modes=10, delta_omega=DEBYE_SPEC.delta_omega)
    assert all(m.kappa == 0.0 for m in discretize_debye(spec))


def test_debye_reorganization_energy_closure():
    """Sum kappa^2/(2 omega) must recover the truncated continuum integral."""
    spec = DEBYE_SPEC
    modes = discretize_debye(spec)
    discrete = sum(m.kappa**2 / (2.0 * m.omega) for m in modes)
    omega_max = spec.n_modes * spec.delta_omega
    analytic = spec.reorg * (2.0 / np.pi) * np.arctan(omega_max / spec.omega_c)
    grid = np.linspace(1e-9, omega_max, 200001)
    quadrature = np.trapezoid(
        debye_spectral_density(grid, spec.reorg, spec.omega_c) / grid, grid) / np.pi
    assert quadrature == pytest.approx(analytic, rel=1e-6)
    assert discrete == pytest.approx(analytic, rel=0.02)


def test_bad_bath_specs_rejected():
    with pytest.raises(ValueError):
        DebyeBathSpec(reorg=-1.0, omega_c=0.06, n_modes=70, delta_omega=0.0015)
    with pytest.raises(ValueError):
        DebyeBathSpec(reorg=0.01, omega_c=0.06, n_modes=0, delta_omega=0.0015)


def test_mode_validation():
    with pytest.raises(ValueError):
        Mode(omega=0.0, kappa=0.1)
    with pytest.raises(ValueError):
        Mode(omega=0.1, kappa=float("nan"))


def diagonal(model, Q):
    """V_kk + kappa_k.Q_k in eV, from the Hamiltonian the dynamics use."""
    ham = _Hamiltonian(model)
    Y = np.concatenate([np.zeros(2 * model.n_states), Q, np.zeros(model.n_modes)])
    return ham._diagonal(Y[:, None])[:, 0] * HBAR_EV_FS


def state(model, x_e=None, Q=None, P=None):
    """The x_e|p_e|Q|P vector with p_e = 0; unset blocks are zero."""
    zeros = np.zeros(model.n_modes)
    return np.concatenate([np.zeros(model.n_states) if x_e is None else x_e,
                           np.zeros(model.n_states),
                           zeros if Q is None else Q, zeros if P is None else P])


def kappa_zeroed(model):
    modes = [[Mode(m.omega, 0.0) for m in lst] for lst in model.modes_per_state]
    return SiteExcitonModel(model.label + "-k0", model.v, modes)


def test_diabatic_elements_at_origin():
    model = build_model("I")
    assert np.array_equal(diagonal(model, np.zeros(16)), np.zeros(2))
    # x = (1, 1): both weights are 1/2 - gamma on a zero diagonal, so only
    # the off-diagonal V_01 (x_0 x_1 + p_0 p_1) = 0.2 remains
    assert mm_energy(model, state(model, x_e=np.ones(2))) == pytest.approx(0.2)

    model2 = build_model("II")
    assert diagonal(model2, np.zeros(16)) == pytest.approx([0.2, 0.0])
    # x_0 = sqrt(2) gives state 0 the weight 1 - gamma; V_00 = 0.2 counts once
    excited = state(model2, x_e=np.array([np.sqrt(2.0), 0.0]))
    assert mm_energy(model2, excited) == pytest.approx(0.2 * (1.0 - 1.0 / 3.0))


def test_diabatic_elements_single_mode_displacement():
    model = build_model("I")
    Q = np.zeros(16)
    Q[2] = 1.0  # third table mode of state 0: omega 0.1649 eV, kappa -0.1120 eV
    diag = diagonal(model, Q)
    assert diag[0] == pytest.approx(-0.1120)
    assert diag[1] == pytest.approx(0.0)


def test_diabatic_elements_length_mismatch():
    model = build_model("I")
    with pytest.raises(ValueError, match="model I needs"):
        mm_energy(model, state(model, Q=np.zeros(15), P=np.zeros(15)))


def test_bath_energy_zero_and_single_mode():
    model = kappa_zeroed(build_model("I"))
    assert mm_energy(model, state(model)) == 0.0
    single = SiteExcitonModel("one-mode", [[0.0, 0.0], [0.0, 0.0]],
                              [[Mode(0.2, 0.0)], []])
    assert mm_energy(single, state(single, Q=np.array([1.0]))) == pytest.approx(0.1)


def test_bath_energy_model_v_ground_ring():
    """All rings at Q^2 + P^2 = 1: energy equals the direct table sum."""
    model = kappa_zeroed(build_model("V"))
    rng = np.random.default_rng(5)
    phi = rng.uniform(0, 2 * np.pi, size=140)
    energy = mm_energy(model, state(model, Q=np.cos(phi), P=np.sin(phi)))
    table_sum = 2 * np.sum(0.5 * DEBYE_MODES_EV[:, 0])
    assert energy == pytest.approx(table_sum, rel=1e-3)


def test_bath_energy_length_mismatch():
    model = build_model("V")
    with pytest.raises(ValueError):
        mm_energy(model, state(model, Q=np.zeros(140), P=np.zeros(139)))
    with pytest.raises(ValueError):
        mm_energy(model, state(model, Q=np.zeros(139), P=np.zeros(139)))


def test_asymmetric_matrix_rejected():
    with pytest.raises(ValueError, match="symmetric"):
        SiteExcitonModel("bad", [[0.0, 0.1], [0.2, 0.0]], [[], []])


def test_mode_list_count_must_match_states():
    with pytest.raises(ValueError, match="mode list per state"):
        SiteExcitonModel("bad", [[0.0, 0.1], [0.1, 0.0]], [[]])


def test_model_arrays_read_only():
    model = build_model("I")
    with pytest.raises(ValueError):
        model.v[0, 0] = 1.0
    with pytest.raises(ValueError):
        model.omega[0] = 1.0


@pytest.mark.parametrize("label", list(SITE_MATRICES_EV))
def test_config_round_trip(label, tmp_path):
    model = build_model(label)
    path = tmp_path / f"{label}.json"
    save_model(model, str(path))
    loaded = load_model(str(path))
    assert loaded.label == model.label
    assert np.array_equal(loaded.v, model.v)
    assert loaded.modes_per_state == model.modes_per_state


def test_config_rejects_garbage(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("not json {")
    with pytest.raises(ValueError, match="not a model config"):
        load_model(str(path))
    path.write_text('{"n_states": 2}')
    with pytest.raises(ValueError, match="invalid model config"):
        load_model(str(path))
