import hashlib
import json
import string
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mmsqc.models import (
    CM1_TO_EV,
    DEBYE_SPEC,
    HBAR_EV_FS,
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
    for sl in model.state_slices:
        table = np.stack([model.omega[sl], model.kappa[sl]], axis=1)
        assert np.array_equal(table, LOCAL_MODES_EV)


def test_unknown_model_rejected():
    with pytest.raises(ValueError, match="unknown model"):
        build_model("VII")


def test_debye_modes_reproduce_reference_table():
    modes = discretize_debye(**DEBYE_SPEC)
    assert len(modes) == 70
    omegas, kappas = modes.T
    # frequencies sit exactly on the 12 cm^-1 grid
    assert np.allclose(omegas, 12.0 * CM1_TO_EV * np.arange(1, 71), rtol=0, atol=1e-15)
    assert np.all(np.diff(omegas) > 0)
    # the reference table carries a slightly different cm^-1 -> eV constant
    assert np.all(np.abs(omegas - DEBYE_MODES_EV[:, 0]) / DEBYE_MODES_EV[:, 0] < 1e-3)
    assert np.all(np.abs(kappas - DEBYE_MODES_EV[:, 1]) / DEBYE_MODES_EV[:, 1] < 1e-3)


def test_debye_specific_rows():
    modes = discretize_debye(**DEBYE_SPEC)
    assert modes[0, 1] == pytest.approx(0.00059338, rel=1e-3)
    assert modes[41, 0] == pytest.approx(0.06248824, rel=1e-3)
    assert modes[41, 1] == pytest.approx(0.00270914, rel=1e-3)


def test_debye_zero_reorganization_energy():
    table = discretize_debye(reorg=0.0, omega_c=DEBYE_SPEC["omega_c"],
                             n_modes=10, delta_omega=DEBYE_SPEC["delta_omega"])
    assert all(kappa == 0.0 for kappa in table[:, 1])


def test_debye_reorganization_energy_closure():
    """Sum kappa^2/(2 omega) must recover the truncated continuum integral."""
    reorg, omega_c = DEBYE_SPEC["reorg"], DEBYE_SPEC["omega_c"]
    modes = discretize_debye(**DEBYE_SPEC)
    discrete = sum(kappa**2 / (2.0 * omega) for omega, kappa in modes)
    omega_max = DEBYE_SPEC["n_modes"] * DEBYE_SPEC["delta_omega"]
    analytic = reorg * (2.0 / np.pi) * np.arctan(omega_max / omega_c)
    grid = np.linspace(1e-9, omega_max, 200001)
    quadrature = np.trapezoid(
        debye_spectral_density(grid, reorg, omega_c) / grid, grid) / np.pi
    assert quadrature == pytest.approx(analytic, rel=1e-6)
    assert discrete == pytest.approx(analytic, rel=0.02)


def test_bad_bath_specs_rejected():
    with pytest.raises(ValueError):
        discretize_debye(reorg=-1.0, omega_c=0.06, n_modes=70, delta_omega=0.0015)
    with pytest.raises(ValueError):
        discretize_debye(reorg=0.01, omega_c=0.06, n_modes=0, delta_omega=0.0015)


def test_mode_validation():
    """A non-positive or non-finite frequency, or a non-finite coupling, is
    refused, and the error names the state and the mode."""
    v = [[0.0, 0.1], [0.1, 0.0]]
    nan, inf = float("nan"), float("inf")
    for omega, kappa in [(0.0, 0.1), (-0.1, 0.1), (nan, 0.1), (inf, 0.1),
                         (0.1, nan), (0.1, inf), (0.1, -inf)]:
        with pytest.raises(ValueError, match="state 0 mode 0"):
            SiteExcitonModel("bad", v, [[(omega, kappa)], []])
        with pytest.raises(ValueError, match="state 1 mode 2"):
            SiteExcitonModel("bad", v, [[(0.1, 0.0)], [(0.1, 0.0), (0.2, 0.0), (omega, kappa)]])


def test_mode_tables_need_pairs():
    v = [[0.0, 0.1], [0.1, 0.0]]
    for modes in ([[0.1, 0.2], []], [[(0.1, 0.2, 0.3)], []]):
        with pytest.raises(ValueError, match="state 0 needs \\(omega, kappa\\) pairs"):
            SiteExcitonModel("bad", v, modes)
    table = SiteExcitonModel("ok", v, [np.array([[0.1, 0.2]]), np.empty((0, 2))])
    assert table.state_slices == (slice(0, 1), slice(1, 1))


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
    modes = [[(w, 0.0) for w in model.omega[sl]] for sl in model.state_slices]
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
                              [[(0.2, 0.0)], []])
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
    assert loaded.omega.tobytes() == model.omega.tobytes()
    assert loaded.kappa.tobytes() == model.kappa.tobytes()
    assert loaded.state_slices == model.state_slices


def test_config_rejects_garbage(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("not json {")
    with pytest.raises(ValueError, match="not a model config"):
        load_model(str(path))
    path.write_text('{"n_states": 2}')
    with pytest.raises(ValueError, match="invalid model config"):
        load_model(str(path))


# sha256 of each built-in model's config file as `save_model` writes it
CONFIG_SHA256 = {
    "I": "6a7b85a03d2607186d52cc8cc32925d76c1b3ccad61101c20d7d26e4c168cb56",
    "II": "63e2abbd66f0b0218adb154461546f3b624edcea12f2e958f30c648bf10808f6",
    "III": "15f3fd1cc2b8f242f91b40103401b4f8e8ecf1f2256a00d4a65e3d493ce1d201",
    "IV": "d9553f0e43764a71c4ed2f92a892c7adc59712e2b7b1945d15c6665274888c2f",
    "V": "36ddd5a79a167665b37a369d139657a28a6a893691eb68fad19a103ed61f17cb",
    "VI": "40929a15a056aa8081446cd8c520ec9c82de4509c768500a5bd6924a46230eb3",
}


@pytest.mark.parametrize("label", list(CONFIG_SHA256))
def test_config_file_bytes(label, tmp_path):
    path = tmp_path / f"{label}.json"
    save_model(build_model(label), str(path))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == CONFIG_SHA256[label]


def number_places(config):
    """Every place of a model config that holds a number, as key paths."""
    places = [("n_states",)]
    places += [("v", i, j) for i, row in enumerate(config["v"]) for j in range(len(row))]
    places += [("modes_per_state", k, j, key)
               for k, modes in enumerate(config["modes_per_state"])
               for j in range(len(modes)) for key in ("omega", "kappa")]
    return places


def put(config, place, value):
    """Set the entry at the key path `place` of a nested config; return the old one."""
    *parents, last = place
    for key in parents:
        config = config[key]
    old, config[last] = config[last], value
    return old


@pytest.mark.parametrize("place, value, message", [
    (("modes_per_state", 0, 3, "omega"), True, "omega must be a JSON number, got true"),
    (("modes_per_state", 1, 0, "kappa"), None, "kappa must be a JSON number, got null"),
    (("n_states",), True, "n_states must be a JSON integer, got true"),
    (("n_states",), 2.0, "n_states must be a JSON integer, got 2.0"),
    (("v", 0, 1), "0.2", 'v must be a JSON number, got "0.2"'),
    (("label",), 1, "label must be a string, got 1")])
def test_config_refuses_non_numbers(tmp_path, place, value, message):
    config = build_model("I").to_config()
    put(config, place, value)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(config))
    with pytest.raises(ValueError, match=f"invalid model config: {message}"):
        load_model(str(path))


@settings(max_examples=60, deadline=None)
@given(label=st.sampled_from(list(SITE_MATRICES_EV)), data=st.data())
def test_config_corrupted_number_is_refused(label, data):
    """An uncorrupted config round-trips to the same bytes. One number of it
    replaced at a drawn place by a non-number (n_states also by a float) is
    refused, and the error names the key."""
    model = build_model(label)
    config = model.to_config()
    place = data.draw(st.sampled_from(number_places(config)))
    key = place[-1] if isinstance(place[-1], str) else "v"
    number = put(config, place, None)
    bad = [True, False, None, str(number), [number], {key: number}]
    put(config, place, data.draw(st.sampled_from(bad + [float(number)] * (key == "n_states"))))
    with tempfile.TemporaryDirectory() as tmp:
        path = f"{tmp}/model.json"
        save_model(model, path)
        with open(path, "rb") as fh:
            text = fh.read()
        save_model(load_model(path), path)
        with open(path, "rb") as fh:
            assert fh.read() == text
        with open(path, "w") as fh:
            json.dump(config, fh)
        with pytest.raises(ValueError, match=f"invalid model config: {key} must be a JSON"):
            load_model(path)


@settings(max_examples=60, deadline=None)
@given(label=st.sampled_from(list(SITE_MATRICES_EV)), data=st.data())
def test_config_refuses_unknown_keys(label, data):
    """A built-in config round-trips to its pinned bytes. One extra key
    inserted at a drawn place, top level or in a drawn mode, is refused by
    name, not ignored."""
    config = build_model(label).to_config()
    modes = [m for state_modes in config["modes_per_state"] for m in state_modes]
    place = data.draw(st.sampled_from([config, *modes]))
    known = {"label", "n_states", "v", "modes_per_state", "omega", "kappa"}
    key = data.draw(st.sampled_from(["lable", "kapa", "Omega", "mode", ""])
                    | st.text(string.ascii_letters + "_ ", max_size=8).filter(
                        lambda k: k not in known))
    place[key] = data.draw(st.sampled_from([0.1, "x", None, [], {}]))
    with tempfile.TemporaryDirectory() as tmp:
        path = f"{tmp}/model.json"
        save_model(load_model_text(path, build_model(label).to_config()), path)
        with open(path, "rb") as fh:
            assert hashlib.sha256(fh.read()).hexdigest() == CONFIG_SHA256[label]
        with pytest.raises(ValueError, match=f"invalid model config: unknown key {key!r}"):
            load_model_text(path, config)


def load_model_text(path, config):
    """Write `config` as JSON to `path` and load it as a model."""
    with open(path, "w") as fh:
        json.dump(config, fh)
    return load_model(path)


def test_config_refuses_repeated_keys(tmp_path):
    """A repeated key is refused by name, not resolved to its last value."""
    good, path = tmp_path / "I.json", tmp_path / "dup.json"
    save_model(build_model("I"), str(good))
    text = good.read_text()
    path.write_text(text.replace('"label": "I"', '"label": "I", "label": "II"'))
    with pytest.raises(ValueError, match="not a model config: repeated key 'label'"):
        load_model(str(path))
    path.write_text(text.replace('"kappa": -0.0266,', '"kappa": -0.0266, "kappa": 0.0,', 1))
    with pytest.raises(ValueError, match="repeated key 'kappa'"):
        load_model(str(path))
