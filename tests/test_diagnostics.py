import json
import tracemalloc

import numpy as np
import pytest

from isogeo import diagnostics
from isogeo.data import GaussianNuisanceModel, sample
from isogeo.diagnostics import (
    DiagnosticsReport,
    anisotropy_index,
    diagnose,
    directional_sensitivity,
    jac_frobenius,
    jacobian_lipschitz_fd,
    linearization_remainder,
    lipschitz_track,
    nuisance_subspace,
    tdi,
)
from isogeo.errors import DegenerateDirectionError, ValidationError
from isogeo.network import (
    Layer,
    MlpEncoderDecoder,
    NetSpec,
    init_network,
    stack_networks,
    tangents,
)
from isogeo.rng import RngState, derive, gaussian_matrix, normal


def linear_encoder(w, dec=None):
    rep = w.shape[0]
    dec_w = np.ones((1, rep)) if dec is None else dec
    return MlpEncoderDecoder(
        [Layer(w, np.zeros(rep), "identity")],
        Layer(dec_w, np.zeros(dec_w.shape[0]), "identity"),
    )


def jacobian(net, x):
    """(n, rep, d) Jacobians from the kernel's columns J e_k."""
    return np.stack(list(tangents(net, x, np.eye(net.input_dim))), axis=-1)


def tanh_net(seed=1, d=6, hidden=(10,), rep=5):
    net, _ = init_network(NetSpec(d, hidden, rep), RngState(seed))
    return net


class TestTdi:
    def test_identity_encoder_equals_sigma_squared(self):
        d = 6
        net = linear_encoder(np.eye(d))
        x, _ = normal(RngState(1), (2000, d))
        sigma = 0.1
        (res,), _ = tdi(net, x, [sigma], 64, RngState(2))
        # exact ratio for the identity map: sigma^2 d / E||x||^2
        expected = sigma**2 * d / np.mean(np.sum(x**2, axis=1))
        assert abs(res.value - expected) < 3 * res.se

    def test_constant_encoder_raises_on_zero_magnitude(self):
        net = MlpEncoderDecoder(
            [Layer(np.zeros((3, 4)), np.zeros(3), "tanh")],
            Layer(np.ones((1, 3)), np.zeros(1), "identity"),
        )
        x, _ = normal(RngState(3), (10, 4))
        with pytest.raises(DegenerateDirectionError):
            tdi(net, x, [0.1], 4, RngState(4))

    def test_constant_nonzero_encoder_gives_zero(self):
        # constant output via zero weight + nonzero bias: displacement 0
        net = MlpEncoderDecoder(
            [Layer(np.zeros((3, 4)), np.ones(3), "tanh")],
            Layer(np.ones((1, 3)), np.zeros(1), "identity"),
        )
        x, _ = normal(RngState(5), (10, 4))
        (res,), _ = tdi(net, x, [0.1], 4, RngState(6))
        assert res.value == 0.0

    def test_linear_layer_trace_oracle(self):
        w, _ = gaussian_matrix(RngState(7), 5, 6, 1.0)
        net = linear_encoder(w)
        x, _ = normal(RngState(8), (1000, 6))
        sigma = 0.2
        (res,), _ = tdi(net, x, [sigma], 64, RngState(9))
        expected = sigma**2 * np.sum(w**2) / np.mean(np.sum((x @ w.T) ** 2, axis=1))
        assert abs(res.value - expected) < 3 * res.se

    def test_sigma_zero_probes_at_default_scale(self):
        net = tanh_net()
        x, _ = normal(RngState(10), (50, 6))
        (res,), _ = tdi(net, x, [0.0], 8, RngState(11))
        assert res.sigma_requested == 0.0
        assert res.sigma_probe == 0.01
        assert res.probed_at_zero

    def test_rotation_invariance_linear_encoder(self):
        # rotating the input distribution and the weights together leaves
        # TDI unchanged (same draws, rotated): exact up to float roundoff
        w, _ = gaussian_matrix(RngState(12), 4, 6, 1.0)
        x, _ = normal(RngState(13), (500, 6))
        g, _ = gaussian_matrix(RngState(14), 6, 6, 1.0)
        q, _ = np.linalg.qr(g)
        net = linear_encoder(w)
        net_rot = linear_encoder(w @ q.T)
        (res,), _ = tdi(net, x, [0.1], 32, RngState(15))
        # rotated inputs: same batch expressed in the rotated frame
        (res_rot,), _ = tdi(net_rot, x @ q.T, [0.1], 32, RngState(15))
        # the noise draws differ by the rotation, so allow MC-level slack
        assert abs(res.value - res_rot.value) < 3 * np.hypot(res.se, res_rot.se)

    def test_mc_draws_validation(self):
        net = tanh_net()
        x, _ = normal(RngState(16), (10, 6))
        with pytest.raises(ValidationError):
            tdi(net, x, [0.1], 0, RngState(17))

    @pytest.mark.parametrize(
        "sigmas", [[], [-0.1], [0.1, float("inf")], [float("nan"), 0.1], [0.0, -0.0, -1e-300]]
    )
    def test_bad_sigmas_rejected_before_any_draw(self, sigmas, monkeypatch):
        # sigma * unit draw would turn inf into NaN noise without a word
        def no_draw(*args):
            raise AssertionError("drew noise before validating sigmas")

        monkeypatch.setattr(diagnostics, "normal", no_draw)
        net = tanh_net()
        x, _ = normal(RngState(16), (10, 6))
        with pytest.raises(ValidationError):
            tdi(net, x, sigmas, 4, RngState(17))

    def test_grid_entries_equal_one_sigma_calls(self):
        # one unit draw per Monte-Carlo draw serves every sigma, bit for bit
        net = tanh_net(seed=23)
        x, _ = normal(RngState(24), (33, 6))
        grid = [0.0, 0.3, 1e-3, 0.05, 2.0, 0.05]
        results, nxt = tdi(net, x, grid, 5, RngState(25))
        assert [r.sigma_requested for r in results] == grid
        for s, res in zip(grid, results):
            (alone,), alone_nxt = tdi(net, x, [s], 5, RngState(25))
            assert res == alone
            assert alone_nxt == nxt


class TestDrift:
    def test_zero_encoder(self):
        # zero weights with a nonzero bias: a constant, nonvanishing encoder
        net = MlpEncoderDecoder(
            [Layer(np.zeros((3, 4)), np.ones(3), "identity")],
            Layer(np.ones((1, 3)), np.zeros(1), "identity"),
        )
        x, _ = normal(RngState(18), (20, 4))
        (res,), _ = tdi(net, x, [0.3], 8, RngState(19))
        assert res.drift.value == 0.0

    def test_linear_trace_oracle(self):
        w, _ = gaussian_matrix(RngState(20), 5, 6, 1.0)
        net = linear_encoder(w)
        x, _ = normal(RngState(21), (200, 6))
        sigma = 0.15
        (res,), _ = tdi(net, x, [sigma], 128, RngState(22))
        assert res.drift.n == 128
        assert abs(res.drift.value - sigma**2 * np.sum(w**2)) < 3 * res.drift.se

    def test_tanh_remainder_bounded_by_curvature(self):
        net = tanh_net(seed=23, d=8, hidden=(12,), rep=6)
        x, _ = normal(RngState(24), (256, 8))
        beta, _ = jacobian_lipschitz_fd(net, x, RngState(25))
        sigma = 0.1
        rem, _ = linearization_remainder(net, x, sigma, 256, RngState(26))
        bound = 1.5 * beta**2 * x.shape[1] ** 2 * sigma**4
        assert abs(rem.value) <= bound + 3 * rem.se

    def test_lipschitz_needs_pairs_at_a_positive_distance(self):
        net = tanh_net()
        x, _ = normal(RngState(30), (4, 6))
        for kwargs in ({"n_pairs": 0}, {"distance": 0.0}, {"distance": -0.1},
                       {"distance": float("nan")}):
            with pytest.raises(ValidationError):
                jacobian_lipschitz_fd(net, x, RngState(31), **kwargs)

    def test_linear_remainder_exactly_zero(self):
        w, _ = gaussian_matrix(RngState(27), 4, 5, 1.0)
        net = linear_encoder(w)
        x, _ = normal(RngState(28), (64, 5))
        rem, _ = linearization_remainder(net, x, 0.2, 16, RngState(29))
        assert abs(rem.value) < 1e-14


class TestJacFrobenius:
    def test_linear_equals_weight_frobenius(self):
        w, _ = gaussian_matrix(RngState(30), 4, 6, 1.0)
        net = linear_encoder(w)
        x, _ = normal(RngState(31), (10, 6))
        res = jac_frobenius(net, x)
        assert res.value == pytest.approx(np.sum(w**2), rel=1e-12)
        assert res.n == 10

    def test_zero_net(self):
        net = linear_encoder(np.zeros((3, 5)))
        x, _ = normal(RngState(32), (4, 5))
        res = jac_frobenius(net, x)
        assert res.value == 0.0
        assert res.se == 0.0

    @pytest.mark.parametrize("hidden", [(10,), (10, 7)], ids=["one_hidden", "two_hidden"])
    def test_tanh_matches_analytic_jacobians(self, hidden):
        net = tanh_net(seed=33, hidden=hidden)
        x, _ = normal(RngState(34), (64, 6))
        rows = np.sum(jacobian(net, x) ** 2, axis=(1, 2))
        res = jac_frobenius(net, x)
        assert res.value == pytest.approx(float(np.mean(rows)), rel=1e-12)
        assert res.se == pytest.approx(float(rows.std(ddof=1) / np.sqrt(64)), rel=1e-10)

    def test_peak_memory_below_one_jacobian_stack(self):
        # the (n, rep, d) float64 stack of these rows would take 8 MiB
        net, _ = init_network(NetSpec(16, (32,), 16), RngState(35))
        x, _ = normal(RngState(36), (4096, 16))
        tracemalloc.start()
        try:
            jac_frobenius(net, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4096 * 16 * 16 * 8

    def test_remainder_peak_memory_below_one_jacobian_stack(self):
        # per-row tangents of one draw at a time, whatever the draw count
        net, _ = init_network(NetSpec(16, (32,), 16), RngState(35))
        x, _ = normal(RngState(36), (4096, 16))
        tracemalloc.start()
        try:
            linearization_remainder(net, x, 0.1, 8, RngState(37))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4096 * 16 * 16 * 8


class TestDirectionalSensitivity:
    def test_linear_exact(self):
        w, _ = gaussian_matrix(RngState(38), 4, 6, 1.0)
        net = linear_encoder(w)
        v, _ = normal(RngState(39), 6)
        v /= np.linalg.norm(v)
        x, _ = normal(RngState(40), (8, 6))
        vals = directional_sensitivity(net, x, v)
        assert np.allclose(vals, np.linalg.norm(w @ v), atol=1e-9)

    def test_null_space_direction(self):
        w = np.zeros((3, 4))
        w[:, :2] = np.eye(3)[:, :2] if False else np.array([[1.0, 0], [0, 1], [1, 1]])
        net = linear_encoder(w)
        null_dir = np.array([0.0, 0.0, 1.0, 0.0])
        x, _ = normal(RngState(41), (5, 4))
        vals = directional_sensitivity(net, x, null_dir)
        assert np.all(vals == 0.0)

    def test_tanh_matches_analytic_jacobian(self):
        net = tanh_net(seed=42, hidden=(10, 7))
        x, _ = normal(RngState(43), (32, 6))
        v, _ = normal(RngState(44), 6)
        v /= np.linalg.norm(v)
        exact = np.linalg.norm(jacobian(net, x) @ v, axis=1)
        np.testing.assert_allclose(directional_sensitivity(net, x, v), exact, rtol=1e-12)
        assert directional_sensitivity(net, x[0], v) == pytest.approx(exact[0], rel=1e-12)

    def test_stack_slices_equal_each_net(self):
        nets = [tanh_net(seed=46 + k) for k in range(3)]
        x, r = normal(RngState(49), (3, 7, 6))
        v, _ = normal(r, 6)
        v /= np.linalg.norm(v)
        got = directional_sensitivity(stack_networks(nets), x, v)
        assert got.shape == (3, 7)
        for k, net in enumerate(nets):
            assert np.array_equal(got[k], directional_sensitivity(net, x[k], v))

    def test_requires_unit_direction(self):
        net = tanh_net()
        x, _ = normal(RngState(45), (2, 6))
        with pytest.raises(ValidationError):
            directional_sensitivity(net, x, np.full(6, 0.9))


class TestAnisotropy:
    def test_rank_one_is_exactly_one(self):
        u, r = normal(RngState(46), 4)
        v, _ = normal(r, 6)
        v /= np.linalg.norm(v)
        net = linear_encoder(np.outer(u, v))
        x, _ = normal(RngState(47), (16, 6))
        assert anisotropy_index(net, x, v) == pytest.approx(1.0, abs=1e-9)

    def test_identity_is_exactly_d(self):
        d = 5
        net = linear_encoder(np.eye(d))
        v, _ = normal(RngState(48), d)
        v /= np.linalg.norm(v)
        x, _ = normal(RngState(49), (16, d))
        assert anisotropy_index(net, x, v) == pytest.approx(d, abs=1e-9)

    def test_always_at_least_one_random_sweep(self):
        rng = RngState(50)
        for _ in range(200):
            w, rng = gaussian_matrix(rng, 5, 5, 1.0)
            v, rng = normal(rng, 5)
            v /= np.linalg.norm(v)
            net = linear_encoder(w)
            x, rng = normal(rng, (8, 5))
            assert anisotropy_index(net, x, v) >= 1.0 - 1e-9

    def test_degenerate_direction_raises(self):
        w = np.zeros((3, 4))
        w[:, 0] = 1.0
        net = linear_encoder(w)
        x, _ = normal(RngState(51), (4, 4))
        dead = np.array([0.0, 1.0, 0.0, 0.0])
        with pytest.raises(DegenerateDirectionError):
            anisotropy_index(net, x, dead)


class TestLipschitz:
    def test_identity_decoder(self):
        net = linear_encoder(np.eye(3), dec=np.eye(3))
        est = lipschitz_track(net)
        assert est.value == pytest.approx(1.0, abs=1e-10)

    def test_scaled_unit_row(self):
        v = np.zeros((1, 4))
        v[0, 1] = 1.0
        net = linear_encoder(np.eye(4), dec=2.0 * v)
        assert lipschitz_track(net).value == pytest.approx(2.0, abs=1e-10)

    def test_random_decoder_matches_svd(self):
        dec, _ = gaussian_matrix(RngState(52), 3, 5, 1.0)
        net = linear_encoder(np.eye(5), dec=dec)
        oracle = np.linalg.svd(dec, compute_uv=False)[0]
        assert lipschitz_track(net).value == pytest.approx(oracle, rel=1e-8)

    def test_golden_init_net_matches_svd_exactly(self):
        spec = NetSpec(input_dim=16, hidden=(32,), rep_dim=16, out_dim=1, activation="tanh")
        net, _ = init_network(spec, derive(20, "golden-net"))
        est = lipschitz_track(net)
        assert est.value == np.linalg.svd(net.decoder.weight, compute_uv=False)[0]
        assert est.encoder_layer_norms == tuple(
            np.linalg.svd(layer.weight, compute_uv=False)[0] for layer in net.encoder
        )

    def test_zero_decoder_is_exactly_zero(self):
        net = linear_encoder(np.eye(3), dec=np.zeros((2, 3)))
        assert lipschitz_track(net).value == 0.0


class TestNuisanceSubspace:
    def test_empty_for_r_zero(self):
        net = tanh_net(seed=53, d=4, hidden=(), rep=3)
        x, r = normal(RngState(54), (16, 4))
        y, _ = normal(r, 16)
        dirs, sens = nuisance_subspace(net, x, y, 0, [])
        assert dirs.shape == (0, 4)
        assert sens.shape == (0,)

    def test_recovers_nuisance_direction_for_optimal_predictor(self):
        model = GaussianNuisanceModel.canonical(4, 4, 0.5, 0.1)
        d = model.d_in
        net = MlpEncoderDecoder(
            [Layer(np.eye(d), np.zeros(d), "identity")],
            Layer(np.concatenate([model.w_s, model.rho * model.w_n])[None, :], np.zeros(1), "identity"),
        )
        batch, _ = sample(model, 2000, RngState(55))
        w_s_full = np.concatenate([model.w_s, np.zeros(model.d_n)])
        dirs, sens = nuisance_subspace(net, batch.x, batch.y, 1, [w_s_full])
        w_n_full = np.concatenate([np.zeros(model.d_s), model.w_n])
        assert abs(dirs[0] @ w_n_full) >= 0.99
        assert sens.shape == (1,)

    def test_monotone_in_r(self):
        net = tanh_net(seed=56, d=6, hidden=(8,), rep=4)
        x, r = normal(RngState(57), (64, 6))
        y, _ = normal(r, 64)
        totals = []
        for r_dims in (1, 2, 3, 4):
            _, sens = nuisance_subspace(net, x, y, r_dims, [])
            totals.append(float(np.sum(sens)))
        assert all(b >= a - 1e-12 for a, b in zip(totals, totals[1:]))

    def test_r_bound_validation(self):
        net = tanh_net(seed=58, d=4, hidden=(), rep=3)
        x, r = normal(RngState(59), (8, 4))
        y, _ = normal(r, 8)
        with pytest.raises(ValidationError):
            nuisance_subspace(net, x, y, 4, [np.eye(4)[0]])


class TestDiagnoseReport:
    def test_report_roundtrip_and_csv(self, tmp_path):
        net = tanh_net(seed=77)
        x, _ = normal(RngState(78), (64, 6))
        report = diagnose(
            net,
            x,
            [0.05, 0.1],
            RngState(79),
            mc_draws=8,
            run_id="t",
            probe_directions={"e0": np.eye(6)[0]},
        )
        jpath = tmp_path / "report.json"
        report.to_json(str(jpath))
        loaded = json.loads(jpath.read_text())
        assert loaded["run_id"] == "t"
        assert "tdi_at_0" in loaded and loaded["tdi_at_0"]["sigma_probe"] == 0.01
        cpath = tmp_path / "report.csv"
        report.to_csv(str(cpath))
        lines = cpath.read_text().strip().split("\n")
        assert lines[0] == "run_id,metric,sigma,value,se"
        assert len(lines) > 4

    def test_drift_comes_from_the_tdi_draws(self):
        net = tanh_net(seed=83)
        x, _ = normal(RngState(84), (32, 6))
        report = diagnose(net, x, [0.05, 0.2], RngState(85), mc_draws=4)
        (zero, *grid), _ = tdi(net, x, [0.0, 0.05, 0.2], 4, RngState(85))
        assert report.tdi_at_0 == {"value": zero.value, "se": zero.se, "sigma_probe": 0.01}
        for s, res in zip((0.05, 0.2), grid):
            assert report.tdi[s] == (res.value, res.se)
            assert report.drift[s] == (res.drift.value, res.drift.se)
        fro = jac_frobenius(net, x)
        assert report.jac_fro == {"value": fro.value, "se": fro.se}
        assert ("run", "jac_fro", 0.0, fro.value, fro.se) in report.csv_rows()

    @pytest.mark.parametrize("grid", [[0.0, 0.1], [0.1, -0.2], [float("nan")]])
    def test_rejects_nonpositive_sigma(self, grid):
        net = tanh_net(seed=86)
        x, _ = normal(RngState(87), (8, 6))
        with pytest.raises(ValidationError):
            diagnose(net, x, grid, RngState(88), mc_draws=2)

    def test_anisotropy_floor_in_report(self):
        net = tanh_net(seed=80)
        x, _ = normal(RngState(81), (32, 6))
        report = diagnose(
            net, x, [0.1], RngState(82), mc_draws=4, probe_directions={"e0": np.eye(6)[0]}
        )
        assert report.anisotropy >= 1.0 - 1e-9
