import json
import math
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from isogeo import checks as ck
from isogeo import experiments as xp
from isogeo.data import GaussianNuisanceModel
from isogeo.errors import ConfigError, UndertrainedModelError, ValidationError
from isogeo.network import Layer, MlpEncoderDecoder, NetSpec, init_network
from isogeo.rng import RngState


class TestReportMachinery:
    def test_report_serializes(self, tmp_path):
        r = ck.CheckReport("demo", True, {"x": 1.0}, {"floor": 0.5}, seed=3)
        path = tmp_path / "reports.json"
        ck.write_reports([r], str(path))
        loaded = json.loads(path.read_text())
        assert loaded[0]["check_id"] == "demo"
        assert loaded[0]["passed"] is True

    def test_unknown_check_rejected(self):
        with pytest.raises(ValidationError):
            ck.run_checks(["does_not_exist"])

    def test_empty_check_list_rejected(self):
        with pytest.raises(ConfigError):
            ck.run_checks([])


class TestFalseFailRate:
    def test_z_star_is_the_bonferroni_normal_quantile(self):
        assert ck.FALSE_FAIL_ALPHA == 1e-3
        assert ck.z_star(1) == pytest.approx(3.2905, abs=1e-4)
        assert ck.z_star(3) == pytest.approx(3.5879, abs=1e-4)
        assert ck.z_star(200) == pytest.approx(4.5648, abs=1e-4)

    # Each seed failed its check under the former fixed-SE rules (trace: 4
    # sample SEs per pair; remainder: sigma^4 ratio of point estimates in
    # [8, 32]; suppression: 3 sample SEs).
    @pytest.mark.parametrize(
        "check_id, seed",
        [
            ("isotropic_trace_identity", 21),
            ("linearized_drift_remainder", 59),
            ("suppression_cost_exact", 130),
        ],
    )
    def test_former_false_fail_seed_passes(self, check_id, seed):
        (report,) = ck.run_checks([check_id], seed=seed)
        assert report.passed, report.measured


class TestLemmaChecks:
    def test_subblock(self):
        assert ck.check_subblock_inequality(seed=0).passed

    def test_stein_quadratic_both_sides_zero(self):
        r = ck.check_stein_identity(g_tag="quadratic", seed=0)
        assert r.passed
        assert abs(r.measured["lhs"]) < 4 * r.se["lhs"]
        assert abs(r.measured["rhs"]) < 4 * r.se["rhs"]

    def test_stein_cubic_both_sides_three(self):
        r = ck.check_stein_identity(g_tag="cubic", seed=0)
        assert r.passed
        assert r.measured["lhs"] == pytest.approx(3.0, abs=4 * r.se["lhs"])
        assert r.measured["rhs"] == pytest.approx(3.0, abs=4 * r.se["rhs"])

    def test_stein_bad_tag(self):
        with pytest.raises(ValidationError):
            ck.check_stein_identity(g_tag="quartic")

    def test_encoding_necessity(self):
        r = ck.check_encoding_necessity(seed=0)
        assert r.passed
        assert r.measured["direct_derivative"] == 0.5

    def test_bregman_gap(self):
        r = ck.check_bregman_loss_gap(seed=0)
        assert r.passed
        assert r.measured["gap_blind_toy"] == pytest.approx(0.0, abs=1e-12)
        assert r.measured["gap_dependent_toy"] > 0.1

    def test_linearized_drift(self):
        r = ck.check_linearized_drift(seed=0)
        assert r.passed
        assert abs(r.measured["linear_remainder"]) < 1e-12
        ratio = r.measured["scaling_ratio_02_01"]
        assert 8.0 <= ratio <= 32.0


class TestPropositionChecks:
    def test_trace_identity(self):
        r = ck.check_isotropic_trace_identity(seed=0)
        assert r.passed
        assert r.measured["sufficiency_failures"] == 0
        assert r.measured["necessity_witnessed"] == 50

    def test_trace_identity_dim_validation(self):
        with pytest.raises(ValidationError):
            ck.check_isotropic_trace_identity(dim=1)

    def test_anisotropy_floor(self):
        r = ck.check_anisotropy_floor(seed=0)
        assert r.passed
        assert r.measured["rank1"] == pytest.approx(1.0, abs=1e-9)
        assert r.measured["identity"] == pytest.approx(6.0, abs=1e-9)

    def test_cap_fixed_point_small(self):
        # smaller grid for the unit test; the full sweep runs in acceptance
        r = ck.check_cap_fixed_point(caps=(0.25, 0.30), seed=0, steps=2500)
        assert r.passed
        assert r.measured["fraction_cap=0.25"] == pytest.approx(0.2, abs=0.01)


class TestMainChecks:
    def test_sensitivity_floor_passes_on_trained_net(self):
        r = ck.check_nuisance_sensitivity_floor(seed=0)
        assert r.passed
        assert r.measured["linearized_drift"] >= r.bounds["drift_floor"]

    def test_sensitivity_floor_rejects_untrained_net(self):
        model = GaussianNuisanceModel.canonical(8, 8, 0.5, 0.1)
        net, _ = init_network(
            NetSpec(16, (), 8, 1, "identity"), RngState(0)
        )
        with pytest.raises(UndertrainedModelError) as err:
            ck.check_nuisance_sensitivity_floor(model=model, net=net, seed=0)
        assert err.value.measured_loss > model.bayes_mse()

    def test_sensitivity_floor_rho_zero_trivial(self):
        model = GaussianNuisanceModel.canonical(8, 8, 0.0, 0.1)
        r = ck.check_nuisance_sensitivity_floor(model=model, seed=0)
        assert r.passed
        assert r.bounds["drift_floor"] == 0.0

    @pytest.mark.parametrize("eval_rows, jacobian_rows", [(100, 100), (600, 512)])
    def test_sensitivity_floor_counts_the_rows_it_measures(self, eval_rows, jacobian_rows):
        # the exact Bayes net: identity encoder, decoder (w_s, rho w_n)
        model = ck.default_model()
        d = model.d_in
        net = MlpEncoderDecoder(
            [Layer(np.eye(d), np.zeros(d), "identity")],
            Layer(np.concatenate([model.w_s, model.rho * model.w_n])[None, :], np.zeros(1),
                  "identity"),
        )
        r = ck.check_nuisance_sensitivity_floor(model=model, net=net, eval_rows=eval_rows)
        assert r.n_samples == {"eval_rows": eval_rows, "jacobian_rows": jacobian_rows}
        assert r.passed

    def test_bound_scales_quadratically_in_rho(self):
        # doubling rho quadruples the reported floor exactly (same L by
        # construction: the floor formula is rho^2 / L^2)
        sigma = 0.1
        lip = 1.3
        floors = [sigma**2 * rho**2 / lip**2 for rho in (0.25, 0.5)]
        assert floors[1] == pytest.approx(4.0 * floors[0])

    def test_suppression_cost(self):
        r = ck.check_suppression_cost_exact(seed=0, n=200_000)
        assert r.passed
        for rho in (0.1, 0.5, 0.9):
            assert r.measured[f"gap_rho={rho:g}"] == pytest.approx(
                rho**2, abs=3.5 * r.se[f"gap_rho={rho:g}"]
            )

    def test_proper_loss_floor(self):
        r = ck.check_proper_loss_drift_floor(seed=0)
        assert r.passed
        assert r.measured["enumeration_error"] <= 1e-12
        assert r.measured["drift_lhs"] >= r.bounds["drift_floor"]

    def test_subspace_recovery(self):
        r = ck.check_nuisance_subspace_recovery(seed=0)
        assert r.passed
        assert r.measured["cosine"] >= 0.99

    def test_reports_deterministic_under_seed(self):
        a = ck.check_suppression_cost_exact(seed=7, n=50_000)
        b = ck.check_suppression_cost_exact(seed=7, n=50_000)
        assert a.measured == b.measured
        c = ck.check_isotropic_trace_identity(seed=7, n_pairs=20, mc_per_pair=500)
        d = ck.check_isotropic_trace_identity(seed=7, n_pairs=20, mc_per_pair=500)
        assert c.measured == d.measured


class TestTrainedChecksReadTheExperiments:
    """The trained-model checks measure through the experiments' code: the
    signature reads experiments.compare_metrics and the cap check reads
    run_capsweep, so their values are those tables' cells."""

    SMALL = xp.ExperimentConfig(
        kind="compare", steps=60, eval_rows=48, mc_draws=4, sigma_eval=(0.05,)
    )

    def test_signature_values_are_the_compare_cells(self):
        r = ck.check_adversarial_geometry_signature(seed=3, n_seeds=2, config=self.SMALL)
        for seed in (3, 4):
            table = xp.run_compare(replace(self.SMALL, seed=seed))
            for method in ("erm", "pgd", "pmh"):
                assert r.measured[f"seed={seed}:tdi_{method}"] == table.get(method, "tdi_at_0")[0]
                assert r.measured[f"seed={seed}:fro_{method}"] == table.get(method, "jac_fro_sq")[0]

    def test_cap_fractions_are_the_capsweep_column(self):
        caps = (0.1, 0.6)
        r = ck.check_cap_fixed_point(caps=caps, steps=200, seed=18)
        table = xp.run_capsweep(
            xp.default_config("capsweep", seed=18, steps=200, cap_grid=caps)
        )
        for cap in caps:
            assert r.measured[f"fraction_cap={cap:g}"] == table.get(f"cap@{cap:g}", "fraction")[0]

    def test_diverged_signature_nets_fail_without_raising(self):
        config = replace(self.SMALL, steps=100, lr=1e6, loss="mse")
        r = ck.check_adversarial_geometry_signature(seed=0, n_seeds=2, config=config)
        assert not r.passed
        assert r.measured["pgd_signature_seeds"] == 0
        assert r.measured["pmh_signature_seeds"] == 0
        for seed in (0, 1):
            for method in ("erm", "pgd", "pmh"):
                assert math.isnan(r.measured[f"seed={seed}:tdi_{method}"])
                assert math.isnan(r.measured[f"seed={seed}:fro_{method}"])

    def test_diverged_cap_nets_fail_without_raising(self, monkeypatch):
        monkeypatch.setitem(xp.KIND_DEFAULTS["capsweep"], "lr", 1e6)
        r = ck.check_cap_fixed_point(caps=(0.1, 0.3), steps=50)
        assert not r.passed
        assert all(math.isnan(v) for v in r.measured.values())

    @pytest.mark.parametrize("n_seeds", [0, -1])
    def test_signature_needs_a_seed(self, n_seeds):
        with pytest.raises(ValidationError, match="n_seeds"):
            ck.check_adversarial_geometry_signature(n_seeds=n_seeds, config=self.SMALL)

    def test_cap_check_needs_a_cap(self):
        with pytest.raises(ConfigError, match="nonempty cap grid"):
            ck.check_cap_fixed_point(caps=())


class TestBulkChecks:
    @pytest.mark.parametrize("n", [0, 1])
    def test_stein_and_encoding_need_two_draws(self, n):
        with pytest.raises(ValidationError):
            ck.check_stein_identity(n=n)
        with pytest.raises(ValidationError):
            ck.check_encoding_necessity(n=n)

    def test_suppression_cost_needs_a_draw(self):
        with pytest.raises(ValidationError):
            ck.check_suppression_cost_exact(n=0)

    def test_smallest_counts_give_finite_reports(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            reports = [
                ck.check_stein_identity(n=2),
                ck.check_encoding_necessity(n=2),
                ck.check_suppression_cost_exact(n=1),
            ]
        for r in reports:
            assert np.isfinite(list(r.measured.values()) + list(r.se.values())).all()

    @pytest.mark.parametrize(
        "run",
        [
            lambda n: ck.check_encoding_necessity(n=n),
            lambda n: ck.check_suppression_cost_exact(n=n, rhos=(0.5,)),
        ],
        ids=["encoding_necessity", "suppression_cost_exact"],
    )
    def test_memory_is_a_few_vectors_and_one_block(self, run):
        # The rows come in blocks: a check holds its per-row statistic and
        # one block, not the n-row sample (16 or 8 doubles a row).
        n = 200_000
        run(100)  # one-time allocations
        tracemalloc.start()
        try:
            run(n)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 48 * n + 2 * 2**20


class TestRegistry:
    def test_all_checks_have_unique_ids(self):
        # fast subset only; ids must match registry keys
        fast = [
            "subblock_inequality",
            "anisotropy_floor",
            "bregman_loss_gap",
            "nuisance_subspace_recovery",
        ]
        reports = ck.run_checks(fast, seed=0)
        assert [r.check_id for r in reports] == fast
