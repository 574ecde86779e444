import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isogeo.data import (
    GaussianNuisanceModel,
    model_batch_source,
    sample,
    sample_stack,
    threshold_labels,
)
from isogeo.errors import TrainingDivergedError, ValidationError
from isogeo.network import (
    Layer,
    MlpEncoderDecoder,
    NetSpec,
    backward,
    forward_with_trace,
    init_network,
    input_gradient,
    stack_networks,
)
from isogeo.objectives import (
    PgdConfig,
    TrainConfig,
    WarmupSchedule,
    cap_rescale,
    cross_entropy_loss,
    mse_loss,
    multiscale_sigma,
    pgd_attack,
    pmh_loss,
    train,
    train_stack,
    warmup_weight,
)
from isogeo.rng import RngState, normal


class TestWarmup:
    def test_endpoints(self):
        sched = WarmupSchedule(t0=100, duration=400)
        assert warmup_weight(100, sched) == 0.0
        assert warmup_weight(500, sched) == 1.0
        assert warmup_weight(0, sched) == 0.0
        assert warmup_weight(10_000, sched) == 1.0

    def test_linear_midpoint(self):
        sched = WarmupSchedule(t0=100, duration=400)
        assert warmup_weight(300, sched) == pytest.approx(0.5)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(-50, 2000), st.integers(0, 500), st.integers(1, 500))
    def test_range_property(self, t, t0, duration):
        w = warmup_weight(t, WarmupSchedule(t0, duration))
        assert 0.0 <= w <= 1.0

    def test_bad_schedule(self):
        with pytest.raises(ValidationError):
            WarmupSchedule(0, 0)


def _noisy(x, sigma, rng):
    """x plus one fresh N(0, sigma^2) noise row per batch row."""
    delta, _ = normal(rng, x.shape, sigma)
    return x + delta


class TestPmhLoss:
    def test_identical_views_are_exactly_zero(self):
        net, _ = init_network(NetSpec(4, (6,), 3), RngState(1))
        x, _ = normal(RngState(2), (5, 4))
        val, grads = pmh_loss(net, x, x)
        assert val == 0.0
        for dw, db in grads.encoder:
            assert np.all(dw == 0) and np.all(db == 0)

    def test_constant_encoder_zero_loss(self):
        net = MlpEncoderDecoder(
            [Layer(np.zeros((3, 4)), np.ones(3), "tanh")],
            Layer(np.ones((1, 3)), np.zeros(1), "identity"),
        )
        x, _ = normal(RngState(4), (6, 4))
        val, _ = pmh_loss(net, x, _noisy(x, 0.5, RngState(5)))
        assert val == 0.0

    def test_linear_layer_trace_oracle(self):
        # E loss = sigma^2 ||W||_F^2 for a single linear layer
        w, _ = normal(RngState(6), (5, 4))
        net = MlpEncoderDecoder(
            [Layer(w, np.zeros(5), "identity")],
            Layer(np.ones((1, 5)), np.zeros(1), "identity"),
        )
        x, _ = normal(RngState(7), (8, 4))
        sigma = 0.3
        rng = RngState(8)
        calls = 150  # each call averages 8 fresh noise rows
        vals = np.zeros(calls)
        for i in range(calls):
            delta, rng = normal(rng, x.shape, sigma)
            vals[i], _ = pmh_loss(net, x, x + delta)
        exact = sigma**2 * np.sum(w**2)
        se = vals.std(ddof=1) / np.sqrt(vals.size)
        assert abs(vals.mean() - exact) < 3 * se

    def test_gradient_matches_fd(self):
        net, _ = init_network(NetSpec(4, (6,), 3), RngState(9))
        x, _ = normal(RngState(10), (5, 4))
        x_noisy = _noisy(x, 0.2, RngState(11))
        val, grads = pmh_loss(net, x, x_noisy)
        assert val > 0
        eps = 1e-6

        def value_at(n):
            v, _ = pmh_loss(n, x, x_noisy)
            return v

        n2 = net.copy()
        n2.encoder[0].weight[0, 0] += eps
        n3 = net.copy()
        n3.encoder[0].weight[0, 0] -= eps
        fd = (value_at(n2) - value_at(n3)) / (2 * eps)
        assert grads.encoder[0][0][0, 0] == pytest.approx(fd, rel=1e-4, abs=1e-10)

    def test_stack_matches_solo_calls_bit_for_bit(self):
        spec = NetSpec(4, (6,), 3)
        nets = [init_network(spec, RngState(30 + k))[0] for k in range(3)]
        x, rng = normal(RngState(33), (3, 5, 4))
        delta, _ = normal(rng, (3, 5, 4), 0.2)
        value, grads = pmh_loss(stack_networks(nets), x, x + delta)
        for k, net in enumerate(nets):
            solo_value, solo = pmh_loss(net, x[k], x[k] + delta[k])
            assert value[k] == solo_value
            for (dw, db), (sw, sb) in zip(grads.encoder, solo.encoder):
                assert np.array_equal(dw[k], sw) and np.array_equal(db[k], sb)


class TestCappedPenaltyScale:
    """Once the cap binds, the applied penalty gradient is
    cap * L_task * grad(L_pmh) / L_pmh.  Noise drawn from one RngState at
    2 sigma is exactly twice the noise at sigma, so sigma enters only through
    the encoder nonlinearity: a linear encoder trains the same penalty at
    every scale, a tanh encoder does not."""

    CAP = 0.05
    L_TASK = 0.7

    def _capped_grad(self, net, x, sigma):
        value, grads = pmh_loss(net, x, _noisy(x, sigma, RngState(21)))
        lam_eff = cap_rescale(self.L_TASK, value, 1e6, self.CAP)
        assert lam_eff * value == pytest.approx(self.CAP * self.L_TASK)  # cap binds
        g = grads.scaled(lam_eff)
        return np.concatenate([a.ravel() for pair in g.encoder for a in pair])

    def _relative_change(self, activation, sigma):
        net, _ = init_network(NetSpec(16, (32,), 16, 1, activation), RngState(20))
        x, _ = normal(RngState(22), (32, 16))
        a = self._capped_grad(net, x, sigma)
        b = self._capped_grad(net, x, 2.0 * sigma)
        return np.linalg.norm(a - b) / np.linalg.norm(a)

    @pytest.mark.parametrize("sigma", [0.05, 0.2, 0.8])
    def test_linear_encoder_gradient_is_scale_free(self, sigma):
        assert self._relative_change("identity", sigma) <= 1e-12

    @pytest.mark.parametrize("sigma", [0.05, 0.8])
    def test_tanh_encoder_gradient_depends_on_scale(self, sigma):
        assert self._relative_change("tanh", sigma) > 1e-2


class TestCapRescale:
    def test_pass_through_below_cap(self):
        assert cap_rescale(1.0, 0.1, 1.0, 0.3) == 1.0

    def test_rescales_to_equality(self):
        lam = cap_rescale(1.0, 10.0, 1.0, 0.3)
        assert lam * 10.0 == pytest.approx(0.3 * 1.0)

    def test_cap_zero_means_zero_weight(self):
        assert cap_rescale(1.0, 5.0, 2.0, 0.0) == 0.0

    def test_degenerate_zero_task(self):
        assert cap_rescale(0.0, 5.0, 2.0, 0.3) == 0.0

    def test_negative_rejected(self):
        with pytest.raises(ValidationError):
            cap_rescale(-1.0, 1.0, 1.0, 0.3)

    @settings(max_examples=200, deadline=None)
    @given(
        st.floats(0, 10, allow_nan=False),
        st.floats(0, 10, allow_nan=False),
        st.floats(0, 100, allow_nan=False),
        st.floats(0, 2, allow_nan=False),
    )
    def test_capped_product_property(self, l_task, l_pmh, lam, cap):
        eff = cap_rescale(l_task, l_pmh, lam, cap)
        assert 0.0 <= eff <= lam or eff == pytest.approx(lam)
        assert eff * l_pmh <= cap * l_task + 1e-9 * max(1.0, cap * l_task) or eff == lam


class TestMultiscaleSigma:
    def test_degenerate_range(self):
        s, _ = multiscale_sigma(RngState(1), 0.1, 0.1)
        assert s == 0.1

    def test_log_uniform_moments(self):
        lo, hi = 0.05, 0.20
        rng = RngState(2)
        n = 100_000
        vals = np.zeros(n)
        # one scalar per call; draw in bulk via the uniform identity instead
        from isogeo.rng import uniform

        u, _ = uniform(RngState(2), n)
        vals = np.exp(np.log(lo) + u * (np.log(hi) - np.log(lo)))
        target = 0.5 * (np.log(lo) + np.log(hi))
        se = np.log(vals).std(ddof=1) / np.sqrt(n)
        assert abs(np.log(vals).mean() - target) < 3 * se
        # the scalar path agrees with the bulk construction at the same state
        s, _ = multiscale_sigma(RngState(2), lo, hi)
        assert s == pytest.approx(vals[0])

    def test_invalid_ranges(self):
        with pytest.raises(ValidationError):
            multiscale_sigma(RngState(0), 0.0, 0.1)
        with pytest.raises(ValidationError):
            multiscale_sigma(RngState(0), 0.2, 0.1)


class TestPgdAttack:
    def _net(self, seed=20):
        from isogeo.network import init_network

        net, _ = init_network(NetSpec(6, (8,), 4), RngState(seed))
        return net

    def test_epsilon_zero(self):
        net = self._net()
        x, r = normal(RngState(21), (5, 6))
        y, _ = normal(r, 5)
        delta = pgd_attack(net, x, y, 0.0, 5, 0.1)
        assert np.all(delta == 0.0)

    def test_single_step_is_scaled_sign(self):
        # one step at step_size = epsilon gives exactly epsilon * sign(grad)
        net = self._net(22)
        x, r = normal(RngState(23), (5, 6))
        y, _ = normal(r, 5)
        eps = 0.25
        delta = pgd_attack(net, x, y, eps, 1, eps)
        g = input_gradient(net, x, y, "mse")
        assert np.array_equal(delta, eps * np.sign(g))

    def test_projection_exact(self):
        net = self._net(24)
        x, r = normal(RngState(25), (8, 6))
        y, _ = normal(r, 8)
        eps = 0.1
        delta = pgd_attack(net, x, y, eps, 20, 0.05)
        assert np.max(np.abs(delta)) <= eps

    def test_ascent_property_100_batches(self):
        # loss(x + delta) >= loss(x) - 1e-10 on smooth nets
        net = self._net(26)
        rng = RngState(27)
        for _ in range(100):
            x, rng = normal(rng, (4, 6))
            y, rng = normal(rng, 4)
            delta = pgd_attack(net, x, y, 0.1, 10, 0.025)
            p0, _ = forward_with_trace(net, x)
            p1, _ = forward_with_trace(net, x + delta)
            l0, _ = mse_loss(p0, y)
            l1, _ = mse_loss(p1, y)
            assert l1 >= l0 - 1e-10

    def test_bad_args(self):
        net = self._net(28)
        x, r = normal(RngState(29), (2, 6))
        y, _ = normal(r, 2)
        with pytest.raises(ValidationError):
            pgd_attack(net, x, y, -0.1, 5, 0.1)
        with pytest.raises(ValidationError):
            pgd_attack(net, x, y, 0.1, 0, 0.1)


@pytest.fixture(scope="module")
def gauss_model():
    return GaussianNuisanceModel.canonical(4, 4, 0.5, 0.1)


class TestTrain:
    def test_unknown_loss_rejected_at_construction(self):
        with pytest.raises(ValidationError, match="loss"):
            TrainConfig(loss="hinge")

    def test_erm_linear_reaches_bayes_floor(self, gauss_model):
        spec = NetSpec(input_dim=8, hidden=(), rep_dim=4, out_dim=1, activation="identity")
        cfg = TrainConfig(objective="erm", lr=0.02, steps=4000, batch_size=64, seed=0)
        net, log = train(cfg, spec, model_batch_source(gauss_model))
        batch, _ = sample(gauss_model, 50_000, RngState(99))
        pred, _ = forward_with_trace(net, batch.x)
        mse = float(np.mean((pred[:, 0] - batch.y) ** 2))
        assert mse < 1.10 * gauss_model.bayes_mse()

    def test_cap_fixed_point_at_default(self, gauss_model):
        spec = NetSpec(input_dim=8, hidden=(16,), rep_dim=8, out_dim=1, activation="tanh")
        cfg = TrainConfig(
            objective="pmh",
            sigma_train=0.1,
            cap=0.30,
            warmup=WarmupSchedule(t0=200, duration=600),
            lr=0.05,
            steps=2500,
            batch_size=32,
            seed=1,
        )
        _, log = train(cfg, spec, model_batch_source(gauss_model))
        assert log.steady_state_fraction() == pytest.approx(0.30 / 1.30, abs=0.01)

    def test_fraction_invariant_recomputes(self, gauss_model):
        spec = NetSpec(input_dim=8, hidden=(16,), rep_dim=8, out_dim=1, activation="tanh")
        cfg = TrainConfig(
            objective="pmh", sigma_train=0.1, lr=0.05, steps=300, batch_size=16, seed=2
        )
        _, log = train(cfg, spec, model_batch_source(gauss_model))
        total = log.task_loss + log.pmh_loss
        recomputed = np.where(total > 0, log.pmh_loss / np.where(total > 0, total, 1.0), 0.0)
        assert np.max(np.abs(recomputed - log.fraction)) < 1e-12

    def test_lambda_zero_sigma_zero_is_step_identical_to_erm(self, gauss_model):
        spec = NetSpec(input_dim=8, hidden=(16,), rep_dim=8, out_dim=1, activation="tanh")
        base = dict(lr=0.05, steps=200, batch_size=16, seed=3)
        erm_net, erm_log = train(
            TrainConfig(objective="erm", **base), spec, model_batch_source(gauss_model)
        )
        pmh_net, pmh_log = train(
            TrainConfig(objective="pmh", sigma_train=0.0, lam=0.0, **base),
            spec,
            model_batch_source(gauss_model),
        )
        for a, b in zip(erm_net.parameters(), pmh_net.parameters()):
            assert np.array_equal(a.weight, b.weight)
            assert np.array_equal(a.bias, b.bias)
        assert np.array_equal(erm_log.task_loss, pmh_log.task_loss)

    def test_pgd_epsilon_zero_is_step_identical_to_erm(self, gauss_model):
        spec = NetSpec(input_dim=8, hidden=(16,), rep_dim=8, out_dim=1, activation="tanh")
        base = dict(lr=0.05, steps=200, batch_size=16, seed=4)
        erm_net, _ = train(
            TrainConfig(objective="erm", **base), spec, model_batch_source(gauss_model)
        )
        pgd_net, _ = train(
            TrainConfig(objective="pgd", pgd=PgdConfig(epsilon=0.0, steps=5), **base),
            spec,
            model_batch_source(gauss_model),
        )
        for a, b in zip(erm_net.parameters(), pgd_net.parameters()):
            assert np.array_equal(a.weight, b.weight)

    def test_seed_determinism_bit_identical_logs(self, gauss_model):
        spec = NetSpec(input_dim=8, hidden=(16,), rep_dim=8, out_dim=1, activation="tanh")
        cfg = TrainConfig(
            objective="pmh", sigma_train=0.1, lr=0.05, steps=250, batch_size=16, seed=5
        )
        _, log1 = train(cfg, spec, model_batch_source(gauss_model))
        _, log2 = train(cfg, spec, model_batch_source(gauss_model))
        for field in ("task_loss", "pmh_loss", "eff_lambda", "fraction", "warmup"):
            assert np.array_equal(getattr(log1, field), getattr(log2, field))

    def test_divergence_aborts_with_step_index(self, gauss_model):
        spec = NetSpec(input_dim=8, hidden=(16,), rep_dim=8, out_dim=1, activation="tanh")
        cfg = TrainConfig(objective="erm", lr=1e6, steps=500, batch_size=8, seed=6)
        with pytest.raises(TrainingDivergedError) as err:
            train(cfg, spec, model_batch_source(gauss_model))
        assert err.value.step >= 0

    @pytest.mark.parametrize("objective", ["erm", "pgd", "pmh"])
    def test_divergence_raises_without_float_warnings(self, gauss_model, objective):
        # The overflow of a diverging step is reported by TrainingDivergedError
        # alone; any numpy warning would be raised here as an error.  Under pgd
        # the attack meets the diverged net first and must not turn it into a
        # ValidationError on x + delta.
        spec = NetSpec(input_dim=8, hidden=(16,), rep_dim=8, out_dim=1, activation="tanh")
        cfg = TrainConfig(objective=objective, lr=1e6, steps=500, batch_size=8, seed=6)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(TrainingDivergedError) as err:
                train(cfg, spec, model_batch_source(gauss_model))
        assert 0 < err.value.step < cfg.steps

    def test_multiscale_training_keeps_cap_fixed_point(self, gauss_model):
        spec = NetSpec(input_dim=8, hidden=(16,), rep_dim=8, out_dim=1, activation="tanh")
        cfg = TrainConfig(
            objective="pmh",
            sigma_train=(0.05, 0.20),
            cap=0.30,
            warmup=WarmupSchedule(t0=200, duration=600),
            lr=0.05,
            steps=2500,
            batch_size=32,
            seed=7,
        )
        _, log = train(cfg, spec, model_batch_source(gauss_model))
        assert log.steady_state_fraction() == pytest.approx(0.30 / 1.30, abs=0.01)

    def test_log_csv_roundtrip(self, tmp_path, gauss_model):
        spec = NetSpec(input_dim=8, hidden=(), rep_dim=4, out_dim=1, activation="identity")
        cfg = TrainConfig(objective="erm", lr=0.02, steps=50, batch_size=8, seed=8)
        _, log = train(cfg, spec, model_batch_source(gauss_model))
        path = tmp_path / "log.csv"
        log.to_csv(str(path))
        loaded = np.loadtxt(path, delimiter=",", skiprows=1)
        assert np.array_equal(loaded[:, 1], log.task_loss)


def _same_run(stacked, solo):
    """Weights and every TrainLog column equal bit for bit."""
    (net_a, log_a), (net_b, log_b) = stacked, solo
    for a, b in zip(net_a.parameters(), net_b.parameters()):
        assert np.array_equal(a.weight, b.weight) and np.array_equal(a.bias, b.bias)
    for field in ("step", "task_loss", "pmh_loss", "eff_lambda", "fraction", "warmup"):
        assert np.array_equal(getattr(log_a, field), getattr(log_b, field)), field


def _label_source(model):
    def source(states, n):
        x, y, states = sample_stack(model, n, states)
        return x, threshold_labels(y), states

    return source


class TestTrainStack:
    @settings(max_examples=30, deadline=None)
    @given(
        objective=st.sampled_from(["erm", "pgd", "pmh"]),
        loss=st.sampled_from(["mse", "cross-entropy"]),
        activation=st.sampled_from(["tanh", "identity"]),
        hidden=st.lists(st.integers(3, 9), min_size=0, max_size=2),
        members=st.lists(
            st.tuples(
                st.integers(0, 2**32),
                st.sampled_from([0.0, 0.05, 0.3, 2.0]),
                st.sampled_from([0.0, 0.1, 0.5, (0.05, 0.5), (0.2, 0.2)]),
            ),
            min_size=1,
            max_size=3,
        ),
    )
    def test_every_member_equals_its_solo_run(
        self, objective, loss, activation, hidden, members
    ):
        model = GaussianNuisanceModel.canonical(4, 4, 0.5, 0.1)
        out_dim = 2 if loss == "cross-entropy" else 1
        spec = NetSpec(8, tuple(hidden), 5, out_dim, activation)
        source = _label_source(model) if loss == "cross-entropy" else model_batch_source(model)
        configs = [
            TrainConfig(
                objective=objective, sigma_train=sigma, cap=cap, lam=10.0, lr=0.1, steps=12,
                batch_size=6, seed=seed, loss=loss, warmup=WarmupSchedule(t0=2, duration=4),
                pgd=PgdConfig(epsilon=0.2, steps=3),
            )
            for seed, cap, sigma in members
        ]
        for stacked, config in zip(train_stack(configs, spec, source), configs):
            _same_run(stacked, train(config, spec, source))

    def test_mixed_activation_layers_match_per_slice(self):
        # NetSpec gives every layer one activation; a stack of hand-built
        # nets mixes tanh and identity layers through the same kernels.
        rng = RngState(40)
        nets = []
        for _ in range(3):
            w1, rng = normal(rng, (5, 4), 0.5)
            w2, rng = normal(rng, (3, 5), 0.5)
            w3, rng = normal(rng, (2, 3), 0.5)
            nets.append(MlpEncoderDecoder(
                [Layer(w1, np.zeros(5), "tanh"), Layer(w2, np.full(3, 0.1), "identity")],
                Layer(w3, np.zeros(2), "identity"),
            ))
        x, rng = normal(rng, (3, 7, 4))
        y = np.array([[0, 1, 1, 0, 1, 0, 0]] * 3)
        stack = stack_networks(nets)
        pred, trace = forward_with_trace(stack, x)
        grads = backward(stack, x, trace, pred)
        g_in = input_gradient(stack, x, y, "cross-entropy")
        delta = pgd_attack(stack, x, y, 0.3, 4, 0.1, "cross-entropy")
        for k, net in enumerate(nets):
            pred_k, trace_k = forward_with_trace(net, x[k])
            grads_k = backward(net, x[k], trace_k, pred_k)
            assert np.array_equal(pred[k], pred_k)
            for (dw, db), (dw_k, db_k) in zip(grads.pairs(), grads_k.pairs()):
                assert np.array_equal(dw[k], dw_k) and np.array_equal(db[k], db_k)
            assert np.array_equal(g_in[k], input_gradient(net, x[k], y[k], "cross-entropy"))
            assert np.array_equal(
                delta[k], pgd_attack(net, x[k], y[k], 0.3, 4, 0.1, "cross-entropy")
            )

    @pytest.mark.parametrize("objective", ["pmh", "pgd"])
    def test_diverging_members_leave_the_others_untouched(self, gauss_model, objective):
        # An identity encoder diverges on its own: under pmh the member fed
        # noise of scale 100, under pgd at lr 0.3 every seed but one, each
        # at its own step (so the stack's attack meets a NaN input gradient
        # in one member while the others go on).  Every member must end as
        # its solo run does, and no numpy warning may surface.
        spec = NetSpec(input_dim=8, hidden=(16,), rep_dim=8, out_dim=1, activation="identity")
        if objective == "pmh":
            base = dict(objective="pmh", lr=0.05, steps=60, batch_size=16,
                        warmup=WarmupSchedule(t0=5, duration=10))
            configs = [
                TrainConfig(sigma_train=0.1, seed=1, **base),
                TrainConfig(sigma_train=100.0, seed=2, **base),
                TrainConfig(sigma_train=(0.05, 0.2), cap=0.1, seed=3, **base),
            ]
        else:
            base = dict(objective="pgd", lr=0.3, steps=60, batch_size=16,
                        pgd=PgdConfig(epsilon=0.3, steps=5))
            configs = [TrainConfig(seed=seed, **base) for seed in range(6)]
        source = model_batch_source(gauss_model)
        diverged = 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            results = train_stack(configs, spec, source)
            for config, stacked in zip(configs, results):
                try:
                    solo = train(config, spec, source)
                except TrainingDivergedError as err:
                    assert isinstance(stacked, TrainingDivergedError)
                    assert 0 < stacked.step == err.step < config.steps
                    diverged += 1
                else:
                    _same_run(stacked, solo)
        assert 0 < diverged < len(configs)

    @pytest.mark.parametrize(
        "field,value", [("lr", 0.2), ("steps", 7), ("objective", "erm")]
    )
    def test_members_must_share_training_settings(self, gauss_model, field, value):
        spec = NetSpec(input_dim=8, hidden=(), rep_dim=4, out_dim=1, activation="tanh")
        first = TrainConfig(objective="pmh", lr=0.1, steps=5, seed=1)
        other = TrainConfig(**{**dict(objective="pmh", lr=0.1, steps=5, seed=2), field: value})
        with pytest.raises(ValidationError, match=field):
            train_stack([first, other], spec, model_batch_source(gauss_model))


class TestLosses:
    def test_mse_value_and_gradient(self):
        pred = np.array([[1.0], [2.0]])
        y = np.array([0.0, 0.0])
        val, grad = mse_loss(pred, y)
        assert val == pytest.approx(2.5)
        assert np.allclose(grad, np.array([[1.0], [2.0]]))

    def test_cross_entropy_uniform(self):
        logits = np.zeros((4, 3))
        labels = np.array([0, 1, 2, 0])
        val, grad = cross_entropy_loss(logits, labels)
        assert val == pytest.approx(np.log(3.0))
        assert grad.shape == (4, 3)
        assert np.allclose(grad.sum(axis=1), 0.0, atol=1e-15)
