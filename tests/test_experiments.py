import dataclasses
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from isogeo import _blas, cli
from isogeo import experiments as xp
from isogeo.errors import ConfigError

# The CLI runs in a child process, which imports isogeo from the source tree.
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


@pytest.fixture
def blas_threads():
    """OpenBLAS's thread-count getter, with the count set to 2 for the test
    and the caller's count given back after it; skips without OpenBLAS."""
    api = _blas._openblas()
    if api is None:
        pytest.skip("numpy's BLAS is not OpenBLAS")
    get, put = api
    before = get()
    put(2)
    try:
        yield get
    finally:
        put(before)


def _blas_thread_counts(config, cells):
    return [_blas._openblas()[0]() for _ in cells]


def small_config(**overrides):
    base = dict(
        kind="compare",
        seed=1,
        steps=300,
        batch_size=16,
        eval_rows=64,
        mc_draws=4,
        sigma_eval=(0.05, 0.1),
        methods=("erm",),
        seeds_per_cell=2,
        sigma_train_grid=(0.1, 0.3),
        cap_grid=(0.25, 0.30),
    )
    base.update(overrides)
    return xp.ExperimentConfig(**base)


class TestConfigParsing:
    def test_roundtrip_from_file(self, tmp_path):
        path = tmp_path / "exp.ini"
        path.write_text(
            "[experiment]\n"
            "kind = capsweep\n"
            "seed = 9\n"
            "outdir = out\n"
            "[data]\n"
            "rho = 0.4\n"
            "[train]\n"
            "steps = 123\n"
            "cap_grid = 0.1 0.2\n"
            "[eval]\n"
            "sigma_eval = 0.05 0.1 0.2\n"
        )
        cfg = xp.parse_config(str(path))
        assert cfg.kind == "capsweep"
        assert cfg.seed == 9
        assert cfg.rho == 0.4
        assert cfg.steps == 123
        assert cfg.cap_grid == (0.1, 0.2)
        assert cfg.sigma_eval == (0.05, 0.1, 0.2)

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[experiment]\nkind = compare\nbogus = 1\n")
        with pytest.raises(ConfigError):
            xp.parse_config(str(path))

    def test_unknown_section_rejected(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[experiment]\nkind = compare\n[mystery]\nx = 1\n")
        with pytest.raises(ConfigError):
            xp.parse_config(str(path))

    def test_missing_kind_rejected(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[experiment]\nseed = 1\n")
        with pytest.raises(ConfigError):
            xp.parse_config(str(path))

    def test_missing_file_rejected(self):
        with pytest.raises(ConfigError):
            xp.parse_config("/nonexistent/exp.ini")

    def test_nonincreasing_sigma_grid_rejected(self):
        with pytest.raises(ConfigError):
            small_config(sigma_eval=(0.1, 0.1))
        with pytest.raises(ConfigError):
            small_config(sigma_eval=(0.2, 0.1))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError):
            small_config(kind="explode")
        with pytest.raises(ConfigError):
            small_config(kind="verify")

    def test_unknown_loss_rejected_at_construction(self):
        with pytest.raises(ConfigError, match="loss"):
            small_config(loss="bogus")

    def test_unknown_method_rejected_at_construction(self):
        with pytest.raises(ConfigError, match="sgd"):
            small_config(methods=("erm", "sgd"))

    BAD_VALUES = {
        "seed": -1,
        "rho": -1.0,
        "sigma_eps": -1.0,
        "mc_draws": 0,
        "seeds_per_cell": 0,
        "pgd_steps": 0,
        "cap_grid": (0.1, -0.2),
        "sigma_train_grid": (0.05, -0.1),
        "sigma_range": (0.05, 0.2, 0.8),
        "sigma_eval": (-0.1, 0.1),
    }

    @pytest.mark.parametrize("field", list(BAD_VALUES))
    def test_negative_data_parameter_rejected_at_construction(self, field):
        with pytest.raises(ConfigError, match=field):
            small_config(**{field: self.BAD_VALUES[field]})

    def test_seed_beyond_64_bits_rejected_at_construction(self):
        small_config(seed=2**64 - 1)
        with pytest.raises(ConfigError, match="seed"):
            small_config(seed=2**64)

    def test_every_field_roundtrips_through_a_file(self, tmp_path):
        values = dict(
            kind="multiscale", seed=2**64 - 1, outdir="elsewhere", d_s=3, d_n=5, rho=0.25,
            sigma_eps=0.3, hidden=(7, 5), rep_dim=4, steps=11, lr=0.07, batch_size=9,
            loss="cross-entropy", sigma_train=0.15, sigma_train_grid=(0.1, 0.3), cap=0.2,
            cap_grid=(0.05, 0.5), lam=3.5, pgd_epsilon=0.125, pgd_steps=3,
            methods=("pgd", "erm"), sigma_range=(0.1, 0.4), sigma_eval=(0.02, 0.3),
            eval_rows=17, mc_draws=5, seeds_per_cell=2,
        )
        assert set(values) == {f.name for f in dataclasses.fields(xp.ExperimentConfig)}
        defaults = xp.default_config("multiscale")
        assert all(getattr(defaults, k) != v for k, v in values.items() if k != "kind")
        lines = ["[experiment]"] + [
            f"{k} = {' '.join(map(str, v)) if isinstance(v, tuple) else v}"
            for k, v in values.items()
        ]
        path = tmp_path / "all.ini"
        path.write_text("\n".join(lines) + "\n")
        assert xp.parse_config(str(path)) == xp.ExperimentConfig(**values)


class TestResultTable:
    def test_emit_parse_roundtrip_exact(self, tmp_path):
        t = xp.ResultTable("demo", ["a", "b"], ["c1", "c2"], seed=5)
        vals = [1.0 / 3.0, np.pi, 2.0 ** -40, 123456.789]
        t.set("a", "c1", vals[0], 0.1)
        t.set("a", "c2", vals[1], 0.0)
        t.set("b", "c1", vals[2], vals[3])
        t.set("b", "c2", 0.0, 0.0)
        # A NaN value with SE 0 is a measurement, not a failed row.
        t.set("d", "c1", float("nan"), 0.0)
        t.set("d", "c2", float("nan"), 0.0)
        t.fill("train@0.1", {"failed": True})
        t.row_keys += ["d", "train@0.1"]
        paths = xp.emit(t, str(tmp_path))
        loaded = xp.parse_table_csv(paths[0])
        assert loaded.cells.keys() == t.cells.keys()
        for key, cell in t.cells.items():
            np.testing.assert_array_equal(loaded.cells[key], cell)
        assert loaded.row_keys == t.row_keys
        assert loaded.failed_rows == t.failed_rows == ["train@0.1"]
        assert loaded.seed == 5

    def test_empty_table_header_only(self, tmp_path):
        t = xp.ResultTable("empty", [], [], seed=0)
        paths = xp.emit(t, str(tmp_path))
        content = open(paths[0]).read()
        assert content == xp.CSV_HEADER + "\n"

    def test_seventeen_digit_roundtrip(self, tmp_path):
        x = 0.1 + 0.2  # famous non-representable sum
        t = xp.ResultTable("fmt", ["r"], ["c"], seed=0)
        t.set("r", "c", x, x / 3)
        paths = xp.emit(t, str(tmp_path))
        loaded = xp.parse_table_csv(paths[0])
        v, se = loaded.get("r", "c")
        assert v == x and se == x / 3

    def test_missing_cell_detected(self):
        t = xp.ResultTable("gap", ["r"], ["c1", "c2"], seed=0)
        t.set("r", "c1", 1.0)
        with pytest.raises(ConfigError):
            t.validate_rectangular()

    def test_json_mirror(self, tmp_path):
        t = xp.ResultTable("jj", ["r"], ["c"], seed=2)
        t.set("r", "c", 1.5, 0.25)
        paths = xp.emit(t, str(tmp_path))
        data = json.loads(open(paths[1]).read())
        assert data["cells"]["r|c"] == [1.5, 0.25]
        assert data["experiment"] == "jj"


class TestRunners:
    def test_compare_single_method(self, tmp_path):
        cfg = small_config()
        table = xp.run_compare(cfg)
        assert table.row_keys == ["erm"]
        assert "tdi_at_0" in table.col_keys
        table.validate_rectangular()

    def test_compare_rerun_is_byte_identical(self, tmp_path):
        cfg = small_config()
        t1 = xp.run_compare(cfg)
        t2 = xp.run_compare(cfg)
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        p1 = xp.emit(t1, str(out1))
        p2 = xp.emit(t2, str(out2))
        assert open(p1[0], "rb").read() == open(p2[0], "rb").read()
        assert open(p1[1], "rb").read() == open(p2[1], "rb").read()

    def test_capsweep_fractions(self):
        cfg = small_config(kind="capsweep", steps=2000, batch_size=32)
        table = xp.run_capsweep(cfg)
        for cap in cfg.cap_grid:
            frac, _ = table.get(f"cap@{cap:g}", "fraction")
            assert frac == pytest.approx(cap / (1 + cap), abs=0.01)

    def test_talign_structure(self):
        cfg = small_config(
            kind="talign",
            sigma_train_grid=(0.1, 0.3),
            sigma_eval=(0.1, 0.3),
            seeds_per_cell=1,
            steps=200,
        )
        table = xp.run_talign(cfg)
        assert "_diag_match" in table.row_keys
        assert "_summary" in table.row_keys
        table.validate_rectangular()

    def test_talign_single_cell_trivially_diagonal(self):
        cfg = small_config(
            kind="talign",
            sigma_train_grid=(0.1,),
            sigma_eval=(0.1,),
            seeds_per_cell=1,
            steps=200,
        )
        table = xp.run_talign(cfg)
        assert table.get("_diag_match", "eval@0.1")[0] == 1.0

    def test_talign_all_rows_failed(self):
        # lr = 1e6 diverges every cell: each row is listed once, and a column
        # with no finite entry is recorded as unmatched instead of raising.
        cfg = small_config(
            kind="talign",
            loss="mse",
            lr=1e6,
            sigma_train_grid=(0.1, 0.3),
            sigma_eval=(0.1, 0.3),
            seeds_per_cell=2,
            steps=50,
        )
        table = xp.run_talign(cfg)
        assert table.failed_rows == ["train@0.1", "train@0.3"]
        for c in table.col_keys:
            assert table.get("_diag_match", c)[0] == 0.0
        assert not xp.alignment_verdict(cfg, table).passed

    def test_multiscale_rows(self):
        cfg = small_config(
            kind="multiscale",
            sigma_train_grid=(0.1, 0.2),
            sigma_range=(0.1, 0.2),
            sigma_eval=(0.1, 0.2),
            steps=200,
        )
        table = xp.run_multiscale(cfg)
        assert "multiscale" in table.row_keys
        table.validate_rectangular()

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(kind="capsweep", steps=400, cap_grid=(0.2, 0.4)),
            # 8 cells: one stack serially, two stacks of 4 on two workers
            dict(kind="talign", loss="mse", steps=150, seeds_per_cell=4),
        ],
        ids=["capsweep", "talign-8-cells"],
    )
    def test_worker_pool_matches_serial(self, monkeypatch, overrides):
        cfg = small_config(**overrides)
        monkeypatch.setenv("ISOGEO_THREADS", "1")
        t_serial = xp.run_experiment(cfg)
        monkeypatch.setenv("ISOGEO_THREADS", "2")
        t_parallel = xp.run_experiment(cfg)
        assert t_serial.cells == t_parallel.cells

    def test_pool_workers_run_blas_on_one_thread(self, monkeypatch, blas_threads):
        monkeypatch.setenv("ISOGEO_THREADS", "2")
        assert xp._run_cells(_blas_thread_counts, small_config(), [[0], [1]]) == [1, 1]
        assert blas_threads() == 2

    def test_stacks_hold_at_most_stack_size_and_cover_the_workers(self):
        cells = list(range(32))
        assert [len(s) for s in xp.stacks(cells)] == [8, 8, 8, 8]
        assert [len(s) for s in xp.stacks(cells[:9])] == [5, 4]
        assert [len(s) for s in xp.stacks(cells[:8], 2)] == [4, 4]
        assert [len(s) for s in xp.stacks(cells[:2], 3)] == [1, 1]
        assert sum(xp.stacks(cells[:13], 2), []) == cells[:13]


# Mean TDI of the default talign grid (rows sigma_train, columns sigma_eval,
# both 0.05 0.2 0.8 3.2; 8 seeds per cell) from run_talign at base seeds
# 0, 1, 2, for PMH at the default cap 0.05 and for the penalty-free control
# cap = 0, rounded to 4 significant digits.
RECORDED_GRIDS = {
    (0, 0.05): [[0.001618, 0.02568, 0.376, 2.784], [0.001469, 0.02348, 0.3433, 2.628],
                [0.001745, 0.02765, 0.3819, 2.204], [0.002727, 0.04217, 0.4914, 1.966]],
    (1, 0.05): [[0.001707, 0.0271, 0.398, 2.984], [0.001656, 0.0264, 0.3872, 2.975],
                [0.001865, 0.02951, 0.4045, 2.313], [0.002907, 0.04509, 0.5183, 2.115]],
    (2, 0.05): [[0.001714, 0.02718, 0.4007, 3.002], [0.001478, 0.02355, 0.3479, 2.614],
                [0.001784, 0.02823, 0.3897, 2.235], [0.002836, 0.04466, 0.5173, 2.066]],
    (0, 0.0): [[0.001657, 0.02628, 0.3818, 2.717], [0.00149, 0.02379, 0.344, 2.475],
               [0.002537, 0.04001, 0.5206, 2.403], [0.002804, 0.04324, 0.4957, 1.886]],
    (1, 0.0): [[0.001762, 0.02797, 0.407, 2.925], [0.001709, 0.02722, 0.3938, 2.818],
               [0.002579, 0.04062, 0.5256, 2.414], [0.002955, 0.04562, 0.5151, 1.955]],
    (2, 0.0): [[0.001758, 0.02787, 0.4069, 2.921], [0.001533, 0.02439, 0.3562, 2.509],
               [0.00257, 0.04049, 0.5268, 2.414], [0.00283, 0.04404, 0.4989, 1.889]],
}


def _grid_table(cfg, mean):
    rows = [f"train@{s:g}" for s in cfg.sigma_train_grid]
    cols = [f"eval@{s:g}" for s in cfg.sigma_eval]
    table = xp.ResultTable("talign", rows, cols)
    for r, values in zip(rows, mean):
        for c, v in zip(cols, values):
            table.set(r, c, v)
    return table


class TestAlignmentVerdict:
    @pytest.mark.parametrize("seed,cap", sorted(RECORDED_GRIDS))
    def test_recorded_grids(self, seed, cap):
        # PMH takes the diagonal at and above the knee; the control does not.
        # Both get 2/4 over the full grid and pass the raw asymmetry.
        cfg = xp.default_config("talign", seed=seed, cap=cap)
        v = xp.alignment_verdict(cfg, _grid_table(cfg, RECORDED_GRIDS[(seed, cap)]))
        assert v.knee == 0.8
        assert v.full_grid_matches == 2
        assert v.costs[0] > v.costs[1]
        assert v.passed == (cap > 0)

    def test_pure_sigma_squared_grid_has_no_knee(self):
        # Every row in the sigma^2 law: nothing distinguishes the scales.
        cfg = xp.default_config("talign")
        scale = np.array([[1.3], [1.0], [1.1], [1.2]])
        mean = scale * np.asarray(cfg.sigma_eval) ** 2
        v = xp.alignment_verdict(cfg, _grid_table(cfg, mean))
        assert v.knee == float("inf") and v.matched == {}
        assert not v.passed

    def test_summary_holds_raw_and_normalised_costs(self):
        cfg = small_config(kind="talign", loss="mse", cap=0.05, seeds_per_cell=1, steps=200,
                           sigma_eval=(0.05, 0.1, 0.2, 0.4))
        table = xp.run_talign(cfg)
        v = xp.alignment_verdict(cfg, table)
        assert [table.get("_summary", c)[0] for c in table.col_keys] == list(v.costs)
        under, over = v.costs[:2]
        assert under == (table.get("train@0.1", "eval@0.4")[0]
                         - table.get("train@0.3", "eval@0.4")[0])
        assert v.costs[2] == under / table.get("train@0.3", "eval@0.4")[0]
        assert v.costs[3] == over / table.get("train@0.1", "eval@0.05")[0]


class TestCli:
    def _run(self, *args):
        return subprocess.run(
            [sys.executable, "-m", "isogeo.cli", *args],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": SRC},
        )

    def test_verify_subset_exit_zero(self):
        res = self._run("verify", "--checks", "subblock_inequality,anisotropy_floor")
        assert res.returncode == 0
        assert "[PASS] subblock_inequality" in res.stdout

    def test_verify_unknown_check_exit_two(self):
        res = self._run("verify", "--checks", "nope")
        assert res.returncode == 2

    def test_verify_empty_check_list_exit_two(self):
        res = self._run("verify", "--checks", ",")
        assert res.returncode == 2
        assert "config error: no check selected" in res.stderr
        assert "Traceback" not in res.stderr

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    def test_verify_seed_out_of_range_exit_two(self, seed):
        res = self._run("verify", "--checks", "subblock_inequality", "--seed", seed)
        assert res.returncode == 2
        assert f"config error: seed must be a 64-bit unsigned int, got {seed}" in res.stderr
        assert "Traceback" not in res.stderr

    def test_config_seed_out_of_range_exit_two(self, tmp_path):
        cfgf = tmp_path / "c.ini"
        outdir = tmp_path / "out"
        cfgf.write_text(f"[experiment]\nkind = compare\noutdir = {outdir}\nseed = -1\n")
        res = self._run("compare", "--config", str(cfgf))
        assert res.returncode == 2
        assert "config error: seed must be a 64-bit unsigned int, got -1" in res.stderr
        assert "Traceback" not in res.stderr
        assert not outdir.exists()

    def test_experiment_config_error_exit_two(self, tmp_path):
        bad = tmp_path / "bad.ini"
        bad.write_text("[experiment]\nkind = compare\nbogus = 1\n")
        res = self._run("compare", "--config", str(bad))
        assert res.returncode == 2

    def test_negative_rho_exit_two_before_training(self, tmp_path):
        cfgf = tmp_path / "c.ini"
        outdir = tmp_path / "out"
        cfgf.write_text(
            f"[experiment]\nkind = compare\noutdir = {outdir}\n[data]\nrho = -1\n"
        )
        res = self._run("compare", "--config", str(cfgf))
        assert res.returncode == 2
        assert "config error: rho must be >= 0" in res.stderr
        assert not outdir.exists()

    NON_FINITE = [
        ("compare", "[train]\nlr = nan", "lr must be finite, got nan"),
        ("compare", "[train]\nlam = inf", "lam must be finite, got inf"),
        ("compare", "[train]\ncap = nan", "cap must be finite, got nan"),
        ("compare", "[train]\nsigma_train = inf", "sigma_train must be finite, got inf"),
        ("compare", "[train]\npgd_epsilon = nan", "pgd epsilon must be finite, got nan"),
        ("compare", "[data]\nrho = nan", "rho must be finite, got nan"),
        ("compare", "[data]\nsigma_eps = inf", "sigma_eps must be finite, got inf"),
        ("compare", "[eval]\nsigma_eval = nan 0.1", "sigma_eval entries must be finite"),
        ("talign", "[train]\nsigma_train_grid = nan 0.2",
         "sigma_train_grid entry nan: sigma_train must be finite"),
        ("capsweep", "[train]\ncap_grid = 0.1 inf", "cap_grid entry inf: cap must be finite"),
        ("multiscale", "[train]\nsigma_range = 0.05 nan",
         "sigma_range entry (0.05, nan): sigma_train must be finite"),
    ]

    @pytest.mark.parametrize("kind,lines,message", NON_FINITE)
    def test_non_finite_value_exit_two_before_training(self, tmp_path, kind, lines, message):
        cfgf = tmp_path / "c.ini"
        outdir = tmp_path / "out"
        # Small sizes, so that a run that does not stop early ends soon.
        cfgf.write_text(
            f"[experiment]\nkind = {kind}\noutdir = {outdir}\n"
            f"steps = 20\nseeds_per_cell = 1\neval_rows = 16\nmc_draws = 2\n{lines}\n"
        )
        res = self._run(kind, "--config", str(cfgf))
        assert res.returncode == 2
        assert f"config error: {message}" in res.stderr
        assert "Traceback" not in res.stderr
        assert not outdir.exists()

    DEGENERATE = [
        ("compare", "[data]\nd_s = 0", "d_s and d_n must be >= 1"),
        ("compare", "[data]\nd_n = 0", "d_s and d_n must be >= 1"),
        ("compare", "[data]\nd_s = -1", "d_s and d_n must be >= 1"),
        ("compare", "[train]\nhidden = 0", "hidden width must be >= 1, got 0"),
        ("compare", "[train]\nhidden = 32 0", "hidden width must be >= 1, got 0"),
        ("compare", "[train]\nrep_dim = 0", "rep_dim must be >= 1, got 0"),
        ("compare", "[train]\nmethods =", "compare needs at least one method"),
        ("capsweep", "[train]\ncap_grid =", "capsweep needs a nonempty cap grid"),
        ("multiscale", "[eval]\nsigma_eval =", "multiscale needs a nonempty sigma_eval grid"),
    ]

    @pytest.mark.parametrize("kind,lines,message", DEGENERATE)
    def test_degenerate_input_exit_two_before_training(
        self, tmp_path, capsys, kind, lines, message
    ):
        # An empty dimension, layer or grid is a config error, not a
        # traceback, a false message or an empty table.
        cfgf = tmp_path / "c.ini"
        outdir = tmp_path / "out"
        cfgf.write_text(
            f"[experiment]\nkind = {kind}\noutdir = {outdir}\n"
            f"steps = 20\nseeds_per_cell = 1\neval_rows = 16\nmc_draws = 2\n{lines}\n"
        )
        assert cli.main([kind, "--config", str(cfgf)]) == 2
        assert f"config error: {message}" in capsys.readouterr().err
        assert not outdir.exists()

    @staticmethod
    def _assert_refused_before_work(rc, capsys):
        out, err = capsys.readouterr()
        assert rc == 2
        assert "config error" in err
        assert "Traceback" not in err
        assert "[PASS]" not in out and "[FAIL]" not in out

    @pytest.mark.parametrize(
        "error, rc",
        [(None, 0), (ConfigError("bad"), 2), (KeyError("bug"), None)],
        ids=["exit-0", "exit-2", "raises"],
    )
    def test_command_runs_blas_on_one_thread_and_restores_the_count(
        self, monkeypatch, blas_threads, error, rc
    ):
        inside = []

        def command(args):
            inside.append(blas_threads())
            if error is not None:
                raise error
            return 0

        monkeypatch.setattr(cli, "_cmd_verify", command)
        if rc is None:
            with pytest.raises(KeyError):
                cli.main(["verify"])
        else:
            assert cli.main(["verify"]) == rc
        assert inside == [1]
        assert blas_threads() == 2

    def test_without_openblas_a_command_runs_as_before(self, monkeypatch, capsys):
        argv = ["verify", "--checks", "subblock_inequality"]
        assert cli.main(argv) == 0
        want = capsys.readouterr()
        monkeypatch.setattr(_blas, "_openblas", lambda: None)
        assert cli.main(argv) == 0
        assert capsys.readouterr() == want

    def test_diagnose_bytes_do_not_depend_on_blas_threads(
        self, tmp_path, monkeypatch, blas_threads
    ):
        """At 4,096 rows OpenBLAS splits each product over its threads; the
        report must not depend on how many there are."""
        from isogeo.network import NetSpec, init_network, save_params
        from isogeo.rng import RngState

        spec = NetSpec(input_dim=16, hidden=(32,), rep_dim=16, out_dim=2, activation="tanh")
        model = str(tmp_path / "net.bin")
        save_params(init_network(spec, RngState(3))[0], model)

        def report(name):
            out = tmp_path / name / "diag.json"
            out.parent.mkdir()
            argv = ["diagnose", "--model", model, "--sigma-grid", "0.05", "0.4",
                    "--batch", "4096", "--mc-draws", "4", "--out", str(out)]
            assert cli.main(argv) == 0
            return out.read_bytes(), out.with_suffix(".csv").read_bytes()

        one = report("one")
        monkeypatch.setattr(_blas, "_openblas", lambda: None)  # leaves BLAS at 2 threads
        assert report("two") == one

    @pytest.mark.parametrize("out", ["existing_dir", "missing/reports.json"])
    def test_verify_bad_out_exit_two_before_any_check(self, tmp_path, capsys, out):
        (tmp_path / "existing_dir").mkdir()
        rc = cli.main(["verify", "--checks", "subblock_inequality",
                       "--out", str(tmp_path / out)])
        self._assert_refused_before_work(rc, capsys)

    @pytest.mark.parametrize("out", ["existing_dir", "r.json", "missing/r.json"])
    def test_diagnose_bad_out_exit_two_before_any_work(self, tmp_path, capsys, monkeypatch, out):
        from isogeo.network import NetSpec, init_network, save_params
        from isogeo.rng import RngState

        (tmp_path / "existing_dir").mkdir()
        (tmp_path / "r.csv").mkdir()  # the CSV sibling of r.json
        model = str(tmp_path / "m.bin")
        save_params(init_network(NetSpec(4, (3,), 2), RngState(0))[0], model)
        calls = []
        monkeypatch.setattr(cli, "diagnose", lambda *a, **k: calls.append(a))
        rc = cli.main(["diagnose", "--model", model, "--sigma-grid", "0.1",
                       "--out", str(tmp_path / out)])
        self._assert_refused_before_work(rc, capsys)
        assert calls == []

    @pytest.mark.parametrize("outdir", ["a_file", "a_file/sub", "out"])
    def test_experiment_bad_outdir_exit_two_before_training(
        self, tmp_path, capsys, monkeypatch, outdir
    ):
        (tmp_path / "a_file").write_text("")
        (tmp_path / "out" / "compare.json").mkdir(parents=True)  # a directory, not a table
        cfgf = tmp_path / "c.ini"
        cfgf.write_text(f"[experiment]\nkind = compare\noutdir = {tmp_path / outdir}\n")
        calls = []
        monkeypatch.setattr(xp, "run_experiment", lambda *a, **k: calls.append(a))
        rc = cli.main(["compare", "--config", str(cfgf)])
        self._assert_refused_before_work(rc, capsys)
        assert calls == []

    def test_diverging_pgd_row_is_listed_as_failed(self, tmp_path):
        # lr = 1e6 diverges both nets; the PGD attack meets the diverged net
        # first, and its row must still be a failed row, not a config error.
        cfgf = tmp_path / "c.ini"
        outdir = tmp_path / "out"
        cfgf.write_text(
            "[experiment]\n"
            f"kind = compare\noutdir = {outdir}\nseed = 3\n"
            "[train]\nloss = mse\nlr = 1e6\nsteps = 50\nmethods = erm pgd\n"
            "[eval]\neval_rows = 32\nmc_draws = 2\n"
        )
        res = self._run("compare", "--config", str(cfgf))
        assert res.returncode == 0, res.stderr
        assert "Traceback" not in res.stderr
        assert json.loads((outdir / "compare.json").read_text())["failed_rows"] == ["erm", "pgd"]

    @pytest.mark.parametrize("threads", ["abc", "0", "-2"])
    def test_bad_thread_count_exit_two(self, tmp_path, threads):
        cfgf = tmp_path / "c.ini"
        outdir = tmp_path / "out"
        cfgf.write_text(
            f"[experiment]\nkind = compare\noutdir = {outdir}\n"
            "[train]\nsteps = 5\nmethods = erm\n[eval]\neval_rows = 16\nmc_draws = 2\n"
        )
        res = subprocess.run(
            [sys.executable, "-m", "isogeo.cli", "compare", "--config", str(cfgf)],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": SRC, "ISOGEO_THREADS": threads},
        )
        assert res.returncode == 2
        assert (
            f"config error: ISOGEO_THREADS must be an integer >= 1, got '{threads}'"
            in res.stderr
        )
        assert "Traceback" not in res.stderr
        assert not outdir.exists()

    def test_kind_mismatch_exit_two(self, tmp_path):
        cfgf = tmp_path / "c.ini"
        cfgf.write_text("[experiment]\nkind = capsweep\n")
        res = self._run("talign", "--config", str(cfgf))
        assert res.returncode == 2

    def test_capsweep_end_to_end(self, tmp_path):
        cfgf = tmp_path / "c.ini"
        outdir = tmp_path / "out"
        cfgf.write_text(
            "[experiment]\n"
            f"kind = capsweep\noutdir = {outdir}\nseed = 2\n"
            "[train]\nsteps = 400\ncap_grid = 0.3\n"
            "[eval]\neval_rows = 32\nmc_draws = 2\n"
        )
        res = self._run("capsweep", "--config", str(cfgf))
        assert res.returncode == 0
        assert (outdir / "capsweep.csv").exists()
        assert (outdir / "capsweep.json").exists()

    def test_diagnose_end_to_end(self, tmp_path):
        from isogeo.network import NetSpec, init_network, save_params
        from isogeo.rng import RngState

        net, _ = init_network(NetSpec(4, (6,), 3), RngState(1))
        model_path = tmp_path / "net.bin"
        save_params(net, str(model_path))
        out = tmp_path / "diag.json"
        res = self._run(
            "diagnose",
            "--model",
            str(model_path),
            "--sigma-grid",
            "0.05",
            "0.1",
            "--batch",
            "32",
            "--mc-draws",
            "4",
            "--out",
            str(out),
        )
        assert res.returncode == 0
        data = json.loads(out.read_text())
        assert "tdi_at_0" in data

    def test_diagnose_truncated_model_exit_two(self, tmp_path):
        from isogeo.network import NetSpec, init_network, save_params
        from isogeo.rng import RngState

        net, _ = init_network(NetSpec(4, (6,), 3), RngState(1))
        model_path = tmp_path / "net.bin"
        save_params(net, str(model_path))
        model_path.write_bytes(model_path.read_bytes()[:20])
        res = self._run("diagnose", "--model", str(model_path), "--sigma-grid", "0.1")
        assert res.returncode == 2
        assert "config error: parameter file truncated" in res.stderr
        assert "Traceback" not in res.stderr

    @pytest.mark.parametrize("batch", ["-3", "0"])
    def test_diagnose_batch_below_one_exit_two(self, tmp_path, batch):
        from isogeo.network import NetSpec, init_network, save_params
        from isogeo.rng import RngState

        net, _ = init_network(NetSpec(4, (6,), 3), RngState(1))
        model_path = tmp_path / "net.bin"
        save_params(net, str(model_path))
        out = tmp_path / "diag.json"
        res = self._run("diagnose", "--model", str(model_path), "--sigma-grid", "0.1",
                        "--batch", batch, "--out", str(out))
        assert res.returncode == 2
        assert "config error: --batch must be >= 1" in res.stderr
        assert "Traceback" not in res.stderr
        assert not out.exists()

    def test_diagnose_seed_out_of_range_exit_two(self, tmp_path):
        from isogeo.network import NetSpec, init_network, save_params
        from isogeo.rng import RngState

        net, _ = init_network(NetSpec(4, (6,), 3), RngState(1))
        model_path = tmp_path / "net.bin"
        save_params(net, str(model_path))
        out = tmp_path / "diag.json"
        res = self._run("diagnose", "--model", str(model_path), "--sigma-grid", "0.1",
                        "--seed", "-1", "--out", str(out))
        assert res.returncode == 2
        assert "config error: seed must be a 64-bit unsigned int, got -1" in res.stderr
        assert "Traceback" not in res.stderr
        assert not out.exists()

    @pytest.mark.parametrize("sigma", ["nan", "inf"])
    def test_diagnose_non_finite_sigma_exit_two(self, tmp_path, sigma):
        from isogeo.network import NetSpec, init_network, save_params
        from isogeo.rng import RngState

        net, _ = init_network(NetSpec(4, (6,), 3), RngState(1))
        model_path = tmp_path / "net.bin"
        save_params(net, str(model_path))
        out = tmp_path / "diag.json"
        res = self._run("diagnose", "--model", str(model_path), "--sigma-grid", "0.1", sigma,
                        "--batch", "16", "--mc-draws", "2", "--out", str(out))
        assert res.returncode == 2
        assert "config error: --sigma-grid values must be finite and > 0" in res.stderr
        assert "Traceback" not in res.stderr
        assert not out.exists()

    def test_diagnose_missing_model_exit_two(self, tmp_path):
        res = self._run(
            "diagnose", "--model", str(tmp_path / "none.bin"), "--sigma-grid", "0.1"
        )
        assert res.returncode == 2


@pytest.mark.parametrize("loss", ["mse", "cross-entropy"])
def test_data_source_equals_per_member_samples(loss):
    from isogeo import data as dt
    from isogeo.rng import RngState

    config = small_config(loss=loss, d_s=3, d_n=5, rho=0.7, sigma_eps=0.2)
    states = [RngState(4, 1), RngState(9), RngState(2**63 + 7, 2**65)]
    x, y, successors = config.data_source()(states, 7)
    assert x.shape == (3, 7, 8) and y.shape == (3, 7)
    for k, state in enumerate(states):
        batch, after = dt.sample(config.model(), 7, state)
        want_y = dt.threshold_labels(batch.y) if loss == "cross-entropy" else batch.y
        assert x[k].tobytes() == batch.x.tobytes()
        assert y[k].dtype == want_y.dtype and y[k].tobytes() == want_y.tobytes()
        assert successors[k] == after
