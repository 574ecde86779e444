"""Golden outputs: SHA-256 digests of small emitted files.

Each entry writes one file through the package's own writers (experiment
tables, check reports, training logs, diagnostics) at a reduced
size and compares its digest with the one recorded here.  A refactor that
keeps these digests keeps the bytes users see.  The digests belong to the
numpy/BLAS build they were recorded with: a different BLAS may round a few
matrix products differently and change them without any program change.

To record new digests after an intended output change, run this file with
``-s`` and copy the printed digests of the failing entries.
"""

import hashlib

import pytest

from isogeo import checks as ck
from isogeo import cli
from isogeo import data as dt
from isogeo import experiments as xp
from isogeo.network import NetSpec, init_network, save_params
from isogeo.objectives import TrainConfig, WarmupSchedule, train
from isogeo.rng import derive


def _emit(config, tmp_path):
    """CSV and JSON of one experiment, keyed by extension."""
    paths = xp.emit(xp.run_experiment(config), str(tmp_path))
    return {p.rsplit(".", 1)[1]: p for p in paths}


def _capsweep(tmp_path):
    # criterion 11 sizes
    cfg = xp.default_config(
        "capsweep", seed=11, steps=600, cap_grid=(0.25, 0.3), eval_rows=64, mc_draws=4
    )
    return _emit(cfg, tmp_path)


def _compare(tmp_path):
    # criterion 11 sizes
    cfg = xp.default_config(
        "compare", seed=12, steps=300, eval_rows=48, mc_draws=4,
        methods=("erm", "pmh"), sigma_eval=(0.05, 0.1),
    )
    return _emit(cfg, tmp_path)


def _compare_pgd(tmp_path):
    cfg = xp.default_config(
        "compare", seed=13, steps=60, eval_rows=48, mc_draws=4,
        methods=("pgd",), sigma_eval=(0.05, 0.1),
    )
    return _emit(cfg, tmp_path)


def _talign(tmp_path):
    cfg = xp.default_config(
        "talign", seed=14, steps=200, seeds_per_cell=2, eval_rows=64, mc_draws=4
    )
    return _emit(cfg, tmp_path)


def _multiscale(tmp_path):
    cfg = xp.default_config("multiscale", seed=15, steps=200, eval_rows=64, mc_draws=4)
    return _emit(cfg, tmp_path)


def _train_logs(tmp_path):
    spec = NetSpec(input_dim=16, hidden=(32,), rep_dim=16, out_dim=1, activation="tanh")
    source = dt.model_batch_source(ck.default_model())
    out = {}
    for objective in ("erm", "pgd", "pmh"):
        cfg = TrainConfig(
            objective=objective, steps=50, seed=16, warmup=WarmupSchedule(t0=5, duration=15)
        )
        _, log = train(cfg, spec, source)
        out[objective] = str(tmp_path / f"{objective}.csv")
        log.to_csv(out[objective])
    return out


def _reports(tmp_path):
    training_free = [
        ck.check_subblock_inequality(seed=17),
        ck.check_anisotropy_floor(seed=17),
        ck.check_nuisance_subspace_recovery(seed=17),
    ]
    cap = ck.check_cap_fixed_point(caps=(0.1, 0.6), steps=200, seed=18)
    adversarial = ck.check_adversarial_geometry_signature(
        seed=19, n_seeds=1, config=xp.ExperimentConfig(kind="compare", steps=100, mc_draws=48)
    )
    # The million-row checks at reduced n: the even counts span several
    # blocks of rows or of the Stein draw, the odd ones do not split.
    bulk = [
        ck.check_stein_identity(g_tag="quadratic", n=250_001, seed=23),
        ck.check_stein_identity(g_tag="cubic", n=250_000, seed=23),
        ck.check_encoding_necessity(n=150_000, seed=23),
        ck.check_encoding_necessity(
            dt.GaussianNuisanceModel.canonical(3, 5, 0.4, 0.2), n=40_001, seed=23
        ),
        ck.check_suppression_cost_exact(n=100_002, seed=23),
        ck.check_suppression_cost_exact(rhos=(0.3,), n=30_001, seed=24),
    ]
    out = {}
    for name, reports in (("training_free", training_free), ("cap", [cap]),
                          ("adversarial", [adversarial]), ("bulk", bulk)):
        out[name] = str(tmp_path / f"{name}.json")
        ck.write_reports(reports, out[name])
    return out


def _adversarial_seeds(tmp_path):
    # two seeds, so every objective trains more than one net
    report = ck.check_adversarial_geometry_signature(
        seed=22, n_seeds=2, config=xp.ExperimentConfig(kind="compare", steps=60, mc_draws=8)
    )
    out = str(tmp_path / "adversarial_seeds.json")
    ck.write_reports([report], out)
    return {"json": out}


def _diagnose(tmp_path):
    spec = NetSpec(input_dim=16, hidden=(32,), rep_dim=16, out_dim=1, activation="tanh")
    net, _ = init_network(spec, derive(20, "golden-net"))
    model = str(tmp_path / "init.bin")
    save_params(net, model)
    out = str(tmp_path / "init_diagnostics.json")
    rc = cli.main(["diagnose", "--model", model, "--sigma-grid", "0.05", "0.2",
                   "--batch", "64", "--mc-draws", "4", "--seed", "20", "--out", out])
    assert rc == 0
    return {"json": out, "csv": out[: -len(".json")] + ".csv"}


PRODUCERS = {
    "adversarial_seeds": _adversarial_seeds,
    "capsweep": _capsweep,
    "compare": _compare,
    "compare_pgd": _compare_pgd,
    "talign": _talign,
    "multiscale": _multiscale,
    "train_log": _train_logs,
    "reports": _reports,
    "diagnose": _diagnose,
}

DIGESTS = {
    "adversarial_seeds:json": "db99e719349a58f77f8bbe0c63fad6feff47b1851f6e75a9482a38f9a7072712",
    "capsweep:csv": "4199ffdf3623f098fb44480f517bd114de20f907f14fa9543e2771b98af35b30",
    "capsweep:json": "1c173630e8aef1ede08ed880686824ca5b86067a08eed76c4d2ef7bfd4e9b50f",
    "compare:csv": "6e4db6d38edb0b89f9ee81b4c1693f769e09216f602894812a8cb1d6bd43b95a",
    "compare:json": "547b0e47c9bbdd59d1fe80c689be57b22bfd1c3f3c3b093f42a8e0949d6df4dc",
    "compare_pgd:csv": "75d7a4a7d84c054eede1149eb72d0d61100e5c4c1f36d7c573f86b5338a1a56f",
    "compare_pgd:json": "3090eeaa1029957b36fc96a99cb3bdabec9a31b974d80eabbda450ab416e5abc",
    "diagnose:csv": "3cd4bf8338d7fc2bdc33f136ddff3425bf7c6ac36c1d1556a93639c11bc19aa2",
    "diagnose:json": "2f1a2854ba13970165b110d5e665536f60334bc5482e2d560b741770ae5f9dcd",
    "multiscale:csv": "be7fa5729d60bc0e2fe10162bc36871f5ebc6aa1e69a2f224acc22692c4054a8",
    "multiscale:json": "78f43ad73c59c4310ea8bf15fd095a455b8bda65f68ac397ee81007ed0067404",
    "reports:adversarial": "eefd78785d9ea1373bdef2dd7c023bce5201db4accbbf4cfc3f143b5891168f6",
    "reports:bulk": "fa1b544529991deec970ef130fa6046940b18f12e69fbef5db0605365be2be1d",
    "reports:cap": "af5502c490fdfd970434b08f46f426e92b3a71433556d7d8dc787dabe0e22d09",
    "reports:training_free": "a8373f6095721aff0278687ee22991bcdb385855ff71aa543a5d77ff56ed2187",
    "talign:csv": "e6a62bd1a3ff258b1c8d6135b303bf6bdbdafc0ea76686e63e8f42df979fd7b9",
    "talign:json": "7256acf093581c0aa31019578360cdfbac1517f25940b527ef9dbf4a4a0c576c",
    "train_log:erm": "0e0b0868b0b2e201eee4ad1d482a8766a0316da1b608f57b2c9477bfc7e21796",
    "train_log:pgd": "533b32991ebb3da55eeafe375e3fa048247bdf1a92c953675fdb4f7a96e098ad",
    "train_log:pmh": "cabf6234fe75794e4d372d78edd095bd95c6397d662627a40e4bed8d2ab70e96",
}


@pytest.mark.parametrize("producer", sorted(PRODUCERS))
def test_outputs_match_recorded_digests(producer, tmp_path):
    files = PRODUCERS[producer](tmp_path)
    got = {}
    for key, path in sorted(files.items()):
        with open(path, "rb") as f:
            got[f"{producer}:{key}"] = hashlib.sha256(f.read()).hexdigest()
    for name, digest in got.items():
        print(f'    "{name}": "{digest}",')
    assert got == {name: DIGESTS.get(name) for name in got}
