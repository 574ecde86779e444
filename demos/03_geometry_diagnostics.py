"""Reading an encoder's geometry: TDI, drift, Jacobians, anisotropy.

Builds two encoders with the same Frobenius mass but opposite geometry (an
isotropic map and a rank-1 map) and shows how the diagnostics tell them
apart; then runs the full report on a trained network.

Run:  python demos/03_geometry_diagnostics.py
"""

import numpy as np

from isogeo import (
    Layer,
    MlpEncoderDecoder,
    NetSpec,
    RngState,
    TrainConfig,
    anisotropy_index,
    diagnose,
    jac_frobenius,
    lipschitz_track,
    normal,
    tdi,
    train,
)
from isogeo.data import GaussianNuisanceModel, model_batch_source

d = 8
x_eval, _ = normal(RngState(1), (1024, d))


def wrap(w):
    return MlpEncoderDecoder(
        [Layer(w, np.zeros(w.shape[0]), "identity")],
        Layer(np.ones((1, w.shape[0])), np.zeros(1), "identity"),
    )


# Same Frobenius norm, opposite structure.
iso = wrap(np.eye(d))
v = np.zeros(d)
v[0] = 1.0
rank1 = wrap(np.sqrt(d) * np.outer(np.eye(d)[0], v))  # ||.||_F^2 = d, all in one direction

print("two encoders with identical Frobenius mass:")
for name, net in [("isotropic", iso), ("rank-1", rank1)]:
    fro = jac_frobenius(net, x_eval)
    (res,), _ = tdi(net, x_eval, [0.1], 32, RngState(2))
    a = anisotropy_index(net, x_eval, v)
    print(
        f"  {name:9s}: jac_fro^2 = {fro.value:6.3f}   "
        f"tdi@0.1 = {res.value:.5f}   anisotropy vs e_0 = {a:5.2f}"
    )
print("  (anisotropy 1 = all sensitivity in the probe direction; d = spread evenly)")

print("\ndrift of a linear encoder (from TDI's noise draws) matches sigma^2 ||W||_F^2:")
w, _ = normal(RngState(3), (6, d))
net = wrap(w)
sigmas = (0.05, 0.1, 0.2)
for sigma, res in zip(sigmas, tdi(net, x_eval, sigmas, 64, RngState(4))[0]):
    est = res.drift
    print(
        f"  sigma={sigma:4.2f}: drift = {est.value:8.5f} +- {est.se:.5f}   "
        f"exact = {sigma**2 * np.sum(w**2):8.5f}"
    )

print("\nfull diagnostics report on a trained network:")
model = GaussianNuisanceModel.canonical(4, 4, 0.5, 0.1)
spec = NetSpec(input_dim=8, hidden=(16,), rep_dim=8, out_dim=1, activation="tanh")
cfg = TrainConfig(objective="erm", lr=0.05, steps=2000, batch_size=32, seed=5)
trained, _ = train(cfg, spec, model_batch_source(model))
w_n_full = np.concatenate([np.zeros(4), model.w_n])
report = diagnose(
    trained,
    x_eval,
    sigma_grid=[0.05, 0.1],
    rng=RngState(6),
    mc_draws=32,
    run_id="demo",
    probe_directions={"nuisance": w_n_full},
)
print(f"  tdi@0 (probe sigma {report.tdi_at_0['sigma_probe']}): {report.tdi_at_0['value']:.6f}")
for s, (val, se) in sorted(report.tdi.items()):
    print(f"  tdi@{s:g}: {val:.6f} +- {se:.6f}")
for s, (val, se) in sorted(report.drift.items()):
    print(f"  drift@{s:g}: {val:.6f} +- {se:.6f}")
print(f"  jac_fro^2 (exact): {report.jac_fro['value']:.4f} +- {report.jac_fro['se']:.4f}")
print(f"  sensitivity along the nuisance direction: {report.directional['nuisance'][0]:.4f}")
print(f"  decoder Lipschitz: {report.lipschitz['value']:.4f}")
print(f"  (exact spectral norm, per encoder layer: "
      f"{[f'{v:.3f}' for v in lipschitz_track(trained).encoder_layer_norms]})")
