"""Recovering independent generators of a Swiss roll with diffusion maps.

The pretraining stage embeds the data with a graph Laplacian, estimates the
latent dimension from local covariance spectra, and keeps the leading
coordinates as anchor columns for the factor model.
"""

import numpy as np

from nifa import DiffusionConfig, run_pretraining
from nifa.model import rank_transform
from nifa.simulate import gen_swiss_roll


def spearman(a, b):
    """Spearman rank correlation: the Pearson correlation of the ranks (the
    data here have no ties)."""
    return np.corrcoef(rank_transform(a), rank_transform(b))[0, 1]


data, u_true, v_true = gen_swiss_roll(500, seed=2)
print(f"data: {data.n_rows} points in {data.n_features} dimensions")

# The roll winds with a gap of about 2*pi between sheets, so the kernel
# bandwidth has to stay below that gap or the embedding glues the windings
# together. The default median-distance heuristic is far too wide here.
cfg = DiffusionConfig(epsilon_dm=1.5)
anchors, decisions = run_pretraining(data, cfg, n_pieces=20)

# The decisions record what pretraining chose and why: the local radius it
# resolved by default, and the successor ratios of the mean local eigenvalues
# that the dimension rule reads.
print(f"local radius epsilon_local = {decisions['config']['epsilon_local']:.4f}")
print("eigenvalue ratios:", ", ".join(f"{r:.3g}" for r in decisions["eigenvalue_ratios"]))
print(f"estimated latent dimension: {anchors.n_anchors}")
for j in range(anchors.n_anchors):
    r_u = spearman(anchors.coordinates[:, j], u_true)
    r_v = spearman(anchors.coordinates[:, j], v_true)
    print(f"anchor {j}: |spearman| vs winding position {abs(r_u):.3f}, "
          f"vs width position {abs(r_v):.3f}")

# The winding direction is two orders of magnitude longer than the width, so
# only that direction survives as a slow eigenfunction; the width coordinate
# would show up far deeper in the spectrum.
print("anchor residual variances:", np.round(anchors.residual_variances, 5))
