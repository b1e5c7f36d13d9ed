"""Fitting the nonlinear factor model and resolving rotational ambiguity.

Two independent latent curves drive ten observed columns. We pretrain to get
anchor columns, run the Gibbs-within-MALA sampler on the augmented data, and
then align every retained sample to a pivot so loadings become comparable
across the chain.
"""

import numpy as np

from nifa import DiffusionConfig, run_pretraining
from nifa.model import DataMatrix, FactorAssignment, Hyperparameters
from nifa.postprocess import postprocess_chain, summarize
from nifa.sampler import run_chain
from nifa.simulate import gen_setting3

data = gen_setting3(300, seed=7)
anchors, _ = run_pretraining(data, DiffusionConfig(epsilon_dm=0.5, dimension_offset=1), 20)
print(f"pretraining found K = {anchors.n_anchors} latent coordinates")

# Augment the data with the anchor columns; their residual variances stay
# fixed so the latent locations remain tied to the embedding.
augmented = DataMatrix(np.hstack([anchors.coordinates, data.values]))

# Two monotone mappings per coordinate let a column pair like (2z, 2z^2)
# load on curves of different shape.
assignment = FactorAssignment.round_robin(2 * anchors.n_anchors, anchors.n_anchors)
hp = Hyperparameters(iterations=4000, burn_in=2000, thin=10, seed=1)
chain = run_chain(augmented, anchors, hp, assignment)
print(f"retained {len(chain)} samples, "
      f"MALA acceptance {chain.diagnostics.mala_acceptance_rate:.2f}")

aligned, report = postprocess_chain(chain)
print(f"alignment pivot: sample {report.pivot_index}, "
      f"{len(report.ties)} ambiguous matches")

summary = summarize(aligned)
lam = summary["loadings_mean"]
print("posterior mean loadings (rows = anchor cols then data cols):")
print(np.round(lam, 2))
print("posterior mean residual variances:")
print(np.round(summary["variances_mean"], 4))
