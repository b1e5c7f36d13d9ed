"""Why plugging posterior means into Lambda Lambda' + Sigma goes wrong.

The factors eta = g(u) are not standardized, so the naive covariance
reconstruction assumes a factor covariance of the identity that the model
never promised. The corrected estimator inserts the sample covariance of the
posterior-mean factors instead.
"""

import numpy as np

from nifa import DiffusionConfig, run_pretraining
from nifa.metrics import covariance_estimators
from nifa.model import DataMatrix, FactorAssignment, Hyperparameters
from nifa.sampler import run_chain
from nifa.simulate import gen_setting1

for seed in range(3):
    data = gen_setting1(300, seed)
    anchors, _ = run_pretraining(data, DiffusionConfig(dimension_offset=1), 20)
    augmented = DataMatrix(np.hstack([anchors.coordinates, data.values]))
    assignment = FactorAssignment.round_robin(2 * anchors.n_anchors, anchors.n_anchors)
    hp = Hyperparameters(iterations=4000, burn_in=2000, thin=10, seed=seed + 50)
    chain = run_chain(augmented, anchors, hp, assignment)

    empirical, naive, corrected = covariance_estimators(chain, augmented)
    d_naive = np.linalg.norm(naive - empirical)
    d_corr = np.linalg.norm(corrected - empirical)
    print(f"seed {seed}: |naive - empirical| = {d_naive:.3f}, "
          f"|corrected - empirical| = {d_corr:.3f}")
