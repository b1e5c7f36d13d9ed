"""Using the fitted model as a generative density estimate.

After fitting, new rows are simulated by drawing a retained sample, sampling
fresh uniform latent locations, pushing them through the monotone mappings and
adding residual noise. We score the draws against held-out data with the
sliced Wasserstein distance and compare with the distance between two held-out
sets, which is the best any model could do.
"""

import numpy as np

from nifa import DiffusionConfig, run_pretraining
from nifa.metrics import sliced_wasserstein
from nifa.model import DataMatrix, FactorAssignment, Hyperparameters
from nifa.sampler import run_chain
from nifa.simulate import gen_setting1, posterior_predictive_array

train = gen_setting1(400, seed=3)
test = gen_setting1(1000, seed=4).values

anchors, _ = run_pretraining(train, DiffusionConfig(dimension_offset=1), 20)
augmented = DataMatrix(np.hstack([anchors.coordinates, train.values]))
assignment = FactorAssignment.round_robin(2 * anchors.n_anchors, anchors.n_anchors)
hp = Hyperparameters(iterations=4000, burn_in=2000, thin=10, seed=9)
chain = run_chain(augmented, anchors, hp, assignment)

draws = posterior_predictive_array(chain, 1000, np.random.default_rng(10))
# Drop the synthetic anchor columns so draws live in the observed space.
draws = draws[:, anchors.n_anchors:]

sw_model = sliced_wasserstein(draws, test, n_projections=500, rng=7)
ref_a = gen_setting1(1000, seed=5).values
ref_b = gen_setting1(1000, seed=6).values
sw_floor = sliced_wasserstein(ref_a, ref_b, n_projections=500, rng=7)

print(f"sliced Wasserstein, model draws vs held-out: {sw_model:.4f}")
print(f"sliced Wasserstein, held-out vs held-out:    {sw_floor:.4f}")
print("marginal means, draws :", np.round(draws.mean(0), 3))
print("marginal means, test  :", np.round(test.mean(0), 3))
print("marginal sds,   draws :", np.round(draws.std(0), 3))
print("marginal sds,   test  :", np.round(test.std(0), 3))
