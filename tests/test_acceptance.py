"""Acceptance suite: eight end-to-end checks of the full pipeline.

Each test runs one acceptance criterion at its stated tolerance and prints a
single pass/fail line. Configurations (seeds, chain lengths, bandwidths) are
declared constants chosen once; the assertions themselves are never loosened.
The whole module takes roughly ten minutes on a single laptop core.
"""

import numpy as np
import pytest
from functools import partial
from itertools import permutations, product

from nifa.metrics import (
    covariance_estimators,
    ks_to_uniform,
    sliced_wasserstein,
    sliced_wasserstein_details,
    wasserstein2_1d,
)
from nifa.model import (
    DataMatrix,
    FactorAssignment,
    Hyperparameters,
    eta,
)
from nifa.postprocess import match_align, postprocess_chain
from nifa.pretrain import DiffusionConfig, run_pretraining
from nifa.sampler import (
    loadings_posterior,
    mala_step,
    residual_variance_params,
    run_chain,
    sample_loadings,
    sample_residual_variances,
    sample_spline_coefficients,
    spline_posterior,
    u_log_target,
)
from nifa.simulate import (
    gen_setting1,
    gen_setting2,
    gen_setting3,
    gen_swiss_roll,
    posterior_predictive_array,
)


def _report(capsys, label, ok, detail):
    with capsys.disabled():
        print(f"[acceptance] {label}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{label}: {detail}"


def fit(data, cfg, factor_mult, hp):
    """Standard pipeline: pretrain, augment with anchors, run one chain."""
    anchor = run_pretraining(data, cfg, 20)
    aug = DataMatrix(np.hstack([anchor.coordinates, data.values]))
    asg = FactorAssignment.round_robin(factor_mult * anchor.n_anchors, anchor.n_anchors)
    return run_chain(aug, anchor, hp, asg), aug


# ---------------------------------------------------------------------------
# 1. Loading recovery on the linear two-factor benchmark


def _loading_error(est, truth):
    """Relative Frobenius error after column normalization and the best
    permutation/sign match."""
    e = est / np.linalg.norm(est, axis=0)
    t = truth / np.linalg.norm(truth, axis=0)
    k = t.shape[1]
    best = np.inf
    for perm in permutations(range(k)):
        for signs in product((1.0, -1.0), repeat=k):
            cand = e[:, perm] * np.array(signs)
            best = min(best, np.linalg.norm(cand - t) / np.linalg.norm(t))
    return best


def test_criterion_1_loading_recovery(capsys):
    errs = {}
    for n in (100, 800):
        data, lam_true, _ = gen_setting2(n, 46)
        hp = Hyperparameters(iterations=6000, burn_in=3000, thin=10, seed=5)
        chain, _ = fit(data, DiffusionConfig(dimension_offset=1), 1, hp)
        aligned, _ = postprocess_chain(chain)
        k = chain.anchor.n_anchors
        lam_hat = np.mean(aligned.loadings, axis=0)[k:, :]
        errs[n] = _loading_error(lam_hat, lam_true)
    ok = errs[800] <= 0.5 * errs[100] and errs[800] <= 0.15
    _report(capsys, "1 loading recovery", ok,
            f"rel err n=100: {errs[100]:.4f}, n=800: {errs[800]:.4f}")


# ---------------------------------------------------------------------------
# 2. Density estimation across sample sizes

# The linear benchmark's distribution depends on its loading draw, so all of
# its train/test/reference sets are slices of one pool sharing that draw.
_POOL2 = None


def _pool2():
    global _POOL2
    if _POOL2 is None:
        _POOL2 = gen_setting2(800 + 1000 + 40 * 1000, 46)[0].values
    return _POOL2


_DENSITY_CFG = {
    1: dict(cfg=DiffusionConfig(dimension_offset=1), mult=2),
    2: dict(cfg=DiffusionConfig(dimension_offset=1), mult=1),
    3: dict(cfg=DiffusionConfig(epsilon_dm=0.5, dimension_offset=1), mult=2),
}


def _density_train(setting, n):
    if setting == 1:
        return gen_setting1(n, 101)
    if setting == 2:
        return DataMatrix(_pool2()[:n])
    return gen_setting3(n, 103)


def _density_test(setting):
    if setting == 1:
        return gen_setting1(1000, 901).values
    if setting == 2:
        return _pool2()[800:1800]
    return gen_setting3(1000, 903).values


def _density_floor_pair(setting, r):
    if setting == 2:
        pool = _pool2()
        return (pool[1800 + 2000 * r:2800 + 2000 * r],
                pool[2800 + 2000 * r:3800 + 2000 * r])
    gen = gen_setting1 if setting == 1 else gen_setting3
    base = 2000 + 40 * setting + 2 * r
    return gen(1000, base).values, gen(1000, base + 1).values


@pytest.mark.parametrize("setting", [1, 2, 3])
def test_criterion_2_density_estimation(capsys, setting):
    conf = _DENSITY_CFG[setting]
    test = _density_test(setting)
    floor = float(np.mean(
        [sliced_wasserstein(*_density_floor_pair(setting, r), 500, 7) for r in range(20)]
    ))
    sws = []
    for n in (100, 200, 400, 800):
        hp = Hyperparameters(iterations=6000, burn_in=3000, thin=10, seed=5)
        chain, _ = fit(_density_train(setting, n), conf["cfg"], conf["mult"], hp)
        draws = posterior_predictive_array(chain, 1000, np.random.default_rng(6))
        draws = draws[:, chain.anchor.n_anchors:]
        sws.append(sliced_wasserstein(draws, test, 500, 7))
    inversions = sum(1 for i in range(3) if sws[i + 1] > sws[i])
    ok = sws[-1] <= 2.0 * floor and inversions <= 1
    _report(capsys, f"2 density estimation (setting {setting})", ok,
            "SW100..800=" + "/".join(f"{s:.3f}" for s in sws)
            + f", floor={floor:.3f}, ratio={sws[-1] / floor:.2f}, inversions={inversions}")


# ---------------------------------------------------------------------------
# 3. Uniform-constraint behavior of the latent locations


def test_criterion_3_uniform_constraint(capsys):
    worst = {}
    for nu in (1e3, 0.0):
        hp = Hyperparameters(nu=nu, iterations=20000, burn_in=10000, thin=20, seed=11)
        chain, _ = fit(gen_setting1(100, 0), DiffusionConfig(dimension_offset=1), 1, hp)
        worst[nu] = max(
            ks_to_uniform(u[:, k])
            for u in chain.latent_locations
            for k in range(u.shape[1])
        )
    ok = worst[1e3] < 0.1 and worst[0.0] > 0.1
    _report(capsys, "3 uniform constraint", ok,
            f"max KS with penalty: {worst[1e3]:.3f}, without: {worst[0.0]:.3f}")


# ---------------------------------------------------------------------------
# 4. Identifiability post-processing


def _mean_surfaces(chain, grid):
    grid_u = np.repeat(grid[:, None], chain.assignment.n_locations, axis=1)
    return np.array([eta(c, grid_u, chain.assignment) @ lam.T
                     for lam, c in zip(chain.loadings, chain.spline_coefficients)])


def test_criterion_4_postprocessing(capsys):
    hp = Hyperparameters(iterations=3000, burn_in=1500, thin=10, seed=3)
    chain, _ = fit(gen_setting3(200, 103), DiffusionConfig(epsilon_dm=0.5, dimension_offset=1), 2, hp)
    grid = np.linspace(0.0, 1.0, 101)
    before = _mean_surfaces(chain, grid)
    aligned, _ = postprocess_chain(chain)
    after = _mean_surfaces(aligned, grid)
    sup = float(np.max(np.abs(after - before)))
    norm_err = max(
        float(np.max(np.abs(np.linalg.norm(lam, axis=0) - 1.0)))
        for lam in aligned.loadings
    )
    # idempotency applies to the alignment step itself; the final unit-norm
    # rescaling equalizes all singular values of a partition, so a repeated
    # orthogonalization after it would be a degenerate problem by design
    once, _ = match_align(chain)
    twice, _ = match_align(once)
    idem = max(
        float(np.max(np.abs(a - b)))
        for a, b in zip(once.loadings, twice.loadings)
    )
    ok = sup < 1e-8 and norm_err < 1e-12 and idem < 1e-10
    _report(capsys, "4 identifiability post-processing", ok,
            f"sup-norm change {sup:.2e}, unit-norm err {norm_err:.2e}, idempotency {idem:.2e}")


# ---------------------------------------------------------------------------
# 5. Sampler correctness


def _random_state(rng, n=12, p=4, h=2, k=2, L=5):
    coef = np.column_stack([
        np.concatenate([[rng.normal()], np.abs(rng.normal(size=L))]) for _ in range(h)
    ])
    return dict(
        loadings=rng.normal(size=(p, h)),
        spline_coefficients=coef,
        latent_locations=rng.uniform(0.05, 0.95, size=(n, k)),
        residual_variances=rng.uniform(0.3, 1.5, size=p),
        local_scales=rng.uniform(0.5, 2.0, size=(p, h)),
        global_scale=1.2,
        assignment=FactorAssignment.round_robin(h, k),
    )


def _u_target(state, data, nu):
    """The latent-location log target of a state as a function of u alone."""
    return partial(u_log_target, coefficients=state["spline_coefficients"],
                   loadings=state["loadings"], residual_variances=state["residual_variances"],
                   assignment=state["assignment"], data=data, nu=nu)


def test_criterion_5a_gradient(capsys):
    rng = np.random.default_rng(42)
    state = _random_state(rng)
    data = DataMatrix(rng.normal(size=(12, 4)))
    worst = 0.0
    for _ in range(100):
        target = _u_target(state, data, nu=1e3)
        _, grad = target(state["latent_locations"])
        i = rng.integers(12)
        k = rng.integers(2)
        eps = 1e-6
        for sign in (1,):
            u_hi = state["latent_locations"].copy()
            u_lo = state["latent_locations"].copy()
            u_hi[i, k] += eps
            u_lo[i, k] -= eps
            hi, _ = target(u_hi)
            lo, _ = target(u_lo)
            fd = (hi - lo) / (2 * eps)
            rel = abs(fd - grad[i, k]) / max(abs(fd), 1e-12)
            worst = max(worst, rel)
        state = _random_state(rng)
        data = DataMatrix(rng.normal(size=(12, 4)))
    ok = worst <= 1e-5
    _report(capsys, "5a gradient check", ok, f"max relative error {worst:.2e}")


def test_criterion_5b_conjugate_blocks(capsys):
    rng = np.random.default_rng(7)
    asg = FactorAssignment.round_robin(1, 1)
    coef = np.array([[0.2], [0.8], [1.1], [0.6]])  # intercept, then the slopes
    n = 8
    lam = np.array([[0.7]])
    u = rng.uniform(0.1, 0.9, size=(n, 1))
    sig = np.array([0.4])
    prior_var = 1.1 * np.array([[0.9]])
    data = DataMatrix(rng.normal(size=(n, 1)))
    hp = Hyperparameters(a_sigma=3.0, b_sigma=0.5, sigma_a_sq=1.0, L=3)
    factors = eta(coef, u, asg)

    # loadings row: quadrature over a dense grid of the exact conditional
    mean, _ = loadings_posterior(factors, sig, prior_var, data)
    grid = np.linspace(-30, 30, 1_200_001)
    eta_u = factors[:, 0]
    loglik = -0.5 * np.sum(
        (data.values[:, 0][:, None] - np.outer(eta_u, grid)) ** 2, axis=0
    ) / 0.4
    logpri = -0.5 * grid**2 / (1.1 * 0.9)
    w = np.exp(loglik + logpri - np.max(loglik + logpri))
    err_lam = abs(float(mean[0, 0]) - float(np.sum(grid * w) / np.sum(w)))

    # residual variance: closed-form inverse-gamma mean vs quadrature
    shape, rates = residual_variance_params(factors, lam, data, hp)
    sgrid = np.linspace(1e-6, 50, 2_000_001)
    logp = -(shape + 1) * np.log(sgrid) - rates[0] / sgrid
    wq = np.exp(logp - logp.max())
    err_sig = abs(float(rates[0] / (shape - 1)) - float(np.sum(sgrid * wq) / np.sum(wq)))

    # spline block: conditional mean of the intercept coordinate
    prec, lin = spline_posterior(lam, sig, u, asg, data, hp)
    beta = coef[:, 0]
    c = 0
    cond_mean = (lin[c] - prec[c] @ beta + prec[c, c] * beta[c]) / prec[c, c]
    bgrid = np.linspace(-30, 30, 1_200_001)
    logp = -0.5 * prec[c, c] * bgrid**2 + (lin[c] - (prec[c] @ beta - prec[c, c] * beta[c])) * bgrid
    wb = np.exp(logp - logp.max())
    err_spl = abs(float(cond_mean) - float(np.sum(bgrid * wb) / np.sum(wb)))

    worst = max(err_lam, err_sig, err_spl)
    ok = worst <= 1e-6
    _report(capsys, "5b conjugate blocks vs quadrature", ok,
            f"loadings {err_lam:.2e}, variance {err_sig:.2e}, spline {err_spl:.2e}")


# Geweke successive-conditional check. One factor on one coordinate, the first
# observed column anchored, shrinkage scales held fixed so every remaining
# block (loadings, variances, splines, locations) is exercised.
_GEWEKE_N, _GEWEKE_P, _GEWEKE_L = 20, 3, 4
_GEWEKE_ANCHOR_VAR = 0.25
_GEWEKE_HP = Hyperparameters(nu=0.0, sigma_a_sq=0.5, a_sigma=3.0, b_sigma=1.0, L=4)
_GEWEKE_LOCAL = 0.25
_GEWEKE_EPS = 0.001


_GEWEKE_ASSIGNMENT = FactorAssignment.round_robin(1, 1)
_GEWEKE_PRIOR_VAR = 1.0 * _GEWEKE_LOCAL * np.ones((_GEWEKE_P, 1))  # tau * gamma, held fixed


def _geweke_prior(rng):
    lam = 0.5 * rng.standard_normal((_GEWEKE_P, 1))
    sig = np.empty(_GEWEKE_P)
    sig[0] = _GEWEKE_ANCHOR_VAR
    sig[1:] = 1.0 / rng.gamma(_GEWEKE_HP.a_sigma, 1.0 / _GEWEKE_HP.b_sigma, size=_GEWEKE_P - 1)
    sd = np.sqrt(_GEWEKE_HP.sigma_a_sq)
    coef = np.concatenate([[sd * rng.standard_normal()],
                           sd * np.abs(rng.standard_normal(_GEWEKE_L))])[:, None]
    return dict(
        loadings=lam,
        spline_coefficients=coef,
        latent_locations=rng.uniform(size=(_GEWEKE_N, 1)),
        residual_variances=sig,
    )


def _geweke_factors(state):
    return eta(state["spline_coefficients"], state["latent_locations"], _GEWEKE_ASSIGNMENT)


def _geweke_data(state, rng):
    mean = _geweke_factors(state) @ state["loadings"].T
    noise = rng.standard_normal((_GEWEKE_N, _GEWEKE_P))
    return DataMatrix(mean + noise * np.sqrt(state["residual_variances"]))


def _geweke_sweep(state, data, rng):
    factors = _geweke_factors(state)
    sig = state["residual_variances"]
    lam = sample_loadings(factors, sig, _GEWEKE_PRIOR_VAR, data, rng)
    sig = sample_residual_variances(
        factors, lam, data, _GEWEKE_HP, rng, anchor_variances=np.array([_GEWEKE_ANCHOR_VAR])
    )
    u = state["latent_locations"]
    coef = sample_spline_coefficients(state["spline_coefficients"], lam, sig, u,
                                      _GEWEKE_ASSIGNMENT, data, _GEWEKE_HP, rng)
    target = partial(u_log_target, coefficients=coef, loadings=lam, residual_variances=sig,
                     assignment=_GEWEKE_ASSIGNMENT, data=data, nu=0.0)
    for _ in range(10):
        u, _ = mala_step(u, target, _GEWEKE_EPS, rng)
    return dict(loadings=lam, spline_coefficients=coef, latent_locations=u,
                residual_variances=sig)


def _geweke_moments(state, data):
    lam, coef = state["loadings"], state["spline_coefficients"]
    u, sig = state["latent_locations"], state["residual_variances"]
    x = data.values
    return np.array([
        lam.mean(), (lam ** 2).mean(),
        sig[1:].mean(),
        u.mean(), (u ** 2).mean(),
        coef[0, 0], coef[1:, 0].mean(),
        x.mean(), (x ** 2).mean(),
        float(lam[1, 0] * x[:, 1].mean()),
    ])


def _batch_se(x, n_batch=50):
    m = len(x) // n_batch
    means = x[: m * n_batch].reshape(n_batch, m).mean(axis=1)
    return means.std(ddof=1) / np.sqrt(n_batch)


def test_criterion_5c_geweke(capsys):
    n_sweeps = 50_000
    rng = np.random.default_rng(1234)
    mc = np.empty((n_sweeps, 10))
    for t in range(n_sweeps):
        state = _geweke_prior(rng)
        mc[t] = _geweke_moments(state, _geweke_data(state, rng))

    rng = np.random.default_rng(5678)
    state = _geweke_prior(rng)
    data = _geweke_data(state, rng)
    sc = np.empty((n_sweeps, 10))
    for t in range(n_sweeps):
        state = _geweke_sweep(state, data, rng)
        data = _geweke_data(state, rng)
        sc[t] = _geweke_moments(state, data)

    se_mc = mc.std(axis=0, ddof=1) / np.sqrt(n_sweeps)
    se_sc = np.array([_batch_se(sc[:, i]) for i in range(10)])
    z = (mc.mean(axis=0) - sc.mean(axis=0)) / np.hypot(se_mc, se_sc)
    worst = float(np.max(np.abs(z)))
    ok = worst < 4.0
    _report(capsys, "5c Geweke successive-conditional", ok,
            f"max |z| over 10 moments: {worst:.2f}")


# ---------------------------------------------------------------------------
# 6. Pretraining recovery


def test_criterion_6_pretraining(capsys):
    from scipy.stats import spearmanr

    data, u_true, v_true = gen_swiss_roll(500, 2)
    anchors = run_pretraining(data, DiffusionConfig(epsilon_dm=1.5), 20)
    truths = np.column_stack([u_true, v_true])
    hits = []
    for j in range(anchors.n_anchors):
        cors = [
            abs(spearmanr(anchors.coordinates[:, j], truths[:, t]).statistic)
            for t in range(2)
        ]
        hits.append(sum(c >= 0.9 for c in cors))
    swiss_ok = all(h == 1 for h in hits)

    dims = [
        run_pretraining(gen_setting3(500, s), DiffusionConfig(dimension_offset=1), 20).n_anchors
        for s in (0, 1, 2)
    ]
    dim_ok = all(k == 2 for k in dims)
    ok = swiss_ok and dim_ok
    _report(capsys, "6 pretraining recovery", ok,
            f"swiss-roll unique matches per anchor: {hits}, curve-setting K: {dims}")


# ---------------------------------------------------------------------------
# 7. Covariance-bias demonstration


def test_criterion_7_covariance_bias(capsys):
    results = []
    for seed in range(5):
        hp = Hyperparameters(iterations=4000, burn_in=2000, thin=10, seed=seed + 50)
        chain, aug = fit(gen_setting1(300, seed), DiffusionConfig(dimension_offset=1), 2, hp)
        emp, naive, corrected = covariance_estimators(chain, aug)
        results.append((np.linalg.norm(naive - emp), np.linalg.norm(corrected - emp)))
    ok = all(dc < dn for dn, dc in results)
    _report(capsys, "7 covariance bias", ok,
            "corrected/naive distances: "
            + ", ".join(f"{dc:.3f}/{dn:.1f}" for dn, dc in results))


# ---------------------------------------------------------------------------
# 8. Metric correctness


def test_criterion_8_metrics(capsys):
    # two-point clouds at distance d: expected sliced distance is 2d/pi
    rng = np.random.default_rng(0)
    d = 1.7
    x = np.array([[0.0, 0.0], [0.0, 0.0]])
    y = np.array([[d, 0.0], [d, 0.0]])
    mean, se, _ = sliced_wasserstein_details(x, y, 4000, 1)
    closed_ok = abs(mean - 2 * d / np.pi) <= 3 * se

    worst = 0.0
    axiom_ok = True
    for _ in range(10_000):
        m = rng.integers(1, 12)
        a, b, c = rng.normal(scale=rng.uniform(0.1, 5), size=(3, m))
        dab = wasserstein2_1d(a, b)
        dbc = wasserstein2_1d(b, c)
        dac = wasserstein2_1d(a, c)
        viol = dac - (dab + dbc)
        worst = max(worst, viol)
        if (
            dab < 0
            or abs(wasserstein2_1d(a, b) - wasserstein2_1d(b, a)) > 1e-12
            or wasserstein2_1d(a, a) > 1e-12
            or viol > 1e-9
        ):
            axiom_ok = False
            break
    ok = closed_ok and axiom_ok
    _report(capsys, "8 metric correctness", ok,
            f"closed-form gap {abs(mean - 2 * d / np.pi):.4f} (3se={3 * se:.4f}), "
            f"worst triangle violation {worst:.2e}")
