import math
import random

import numpy as np
import pytest

from pairrank.objective import LossConfig, batch_loss, pairwise_loss

CFG = LossConfig(lambda1=0.5, lambda2=0.5, margin=0.2, epsilon=1e-7)


def loss_grad(yp: float, yn: float, cfg: LossConfig = CFG) -> tuple[float, float]:
    """(dL/dyp, dL/dyn) of one pair: ``batch_loss``'s gradients for N = 1."""
    _, d_yp, d_yn = batch_loss([yp], [yn], cfg)
    return float(d_yp[0]), float(d_yn[0])


def test_perfect_separation_vanishes():
    eps = CFG.epsilon
    assert pairwise_loss(1 - eps, eps, CFG) == pytest.approx(0.0, abs=1e-6)


def test_hand_value_symmetric_half():
    # -0.5(ln 0.5 + ln 0.5) + 0.5 * max(0, 0.2 - 0.5 + 0.5)
    assert pairwise_loss(0.5, 0.5, CFG) == pytest.approx(0.7931, abs=1e-4)


def test_hand_value_well_separated():
    # -0.5(ln 0.9 + ln 0.9), hinge inactive
    assert pairwise_loss(0.9, 0.1, CFG) == pytest.approx(0.10536, abs=1e-4)


def test_grad_hinge_active():
    d_yp, d_yn = loss_grad(0.5, 0.5)
    assert d_yp == pytest.approx(-1.5)
    assert d_yn == pytest.approx(1.5)


def test_grad_hinge_inactive():
    d_yp, d_yn = loss_grad(0.9, 0.1)
    assert d_yp == pytest.approx(-0.5 / 0.9)
    assert d_yn == pytest.approx(0.5 / 0.9)


def test_grad_matches_finite_differences():
    rnd = random.Random(17)
    h = 1e-7
    for _ in range(20):
        yp = rnd.uniform(0.05, 0.95)
        yn = rnd.uniform(0.05, 0.95)
        if abs(CFG.margin - yp + yn) < 1e-3:  # stay away from the kink
            continue
        d_yp, d_yn = loss_grad(yp, yn)
        fd_yp = (pairwise_loss(yp + h, yn, CFG) - pairwise_loss(yp - h, yn, CFG)) / (2 * h)
        fd_yn = (pairwise_loss(yp, yn + h, CFG) - pairwise_loss(yp, yn - h, CFG)) / (2 * h)
        assert d_yp == pytest.approx(fd_yp, rel=1e-6)
        assert d_yn == pytest.approx(fd_yn, rel=1e-6)


def test_loss_nonnegative_and_gradient_signs():
    rnd = random.Random(3)
    for _ in range(2000):
        cfg = LossConfig(margin=rnd.uniform(0.01, 0.99))
        yp, yn = rnd.random(), rnd.random()
        assert pairwise_loss(yp, yn, cfg) >= 0.0
        d_yp, d_yn = loss_grad(yp, yn, cfg)
        assert d_yp <= 0.0 and d_yn >= 0.0


def test_monotonicity():
    for yn in (0.1, 0.5, 0.9):
        losses = [pairwise_loss(yp, yn, CFG) for yp in np.linspace(0.01, 0.99, 50)]
        assert all(a >= b - 1e-12 for a, b in zip(losses, losses[1:]))
    for yp in (0.1, 0.5, 0.9):
        losses = [pairwise_loss(yp, yn, CFG) for yn in np.linspace(0.01, 0.99, 50)]
        assert all(a <= b + 1e-12 for a, b in zip(losses, losses[1:]))


def test_batch_single_equals_pairwise():
    loss, d_yp, d_yn = batch_loss([0.7], [0.3], CFG)
    assert loss == pytest.approx(pairwise_loss(0.7, 0.3, CFG))
    # hinge inactive (0.2 - 0.7 + 0.3 < 0): only the CE terms remain
    assert (d_yp[0], d_yn[0]) == pytest.approx((-CFG.lambda1 / 0.7, CFG.lambda1 / 0.7))


def test_batch_duplicates_keep_mean():
    one, _, _ = batch_loss([0.6], [0.4], CFG)
    two, d_yp, _ = batch_loss([0.6, 0.6], [0.4, 0.4], CFG)
    assert two == pytest.approx(one)
    assert d_yp[0] == pytest.approx(loss_grad(0.6, 0.4)[0] / 2)


def test_batch_hand_value():
    loss, _, _ = batch_loss([0.5, 0.9], [0.5, 0.1], CFG)
    assert loss == pytest.approx(0.4492, abs=1e-4)


def test_batch_length_mismatch():
    with pytest.raises(ValueError):
        batch_loss([0.5], [0.5, 0.5], CFG)
    with pytest.raises(ValueError):
        batch_loss([], [], CFG)


def test_config_validation():
    with pytest.raises(ValueError):
        LossConfig(lambda1=0.0, lambda2=0.0)
    with pytest.raises(ValueError):
        LossConfig(margin=1.5)
    with pytest.raises(ValueError):
        LossConfig(epsilon=1e-2)
    for bad in (dict(lambda1=math.nan), dict(lambda2=math.inf), dict(lambda1=-math.inf),
                dict(lambda1=True), dict(lambda2=False), dict(margin=math.nan),
                dict(lambda1=10**400), dict(lambda2=-10**400)):
        with pytest.raises(ValueError):
            LossConfig(**bad)


def test_clamp_makes_loss_total():
    assert math.isfinite(pairwise_loss(0.0, 1.0, CFG))


def test_batch_loss_golden_values():
    """Loss and gradients recorded bit for bit: clamped scores at both ends
    (0, 1, 1e-9, 1 - 1e-9), active and inactive hinges, two configs."""
    yps = [0.0, 1.0, 1e-9, 1 - 1e-9, 0.5, 0.9, 0.3, 0.62]
    yns = [1.0, 0.0, 0.4, 1e-9, 0.5, 0.1, 0.45, 1 - 1e-9]
    loss, d_yp, d_yn = batch_loss(yps, yns, CFG)
    assert loss == 4.486879326694506
    assert d_yp.tolist() == [-625000.0625, -0.06250000625000063, -625000.0625,
                             -0.06250000625000063, -0.1875, -0.06944444444444445,
                             -0.27083333333333337, -0.16330645161290325]
    assert d_yn.tolist() == [625000.0628289724, 0.06250000625000063, 0.16666666666666669,
                             0.06250000625000063, 0.1875, 0.06944444444444445,
                             0.17613636363636365, 625000.0628289724]
    cfg = LossConfig(lambda1=0.3, lambda2=0.9, margin=0.35, epsilon=1e-5)
    loss, d_yp, d_yn = batch_loss(yps, yns, cfg)
    assert loss == 2.3054740680868537
    assert d_yp.tolist() == [-3750.1124999999997, -0.03750037500375004, -3750.1124999999997,
                             -0.03750037500375004, -0.1875, -0.041666666666666664,
                             -0.2375, -0.17298387096774193]
    assert d_yn.tolist() == [3750.1125000170664, 0.03750037500375004, 0.175,
                             0.03750037500375004, 0.1875, 0.041666666666666664,
                             0.18068181818181817, 3750.1125000170664]
