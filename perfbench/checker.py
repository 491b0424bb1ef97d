"""Independent check of deviation ratings.

Every deviation gain is recomputed from the payoff tensors with an
``einsum`` contraction written here, not with ``devrating.cce``:

    gain_p(a') = sum_a sigma(a) * G_p(a', a_-p)  -  sum_a sigma(a) * G_p(a)

A rating passes when the reported equilibrium is a coarse-correlated
equilibrium, every rating equals its gain there, and every rating lies
in [-(payoff range of its player), 0].  The functions take plain arrays
and return a list of problems (empty when the rating passes).
"""
from __future__ import annotations

import string

import numpy as np

CCE_TOL = 1e-7  # relative to max(1, payoff range), as in RatingCertificate.ok
GAIN_TOL = 1e-6
TIE_TOL = 1e-9


def gains(payoffs, sigma) -> list[np.ndarray]:
    """Per-player deviation gains at the flat joint distribution ``sigma``."""
    shape = payoffs[0].shape
    tensor = np.asarray(sigma, dtype=np.float64).reshape(shape)
    axes = string.ascii_letters[: len(shape)]
    out = []
    for p, g in enumerate(payoffs):
        expected = np.einsum(f"{axes},{axes}->", g, tensor)
        # Deviator's own axis is summed out of sigma and kept free in G_p.
        others = axes.replace(axes[p], "")
        opponents = np.einsum(f"{axes}->{others}", tensor)
        deviated = np.einsum(f"{axes},{others}->{axes[p]}", g, opponents)
        out.append(deviated - expected)
    return out


def check_rating(payoffs, ratings, sigma) -> list[str]:
    payoffs = [np.asarray(g, dtype=np.float64) for g in payoffs]
    sigma = np.asarray(sigma, dtype=np.float64).reshape(-1)
    scale = max(1.0, max(float(np.ptp(g)) for g in payoffs))
    problems = []
    if sigma.size != payoffs[0].size:
        return [f"equilibrium has {sigma.size} entries for {payoffs[0].size} joints"]
    if sigma.min() < -CCE_TOL or abs(sigma.sum() - 1.0) > CCE_TOL:
        problems.append(f"equilibrium is not a distribution (min {sigma.min():.3g}, sum {sigma.sum():.12g})")
    for p, (g, gain, rating) in enumerate(zip(payoffs, gains(payoffs, sigma), ratings)):
        rating = np.asarray(rating, dtype=np.float64)
        if rating.shape != gain.shape:
            problems.append(f"player {p}: {rating.size} ratings for {gain.size} strategies")
            continue
        if gain.max() > CCE_TOL * scale:
            problems.append(f"player {p}: deviation gain {gain.max():.3g} > 0, not a CCE")
        err = float(np.max(np.abs(gain - rating)))
        if err > GAIN_TOL * scale:
            problems.append(f"player {p}: ratings differ from gains by {err:.3g}")
        spread = float(np.ptp(g))
        if rating.max() > GAIN_TOL * scale or rating.min() < -spread - GAIN_TOL * scale:
            problems.append(f"player {p}: ratings outside [-{spread:.6g}, 0]")
    return problems


def check_leaderboard(ratings, copies: int) -> list[str]:
    """Planted copies (the first ``copies`` models) tie at the top, and
    the two symmetric model players are rated alike."""
    model_a, model_b = (np.asarray(r, dtype=np.float64) for r in ratings[:2])
    problems = []
    top = model_a[:copies]
    if np.ptp(top) > TIE_TOL:
        problems.append(f"planted copies do not tie (spread {np.ptp(top):.3g})")
    if model_a[copies:].size and model_a[copies:].max() > top.min() + TIE_TOL:
        problems.append("a model rates above the planted copies")
    if np.max(np.abs(model_a - model_b)) > GAIN_TOL:
        problems.append("the two model players are rated differently")
    return problems
