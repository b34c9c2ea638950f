"""Shared synthetic data generators and oracles for the test suite."""

import math

import numpy as np

from conformal import Bag, score_region

INF = math.inf


def gaussian_blobs(n, seed, centers=((0.0, 0.0), (2.0, 2.0)), labels=("A", "B"), spread=1.0):
    """Exchangeable two-(or more-)class Gaussian mixture, equal class weights."""
    rng = np.random.default_rng(seed)
    centers = np.asarray(centers, dtype=float)
    which = rng.integers(0, len(centers), size=n)
    x = centers[which] + spread * rng.standard_normal((n, centers.shape[1]))
    y = [labels[i] for i in which]
    return Bag.classification(x, y, tuple(labels))


def linear_regression_bag(n, seed, noise=0.3):
    """y = 2*x0 - 1 + noise on a 1-d feature."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(-2.0, 2.0, size=(n, 1))
    y = 2.0 * x[:, 0] - 1.0 + noise * rng.standard_normal(n)
    return Bag.regression(x, y)


def sq_dists_oracle(a, b):
    """Squared Euclidean distances of the rows of ``a`` to those of ``b``,
    each summed feature by feature, in feature order, in Python floats."""
    out = np.empty((len(a), len(b)))
    for i, u in enumerate(np.asarray(a, dtype=float).tolist()):
        for j, v in enumerate(np.asarray(b, dtype=float).tolist()):
            total = 0.0
            for p, q in zip(u, v):
                total += (p - q) * (p - q)
            out[i, j] = total
    return out


def sorted_score_counts(sorted_scores, alpha):
    """(strictly greater, exactly equal) counts of stored scores against alpha."""
    c = len(sorted_scores)
    gt = c - int(np.searchsorted(sorted_scores, alpha, side="right"))
    ge = c - int(np.searchsorted(sorted_scores, alpha, side="left"))
    return gt, ge - gt


def p_value_from_counts(gt, eq, total, tau=None, include_test=True):
    """Scalar oracle of the counted p-value over ``total`` reference scores
    plus the test example itself.

    Unsmoothed: (gt + eq + 1) / (total + 1); smoothing replaces the tie block
    (the equal scores plus the test example) by its tau fraction.  With
    ``include_test=False`` the test example is dropped from the numerator,
    which is the literal inductive formula.
    """
    extra = 1 if include_test else 0
    if tau is None:
        return (gt + eq + extra) / (total + 1)
    return (gt + tau * (eq + extra)) / (total + 1)


def direct_membership_union(lines, line_new, eps, convex_hull):
    """Quadratic oracle for the regression interval sweep.

    Counts, for every breakpoint and every open stretch between consecutive
    breakpoints, how many regions contain it by direct membership tests
    (stretch (l, r) is inside a closed piece [lo, hi] iff lo <= l and
    r <= hi), then merges the qualifying atoms.  No delta accounting.
    """
    regions = [score_region(line, line_new) for line in lines]
    breaks = sorted(
        {v for region in regions for piece in region for v in piece if math.isfinite(v)}
    )

    def stretch_count(left, right):
        covered = 1  # the candidate's own region is the whole line
        for region in regions:
            covered += any(lo <= left and right <= hi for lo, hi in region)
        return covered

    def point_count(value):
        covered = 1
        for region in regions:
            covered += any(lo <= value <= hi for lo, hi in region)
        return covered

    cut = eps * (len(lines) + 1)
    atoms = []
    if not breaks:
        atoms.append((stretch_count(-INF, INF) > cut, -INF, INF))
    else:
        atoms.append((stretch_count(-INF, breaks[0]) > cut, -INF, breaks[0]))
        for j, value in enumerate(breaks):
            atoms.append((point_count(value) > cut, value, value))
            right = breaks[j + 1] if j + 1 < len(breaks) else INF
            atoms.append((stretch_count(value, right) > cut, value, right))

    pieces, start, last = [], None, None
    for ok, left, right in atoms:
        if ok:
            if start is None:
                start = left
            last = right
        elif start is not None:
            pieces.append((start, last))
            start = None
    if start is not None:
        pieces.append((start, last))
    if convex_hull and pieces:
        pieces = [(pieces[0][0], pieces[-1][1])]
    return pieces
