"""Builders for small random test states, and the solver's Gram determinant
of one curve."""

import numpy as np

from thetaflow import AngleField, Grid, NetworkState
from thetaflow.energy import assemble_multiplier_data

from oracles import random_angle_field_values


def _node_counts(m):
    """One node count per curve: ``m`` itself if a triple, else m thrice."""
    return tuple(m) if np.ndim(m) else (m, m, m)


def make_state(rng, lengths=(1.0, 0.9, 0.7), m=9, p=2.0, offsets=None,
               scale=1.0, smooth=True):
    """A random network state; ``m`` is a node count for all three curves
    or one per curve."""
    fields = tuple(
        AngleField(Grid(L, mj), random_angle_field_values(rng, mj, smooth, scale))
        for L, mj in zip(lengths, _node_counts(m))
    )
    if offsets is None:
        return NetworkState(fields, p_exponent=p)
    return NetworkState(fields, offsets=np.asarray(offsets, float), p_exponent=p)


def make_pair(rng, tau=0.05, step_scale=0.1, **kwargs):
    """A (candidate, prev) pair differing by a smooth random increment."""
    cand = make_state(rng, **kwargs)
    prev = cand.with_values(tuple(
        v + step_scale * random_angle_field_values(rng, len(v))
        for v in cand.values()
    ))
    return cand, prev, tau


def steep_pair(rng, m=5, p=2.0, tau=0.1):
    """A pair whose candidate slopes stay well away from zero, so that
    p < 2 flux derivatives remain bounded for finite-difference checks.
    ``m`` is a node count for all three curves or one per curve."""
    lengths = (1.0, 0.9, 0.7)
    counts = _node_counts(m)
    values = []
    for L, mj in zip(lengths, counts):
        h = L / (mj - 1)
        slopes = rng.uniform(0.4, 1.5, size=mj - 1) * rng.choice([-1.0, 1.0], size=mj - 1)
        vals = np.concatenate([[rng.uniform(-1, 1)], np.cumsum(slopes * h)])
        vals[1:] += vals[0]
        values.append(vals)
    fields = tuple(AngleField(Grid(L, mj), v)
                   for L, mj, v in zip(lengths, counts, values))
    cand = NetworkState(fields, p_exponent=p)
    prev = cand.with_values(tuple(
        v + 0.02 * rng.normal(size=len(v)) for v in cand.values()
    ))
    return cand, prev, tau


def solver_det(f):
    """The solver's Gram determinant of the single curve ``f``: its
    ``assemble_multiplier_data`` determinant on a network of three copies
    of ``f``."""
    return float(assemble_multiplier_data(NetworkState((f, f, f)))[2][0])
