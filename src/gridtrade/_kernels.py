"""Propagation, probe and projection kernels in numpy.

The closed-loop right-hand side is M y + c plus a piecewise-constant
penalty correction on a few entries (:func:`penalty_force`, the one
penalty rule outside :mod:`pwa`, which ``game.local_gradient`` also
applies).  :func:`affine_rhs` writes that right-hand side once; it is
``ClosedLoop.rhs_fast`` and what :func:`rk4_affine`, the package's one
RK4, steps with four BLAS matvecs per step.  :func:`affine_probe` reads
the matrix and the constant term of an affine map off unit-vector
probes.  The feasible-set projection of the equilibrium oracle
alternates an affine projection with a box clip.
"""

from __future__ import annotations

import numpy as np


def penalty_force(v, lo, hi, force):
    """Penalty correction of the penalized entries ``v``: ``force`` below
    ``lo``, ``-force`` above ``hi`` and 0 inside the box."""
    sel = np.where(v < lo, force, 0.0)
    sel -= np.where(v > hi, force, 0.0)
    return sel


def affine_probe(f, size):
    """(M, c) with ``f(y) = M y + c`` for an affine ``f`` on vectors of
    ``size`` entries, read off ``f`` at 0 and at each unit vector."""
    c = f(np.zeros(size))
    M = np.empty((c.size, size))
    e = np.zeros(size)
    for j in range(size):
        e[j] = 1.0
        M[:, j] = f(e) - c
        e[j] = 0.0
    return M, c


def affine_rhs(M, c, psrc, plo, phi, force):
    """The right-hand side ``y -> M y + c`` plus :func:`penalty_force` on
    the entries ``psrc``."""
    def rhs(y):
        dy = M @ y
        dy += c
        dy[psrc] += penalty_force(y[psrc], plo, phi, force)
        return dy
    return rhs


def rk4_affine(M, c, y, psrc, plo, phi, force, dt, steps, sample_every, out):
    """Advance ``steps`` RK4 steps of :func:`affine_rhs` in place,
    sampling every ``sample_every``.

    Returns (samples_written, finite_flag); a False flag means the state
    went non-finite at the last written sample, which the caller reports,
    so numpy's overflow warnings on the way there are silenced.
    """
    rhs = affine_rhs(M, c, psrc, plo, phi, force)
    ns = 0
    with np.errstate(over="ignore", invalid="ignore"):
        for s in range(steps):
            k1 = rhs(y)
            k2 = rhs(y + 0.5 * dt * k1)
            k3 = rhs(y + 0.5 * dt * k2)
            k4 = rhs(y + dt * k3)
            y += (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            if sample_every > 0 and (s + 1) % sample_every == 0:
                out[ns] = y
                ns += 1
                if not np.isfinite(y).all():
                    return ns, False
    return ns, True


def dykstra_project(P, M, c, lo, hi, z0, max_alt, tol, feas_tol):
    """Dykstra alternation between {M z = c} (via P = M^T (M M^T)^-1) and a box."""
    x = z0.copy()
    p = np.zeros_like(x)
    q = np.zeros_like(x)
    for _ in range(max_alt):
        w = x + p
        y = w - P @ (M @ w - c)
        p = w - y
        w2 = y + q
        xn = np.minimum(np.maximum(w2, lo), hi)
        q = w2 - xn
        # plateau phases park the iterate while corrections accumulate,
        # so a small increment alone does not certify feasibility
        if np.abs(xn - x).max() < tol \
                and np.abs(M @ xn - c).max() < feas_tol:
            return xn
        x = xn
    return x

