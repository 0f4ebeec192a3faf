"""Exact propagation of the penalized closed loop with Filippov sliding.

The closed loop is ``dy/dt = M y + c`` plus a force on a few check rows
(the decision copies of voltages and line currents): ``+F`` below the
entry's lower bound, ``-F`` above its upper bound, zero in between.  On a
bound the flow follows Filippov's convention: the entry slides, held
fixed by the equivalent force ``-(M y + c)[row]``, while that force lies
within the penalty's range.  Each entry is therefore in one of five
regimes, and inside a regime pattern the flow is linear time-invariant
(a sliding row is frozen), so a step of length h is the exact map
``expm([[A, b], [0, 0]] h)`` (Van Loan, IEEE TAC 23(3), 1978).

Steps have dyadic lengths ``sample_period / 2**k`` and sit on their own
grid, so every map is computed once per pattern visit and level; samples
land exactly on the sample grid.  After each pattern switch the step
restarts at the finest level and grows with the time elapsed since.  A
switch shows as a check row leaving its admissible sign at the end of a
step and is located by bisection over the finer levels.  References:
Filippov, *Differential Equations with Discontinuous Righthand Sides*
(1988); Acary & Brogliato, *Numerical Methods for Nonsmooth Dynamical
Systems* (2008).
"""

from __future__ import annotations

import math

import numpy as np

from .integrate import IntegrationError, sample_rows

BELOW, LOWER, INTERIOR, UPPER, ABOVE = range(5)
REGIME_NAMES = ("below", "lower-sliding", "interior", "upper-sliding", "above")

BISECT_LEVELS = 24   # a switch is located to 2**-24 of the finest step
GROWTH_SHIFT = 4     # a step is at most 2**-4 of the time since a switch
MAX_SWITCHES = 100000


def saturated_force(pattern, force):
    """Force of each saturated penalty of ``pattern`` on its row:
    ``+force`` below the box, ``-force`` above it, 0 in the other
    regimes."""
    pattern = np.asarray(pattern)
    return np.where(pattern == BELOW, force,
                    np.where(pattern == ABOVE, -force, 0.0))


def expm(a):
    """Matrix exponential (``scipy.linalg.expm``).  scipy is imported on
    the first call: only this module needs it, and importing it costs
    about 28 MB of resident memory."""
    from scipy.linalg import expm as scipy_expm

    return scipy_expm(a)


class _Regime:
    """The regime pattern in force, as a flow holds it from the run's first
    need of it until the run leaves it: its generator ``[[A, b], [0, 0]]``,
    its switch checks ``S y + beta >= floor`` and its exact maps keyed by
    step length.  A pattern the run re-enters gets the same bits again."""

    def __init__(self, pattern, aug, checks):
        self.pattern, self.aug, self.maps = pattern, aug, {}
        self.S, self.beta, self.floor = checks

    def advance(self, h, y):
        """State after ``h`` seconds of the pattern's flow: ``Phi y + phi``
        with ``[[Phi, phi], [0, 1]]``, the map held for ``h``."""
        if h not in self.maps:
            self.maps[h] = expm(self.aug * h)
        E = self.maps[h]
        return E[:-1, :-1] @ y + E[:-1, -1]

    def violated(self, y):
        return bool(((self.S @ y + self.beta) < self.floor).any())

    def locate(self, size, tick, p, y):
        """Bisect a step of ``size`` ticks from tick ``p`` that ends outside
        the pattern: the first tick (and its state) that a check fails."""
        while size > 1:
            size >>= 1
            y_mid = self.advance(size * tick, y)
            if not self.violated(y_mid):
                p += size
                y = y_mid
        return p + 1, self.advance(tick, y)


class PiecewiseAffineFlow:
    """Regime-aware exact flow of ``M y + c`` plus the box-penalty forces.

    ``rows`` are the penalized state entries with bounds ``lo``/``hi``
    and force magnitudes ``force``.  ``switches`` counts the regime
    switches :meth:`propagate` has located.
    """

    def __init__(self, M, c, rows, lo, hi, force):
        self.M = np.asarray(M, dtype=float)
        self.c = np.asarray(c, dtype=float)
        self.rows = np.asarray(rows, dtype=np.int64)
        self.lo = np.asarray(lo, dtype=float)
        self.hi = np.asarray(hi, dtype=float)
        self.force = np.asarray(force, dtype=float)
        self.size = self.c.size
        self._snap_tol = 1e-10 * np.maximum(1.0, np.maximum(np.abs(self.lo),
                                                            np.abs(self.hi)))
        self._Mp, self._cp = self.M[self.rows], self.c[self.rows]  # drift
        self._held = None        # _Regime of the pattern in force
        self.switches = 0

    # -- regimes ------------------------------------------------------------
    def classify(self, y):
        """Regime pattern at ``y``; entries on a bound are placed on it.

        Returns (pattern, y) with a copy of ``y`` whose entries within a
        small tolerance of a bound sit exactly on it.  On a bound the
        smooth drift decides: away from the box's inside with more than
        the penalty can hold, the entry leaves; pointing inside, it is
        interior; otherwise it slides.
        """
        y = np.array(y, dtype=float)
        v = y[self.rows]
        on_lo = np.abs(v - self.lo) <= self._snap_tol
        on_hi = np.abs(v - self.hi) <= self._snap_tol
        y[self.rows[on_lo]] = self.lo[on_lo]
        y[self.rows[on_hi]] = self.hi[on_hi]
        v = y[self.rows]
        d = self._Mp @ y + self._cp
        pattern = np.full(self.rows.size, INTERIOR)
        pattern[v < self.lo] = BELOW
        pattern[v > self.hi] = ABOVE
        at_lo = np.where(d > 0.0, INTERIOR,
                         np.where(d + self.force < 0.0, BELOW, LOWER))
        at_hi = np.where(d < 0.0, INTERIOR,
                         np.where(d - self.force > 0.0, ABOVE, UPPER))
        pattern = np.where(on_lo, at_lo, np.where(on_hi, at_hi, pattern))
        return tuple(int(p) for p in pattern), y

    def _system(self, pattern):
        """Augmented generator [[A, b], [0, 0]] of the pattern's LTI flow:
        a sliding row is frozen, a saturated row carries its force."""
        N = self.size
        p = np.array(pattern)
        aug = np.zeros((N + 1, N + 1))
        aug[:N, :N] = self.M
        aug[:N, N] = self.c
        aug[self.rows[(p == LOWER) | (p == UPPER)]] = 0.0
        # only saturated rows get a sum: c + 0.0 would turn a -0.0 into +0.0
        sat = (p == BELOW) | (p == ABOVE)
        aug[self.rows[sat], N] += saturated_force(p[sat], self.force[sat])
        return aug

    def _check_rows(self, pattern):
        """Affine checks ``S y + beta >= floor`` that hold inside the pattern.

        Value checks keep an entry on its side of a bound; drift checks
        keep a sliding entry's equivalent force ``-(M y + c)[row]``
        within the penalty's range.  The small negative floors absorb
        rounding on entries placed exactly on a bound.
        """
        checks = []
        for k, reg in enumerate(pattern):
            e = np.zeros(self.size)
            e[self.rows[k]] = 1.0
            Mr, cr = self._Mp[k], self._cp[k]
            lo, hi, F = self.lo[k], self.hi[k], self.force[k]
            if reg == BELOW:
                rows = [(-e, lo)]
            elif reg == ABOVE:
                rows = [(e, -hi)]
            elif reg == INTERIOR:
                rows = [(e, -lo), (-e, hi)]
            elif reg == LOWER:     # force -d within [0, F]
                rows = [(-Mr, -cr), (Mr, cr + F)]
            else:                  # UPPER: force -d within [-F, 0]
                rows = [(Mr, cr), (-Mr, F - cr)]
            tol = (1e-12 * max(1.0, F) if reg in (LOWER, UPPER)
                   else 1e-2 * self._snap_tol[k])
            checks += [(s_row, b, -tol) for s_row, b in rows]
        return tuple(np.array(col) for col in zip(*checks))

    def _regime(self, pattern):
        """The record of ``pattern``, built when the one held is not it.
        The old one is freed first (``propagate`` keeps no reference to
        it), so the new maps reuse its memory."""
        if self._held is None or self._held.pattern != pattern:
            self._held = None
            self._held = _Regime(pattern, self._system(pattern),
                                 self._check_rows(pattern))
        return self._held

    # -- propagation --------------------------------------------------------
    @np.errstate(over="ignore", invalid="ignore")
    def propagate(self, y, n_samples, sample_period, dt):
        """Advance ``n_samples`` sample periods from ``y``.

        ``dt`` bounds the first step after the start and after every
        switch.  Returns (samples, final state); ``samples[s]`` is the
        state at ``(s + 1) * sample_period``.  Stops early and quietly,
        returning the samples so far, when the state stops being finite;
        raises :class:`IntegrationError` after ``MAX_SWITCHES`` switches.
        """
        k_fine = max(0, math.ceil(math.log2(sample_period / dt) - 1e-9))
        K = k_fine + BISECT_LEVELS
        tick = sample_period / 2.0 ** K
        unit = 1 << K                      # ticks per sample
        fine = 1 << BISECT_LEVELS          # ticks per finest regular step
        out = sample_rows(n_samples, self.size)
        pattern, y = self.classify(y)
        p = tau = 0
        total = n_samples * unit
        while p < total:
            target = max(fine, (p - tau) >> GROWTH_SHIFT)
            size = min(unit, 1 << (target.bit_length() - 1))
            while p % size:
                size >>= 1
            y_new = self._regime(pattern).advance(size * tick, y)
            if self._held.violated(y_new):
                p, y = self._held.locate(size, tick, p, y)
                pattern, y = self.classify(y)
                tau = p
                self.switches += 1
                if self.switches > MAX_SWITCHES:
                    raise IntegrationError(
                        f"more than {MAX_SWITCHES} regime switches; "
                        f"last at t={p * tick:.6g} into the segment, "
                        f"pattern {self.describe(pattern)}")
            else:
                p += size
                y = y_new
            if p % unit == 0 and p > 0:
                s = p // unit - 1
                out[s] = y
                if not np.isfinite(y).all():
                    return out[:s + 1], y
        return out, y

    @staticmethod
    def describe(pattern):
        return "(" + ", ".join(REGIME_NAMES[r] for r in pattern) + ")"
