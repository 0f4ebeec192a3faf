"""The time grid of a sampled run with parameter-swap events.

:class:`IntegratorConfig` names the method and the grid;
:func:`grid_errors` is the one check of the time grid and the event
times; :func:`run_eras` is the one runner that emits the sampled rows
for both methods of ``engine.run_scenario`` (``rk4``, stepped by
``_kernels.rk4_affine``, and the exact piecewise-affine ``pwa``).
Samples and events always land on step boundaries, so sampling never
perturbs the integration and repeated runs are bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class IntegrationError(RuntimeError):
    """Integration aborted; carries the last good sample, or the first
    one whose diagnostics are not finite."""

    def __init__(self, message, t_last=None, y_last=None, trajectory=None):
        super().__init__(message)
        self.t_last = t_last
        self.y_last = y_last
        self.trajectory = trajectory


@dataclass(frozen=True)
class IntegratorConfig:
    method: str = "rk4"          # "rk4" | "pwa"
    dt: float = 1e-5             # rk4 step; pwa's first step after a switch
    t_end: float = 10.0
    sample_period: float = 1e-3

    def __post_init__(self):
        if self.method not in ("rk4", "pwa"):
            raise ValueError(f"unknown method {self.method!r}")
        if self.dt <= 0 or self.sample_period <= 0:
            raise ValueError("dt and sample_period must be > 0")
        if self.t_end < 0:
            raise ValueError("t_end must be >= 0")
        if not np.isfinite([self.dt, self.sample_period, self.t_end]).all():
            raise ValueError("dt, sample_period and t_end must be finite")


@dataclass
class Trajectory:
    """Sampled states; ``epoch[k]`` indexes the parameter era of row k.

    At an event time two rows are emitted with the same state, the first
    belonging to the old era and the second to the new one.
    """

    t: np.ndarray
    y: np.ndarray
    epoch: np.ndarray

    @property
    def n_samples(self):
        return len(self.t)


def _is_multiple(a, b, rel=1e-9):
    q = a / b       # inf when b is tiny: then a is no multiple of b
    return np.isfinite(q) and abs(a - round(q) * b) <= rel * max(abs(a), b)


def grid_errors(cfg: IntegratorConfig, event_times, dt_limit=np.inf):
    """Every problem of the time grid and the event times, as messages.

    The package's one time-grid check: the event times must increase
    strictly inside (0, t_end], they and ``t_end`` must sit on the sample
    grid, and, for ``rk4``, the sample period must be a whole number of
    steps and ``dt`` must lie under the stability bound ``dt_limit``.
    An empty list means a run may start.
    """
    times = list(event_times)
    sp = cfg.sample_period
    errors = []
    if any(t2 <= t1 for t1, t2 in zip(times, times[1:])):
        errors.append("event times must be strictly increasing")
    if any(not (0.0 < t <= cfg.t_end) for t in times):
        errors.append("event times must lie in (0, t_end]")
    if cfg.method == "rk4" and not _is_multiple(sp, cfg.dt):
        errors.append("sample_period must be an integer multiple of dt")
    if cfg.method == "rk4" and cfg.dt >= dt_limit:
        errors.append(f"dt={cfg.dt:g} violates the line-dynamics stability "
                      f"bound {dt_limit:g}; refusing to start")
    if not _is_multiple(cfg.t_end, sp):
        errors.append(f"t_end {cfg.t_end} not on the sample grid "
                      f"(sample_period {sp})")
    errors += [f"event time {t} not on the sample grid" for t in times
               if not _is_multiple(t, sp)]
    return errors


def run_eras(y0, cfg: IntegratorConfig, event_times, advance):
    """Sampled run over the eras that ``event_times`` cut [0, t_end] into.

    The package's one time-grid runner, for a grid that
    :func:`grid_errors` accepts.  ``advance(era, y, n_samples)``
    propagates the autonomous flow of one era from the era's start and
    returns (samples, final state), ``samples[s]`` being the state
    ``s + 1`` sample periods after that start; it may stop after the
    first non-finite sample.  Each event adds a row with the pre-event state
    tagged with the new era.  A non-finite sample, or an
    :class:`IntegrationError` from ``advance``, raises
    :class:`IntegrationError` carrying the rows up to the last good one.
    """
    times = list(event_times)
    sp = cfg.sample_period
    y = np.array(y0, dtype=float)
    ts, ys, eras = [np.zeros(1)], [y[None].copy()], [np.zeros(1, dtype=int)]

    def trajectory():
        return Trajectory(np.concatenate(ts), np.concatenate(ys),
                          np.concatenate(eras))

    if not np.isfinite(y).all():
        raise IntegrationError("initial state is not finite", 0.0, y,
                               trajectory())
    boundaries = sorted(set(times) | {cfg.t_end}) if cfg.t_end > 0 else []
    t0 = 0.0
    for era, t1 in enumerate(boundaries):
        try:
            out, y = advance(era, y, round((t1 - t0) / sp))
        except IntegrationError as err:
            traj = trajectory()
            raise IntegrationError(str(err), traj.t[-1], traj.y[-1],
                                   traj) from err
        good = len(out)
        if good and not np.isfinite(out[-1]).all():
            good -= 1
        ts.append(t0 + np.arange(1, good + 1) * sp)
        ys.append(out[:good])
        eras.append(np.full(good, era))
        if good < len(out):
            traj = trajectory()
            raise IntegrationError(
                f"non-finite state at t={t0 + len(out) * sp:.6g}; last good "
                f"sample at t={traj.t[-1]:.6g}", traj.t[-1], traj.y[-1], traj)
        if t1 in times:
            ts.append([t1])
            ys.append(y[None].copy())
            eras.append([era + 1])
        t0 = t1
    return trajectory()
