"""The paper's recurrence-based parallelism model (§4.1, first variant).

Successive processing times follow

    p_i(j) = p_i(j - 1) * (X + j) / (1 + j),       j = 2 .. m

where ``X`` is drawn in ``[0, 1]`` from a truncated gaussian with standard
deviation 0.2; draws outside ``[0, 1]`` are "ignored and recomputed"
(rejection sampling).  A fresh ``X`` is drawn for every step ``j`` of every
task, so profiles are irregular, just like measured speedup curves.

Which gaussian centre makes a task *highly* parallel?  The product of the
factors telescopes to ``p(m) ≈ p(1) · m^(E[X] - 1)``, i.e. a speedup of
``m^(1 - E[X])``:

* ``X`` centred on **0.1** → speedup ``≈ m^0.9`` — *quasi-linear*, the
  paper's definition of **highly parallel**;
* ``X`` centred on **0.9** → speedup ``≈ m^0.1`` — *close to 1*, the
  paper's definition of **weakly parallel**.

Note the paper's prose lists the centres in the opposite order
("respectively highly and weakly parallel are generated using gaussian
distribution centered on 0.9, and 0.1"), which contradicts the printed
formula: with the formula as published, a centre of 0.9 yields almost no
speedup.  We follow the *semantics* (highly parallel = quasi-linear
speedup, as stated in §4.1 and required for the Figure 3/4 discussion to
make sense) and therefore pair highly ← 0.1, weakly ← 0.9.  The same two
published constants are used, only their pairing is fixed.

The recurrence generates *monotonic* tasks by construction: with
``X ∈ [0, 1]`` the factor ``(X + j)/(1 + j) ≤ 1`` makes times non-increasing,
and ``j · (X + j) ≥ (j - 1)(1 + j)`` makes the work ``j · p(j)``
non-decreasing — this is the paper's "according to the usual parallel
program behavior, this method generates monotonic tasks".
"""

from __future__ import annotations

import numpy as np

from repro.core.task import MoldableTask
from repro.utils.rng import make_rng

__all__ = [
    "truncated_gaussian",
    "parallel_profile",
    "parallel_task",
    "HIGHLY_PARALLEL_MEAN",
    "WEAKLY_PARALLEL_MEAN",
    "PROFILE_STD",
]

#: Gaussian centre of X for highly parallel tasks (speedup ~ m^0.9).
HIGHLY_PARALLEL_MEAN = 0.1
#: Gaussian centre of X for weakly parallel tasks (speedup ~ m^0.1).
WEAKLY_PARALLEL_MEAN = 0.9
#: Standard deviation of the X distribution (§4.1).
PROFILE_STD = 0.2

_MAX_RESAMPLE_ROUNDS = 128


def truncated_gaussian(
    rng: np.random.Generator | int | None,
    mean: float,
    std: float,
    size: int,
    low: float = 0.0,
    high: float = 1.0,
) -> np.ndarray:
    """Gaussian draws restricted to ``[low, high]`` by rejection sampling.

    Matches the paper's procedure: "any random value smaller than 0 and
    larger than 1 are ignored and recomputed".
    """
    if low > high:
        raise ValueError(f"empty truncation interval [{low}, {high}]")
    rng = make_rng(rng)
    out = rng.normal(mean, std, size=size)
    for _ in range(_MAX_RESAMPLE_ROUNDS):
        bad = (out < low) | (out > high)
        if not bad.any():
            return out
        out[bad] = rng.normal(mean, std, size=int(bad.sum()))
    return np.clip(out, low, high)  # pathological parameters only


def parallel_profile(
    rng: np.random.Generator | int | None,
    seq_time: float,
    m: int,
    mean_x: float,
    std_x: float = PROFILE_STD,
) -> np.ndarray:
    """Full processing-time vector from the recurrence model.

    Parameters
    ----------
    seq_time:
        ``p(1)``, drawn by one of the sequential models.
    m:
        Number of processors (vector length).
    mean_x, std_x:
        Parameters of the truncated gaussian for ``X``.

    Returns the ``(m,)`` vector ``p(1) .. p(m)``.
    """
    if seq_time <= 0:
        raise ValueError(f"sequential time must be positive, got {seq_time}")
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    rng = make_rng(rng)
    xs = truncated_gaussian(rng, mean_x, std_x, size=m - 1)
    js = np.arange(2, m + 1, dtype=np.float64)
    factors = (xs + js) / (1.0 + js)
    times = np.empty(m, dtype=np.float64)
    times[0] = seq_time
    times[1:] = seq_time * np.cumprod(factors)
    return times


def parallel_task(
    rng: np.random.Generator | int | None,
    task_id: int,
    seq_time: float,
    m: int,
    kind: str,
    weight: float = 1.0,
) -> MoldableTask:
    """Build a highly or weakly parallel :class:`MoldableTask`.

    ``kind`` is ``"highly"`` or ``"weakly"``.
    """
    if kind == "highly":
        mean = HIGHLY_PARALLEL_MEAN
    elif kind == "weakly":
        mean = WEAKLY_PARALLEL_MEAN
    else:
        raise ValueError(f"kind must be 'highly' or 'weakly', got {kind!r}")
    times = parallel_profile(rng, seq_time, m, mean_x=mean)
    return MoldableTask(task_id, times, weight=weight)
