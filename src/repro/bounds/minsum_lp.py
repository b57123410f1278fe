"""LP-relaxation lower bound on ``sum w_i C_i`` (§3.3 — the paper's new bound).

Formulation
-----------
The time horizon is divided into geometric intervals.  With ``x_{i,j} = 1``
iff task ``i`` ends within interval ``I_j``, the paper states:

    minimise    sum_{i,j} w_i t_j x_{i,j}
    subject to  sum_j x_{i,j} >= 1                          (each task ends)
                sum_{l<=j} sum_i S_{i,l} x_{i,l} <= m t_{j+1}   (surface)
                x_{i,j} in {0,1}   (relaxed to [0,1])

where ``S_{i,j}`` is the minimal area task ``i`` can occupy if it ends by
``t_{j+1}`` (``+inf`` if impossible, which simply forbids the variable).
Every feasible schedule induces a feasible ``x`` whose objective does not
exceed its minsum, so the LP optimum — and a fortiori the relaxed optimum —
lower-bounds the optimal ``sum w_i C_i``.

Three strictness refinements to the published text (summarised under
*Lower bounds* in ``docs/ARCHITECTURE.md``):

* a **leading interval** ``(0, t_0]`` — the paper's grid starts at
  ``t_0 > 0``, and a task completing before ``t_0`` would otherwise be
  charged ``w t_0 > w C_i``, breaking the bound;
* an **open last interval** ``(t_{K+1}, inf)`` with no surface constraint —
  an optimal *minsum* schedule may exceed the makespan-based horizon, and
  without this interval such schedules would have no image in the LP;
* **per-task objective coefficients**: a task ending within interval
  ``(a, b]`` satisfies ``C_i >= a`` *and* ``C_i >= min_{k: p_i(k) <= b}
  p_i(k)`` (it cannot finish faster than its fastest allotment able to meet
  the interval), so the coefficient is ``w_i * max(a, fastest_i(b))``
  instead of the paper's plain ``w_i a``.  This keeps the leading interval
  from being free and tightens every early interval, while remaining a
  valid lower bound.

The LP is solved with HiGHS through :func:`scipy.optimize.linprog` on a
sparse constraint matrix: at most ``n (K+3)`` variables and ``n + K + 2``
constraints.  The matrix is assembled by array operations (no per-entry
Python loop); at ``n = 400``, ``m = 200`` one call takes 14-34 ms on an
Intel Xeon core, most of it inside HiGHS and scipy's wrapper around it
(``docs/PERFORMANCE.md``, *The minsum LP bound*).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy import sparse
from scipy.optimize import linprog, milp, Bounds, LinearConstraint

from repro import obs
from repro.core.allotment import minimal_area_allotments
from repro.core.instance import Instance
from repro.exceptions import SolverError

__all__ = ["MinsumBound", "minsum_lower_bound", "build_time_grid"]


@dataclass(frozen=True)
class MinsumBound:
    """Result of the LP (or ILP) relaxation.

    Attributes
    ----------
    value:
        The lower bound on ``sum w_i C_i``.
    boundaries:
        Interval boundaries ``0 = b_0 < b_1 < ... < b_J`` (the last interval
        extends beyond ``b_J`` to infinity).
    x:
        The optimal relaxed assignment, shape ``(n, J+1)`` — column ``j``
        is the mass of "task ends in interval j".  Useful for diagnostics.
    integral:
        ``True`` when solved as an ILP (exact interval-indexed bound)
        rather than its LP relaxation.
    """

    value: float
    boundaries: np.ndarray
    x: np.ndarray
    integral: bool = False


def build_time_grid(instance: Instance, cmax_estimate: float) -> np.ndarray:
    """Geometric boundaries ``t_0 .. t_{K+1}`` as defined in §3.2.

    ``K = floor(log2(C*max / t_min))`` and ``t_j = C*max / 2^(K-j)``, so the
    grid runs from just above the smallest possible task duration up to
    twice the makespan estimate, doubling at each step.
    """
    tmin = instance.tmin
    if cmax_estimate <= 0 or not np.isfinite(cmax_estimate):
        raise ValueError(f"invalid C*max estimate {cmax_estimate}")
    K = max(0, int(math.floor(math.log2(cmax_estimate / tmin))))
    return np.array([cmax_estimate / 2 ** (K - j) for j in range(K + 2)])


class _MinsumLP(NamedTuple):
    """The assembled relaxation: minimise ``c x`` s.t. ``A x <= b_ub``,
    ``0 <= x <= 1``.  Variable ``v`` is the pair ``(ii[v], jj[v])``."""

    boundaries: np.ndarray
    ii: np.ndarray
    jj: np.ndarray
    c: np.ndarray
    A: sparse.csr_matrix
    b_ub: np.ndarray


def _lp_arrays(instance: Instance, cmax_estimate: float) -> _MinsumLP:
    """Build the LP of :func:`minsum_lower_bound` for a non-empty instance."""
    grid = build_time_grid(instance, cmax_estimate)
    # Interval structure: boundaries b = [0, t_0, ..., t_{K+1}] and a final
    # open interval.  Interval j (0-based) = (b_j, b_{j+1}] for j < J-1,
    # and (b_{J-1}, inf) for j = J-1.  Objective coefficient of interval j
    # is its lower boundary b_j.
    b = np.concatenate([[0.0], grid])
    J = b.size  # number of intervals (last one open-ended)
    n, m = instance.n, instance.m
    tm = instance.times_matrix
    am = instance.areas_matrix

    # S[i, j]: minimal area of task i if it ends by the interval's upper
    # boundary (+inf if it cannot); the open last interval uses the
    # unconstrained minimum.
    S = np.empty((n, J))
    S[:, : J - 1] = minimal_area_allotments(tm, b[1:], areas_matrix=am).T
    S[:, J - 1] = am.min(axis=1)

    # Variables: the allowed pairs in row-major order, so the variables
    # of task i are contiguous and v is the rank of (i, j) among them.
    ii, jj = np.nonzero(np.isfinite(S))
    n_vars = ii.size
    # The fastest allotment meeting an interval's deadline is the task's
    # fastest allotment overall whenever the pair is allowed at all.
    fastest = tm.min(axis=1)
    c = instance.weights[ii] * np.maximum(b[jj], fastest[ii])

    # Coverage rows 0..n-1: -sum_j x_{i,j} <= -1 (row i holds the task's
    # contiguous variables).  Surface row n+j, for each bounded interval
    # j: sum_{l<=j} sum_i S_{i,l} x_{i,l} <= m b_{j+1}, i.e. every
    # variable of interval l < J-1 in rows n+l .. n+J-2.
    surf_j, surf_v = np.nonzero(jj[None, :] <= np.arange(J - 1)[:, None])
    indptr = np.concatenate([
        [0],
        np.cumsum(np.bincount(ii, minlength=n)),
        n_vars + np.cumsum(np.bincount(surf_j, minlength=J - 1)),
    ])
    indices = np.concatenate([np.arange(n_vars), surf_v])
    data = np.concatenate([np.full(n_vars, -1.0), S[ii, jj][surf_v]])
    A = sparse.csr_matrix((data, indices, indptr), shape=(n + J - 1, n_vars))
    b_ub = np.concatenate([np.full(n, -1.0), m * b[1:]])
    return _MinsumLP(b, ii, jj, c, A, b_ub)


def _solve(lp: _MinsumLP, integral: bool) -> tuple[float, np.ndarray]:
    """Optimal value and flat solution of the LP (or the ILP)."""
    if integral:
        res = milp(
            c=lp.c,
            constraints=LinearConstraint(lp.A, -np.inf, lp.b_ub),
            integrality=np.ones(lp.c.size),
            bounds=Bounds(0, 1),
        )
        if not res.success:  # pragma: no cover - solver hiccup
            raise SolverError(f"MILP failed: {res.message}")
    else:
        res = linprog(
            lp.c,
            A_ub=lp.A,
            b_ub=lp.b_ub,
            bounds=(0.0, 1.0),
            method="highs",
        )
        if not res.success:  # pragma: no cover - solver hiccup
            raise SolverError(f"LP failed: {res.message}")
    return float(res.fun), res.x


def minsum_lower_bound(
    instance: Instance,
    cmax_estimate: float | None = None,
    *,
    integral: bool = False,
) -> MinsumBound:
    """Compute the §3.3 lower bound on the weighted completion-time sum.

    Parameters
    ----------
    instance:
        The scheduling instance.
    cmax_estimate:
        The makespan estimate anchoring the grid (the paper reuses the
        dual-approximation value; when omitted it is computed here).
    integral:
        Solve the integer program instead of its relaxation.  The paper
        notes the relaxed bound "might be weaker, but is much faster to
        compute"; the ILP variant quantifies that gap in the ablations.
    """
    if instance.n == 0:
        return MinsumBound(0.0, np.array([0.0]), np.zeros((0, 1)), integral)
    if cmax_estimate is None:
        from repro.algorithms.dual_approx import dual_approximation

        cmax_estimate = dual_approximation(instance).lam

    state = obs.ACTIVE
    if state is None:
        lp = _lp_arrays(instance, cmax_estimate)
        value, x_flat = _solve(lp, integral)
    else:
        with state.span("minsum_lp", "algorithm"):
            with state.span("minsum_lp.build", "kernel"):
                lp = _lp_arrays(instance, cmax_estimate)
            state.count("minsum_lp.vars", lp.c.size)
            state.count("minsum_lp.nnz", lp.A.nnz)
            with state.span("minsum_lp.solve", "kernel"):
                value, x_flat = _solve(lp, integral)

    x = np.zeros((instance.n, lp.boundaries.size))
    x[lp.ii, lp.jj] = x_flat
    return MinsumBound(value=value, boundaries=lp.boundaries, x=x, integral=integral)
