"""Unit + property tests for the LP-relaxation minsum lower bound."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import sparse
from scipy.optimize import Bounds, LinearConstraint, linprog, milp

from repro.algorithms.demt import schedule_demt
from repro.algorithms.dual_approx import dual_approximation
from repro.bounds.minsum_lp import _lp_arrays, build_time_grid, minsum_lower_bound
from repro.core.allotment import minimal_area_allotments
from repro.core.instance import Instance
from repro.core.task import MoldableTask
from repro.workloads.generator import generate_workload

from tests.conftest import make_instance


class TestTimeGrid:
    def test_doubles_and_ends_at_twice_estimate(self):
        inst = make_instance(n=4, m=4, seq_time=8.0)
        grid = build_time_grid(inst, cmax_estimate=10.0)
        assert grid[-1] == pytest.approx(20.0)
        for a, b in zip(grid, grid[1:]):
            assert b == pytest.approx(2 * a)

    def test_first_point_at_least_tmin(self):
        inst = make_instance(n=4, m=4, seq_time=8.0)
        grid = build_time_grid(inst, cmax_estimate=13.7)
        assert grid[0] >= inst.tmin - 1e-12

    def test_invalid_estimate(self):
        inst = make_instance(n=1, m=2)
        with pytest.raises(ValueError):
            build_time_grid(inst, 0.0)


class TestMinsumBound:
    def test_empty_instance(self):
        res = minsum_lower_bound(Instance([], 4), cmax_estimate=1.0)
        assert res.value == 0.0

    def test_single_task_bound_positive_and_valid(self):
        t = MoldableTask(0, [4.0, 2.5], weight=3.0)
        inst = Instance([t], 2)
        res = minsum_lower_bound(inst)
        # Optimal completion is 2.5 -> minsum 7.5; bound must not exceed it
        # and should be positive (the task cannot finish before 1.25).
        assert 0.0 < res.value <= 7.5 + 1e-9

    def test_bound_below_every_algorithm(self):
        from repro.algorithms.registry import PAPER_ALGORITHMS, get_algorithm

        inst = generate_workload("mixed", n=30, m=16, seed=41)
        dual = dual_approximation(inst)
        lb = minsum_lower_bound(inst, dual.lam).value
        for name in PAPER_ALGORITHMS:
            s = get_algorithm(name).schedule(inst)
            assert lb <= s.weighted_completion_sum() + 1e-6, name

    def test_relaxation_weaker_than_ilp(self):
        """§3.3: the relaxed bound 'might be weaker, but is much faster'."""
        inst = generate_workload("cirne", n=10, m=4, seed=42)
        lam = dual_approximation(inst).lam
        lp = minsum_lower_bound(inst, lam, integral=False)
        ilp = minsum_lower_bound(inst, lam, integral=True)
        assert lp.value <= ilp.value + 1e-6
        assert ilp.integral and not lp.integral

    def test_x_rows_cover_each_task(self):
        inst = generate_workload("highly_parallel", n=12, m=8, seed=43)
        res = minsum_lower_bound(inst)
        assert res.x.shape[0] == 12
        assert (res.x.sum(axis=1) >= 1 - 1e-6).all()

    def test_boundaries_start_at_zero(self):
        inst = generate_workload("mixed", n=8, m=4, seed=44)
        res = minsum_lower_bound(inst)
        assert res.boundaries[0] == 0.0
        assert (np.diff(res.boundaries) > 0).all()

    def test_weights_scale_bound(self):
        base = generate_workload("mixed", n=10, m=4, seed=45)
        lam = dual_approximation(base).lam
        doubled = Instance(
            [MoldableTask(t.task_id, t.times, weight=2 * t.weight) for t in base],
            base.m,
        )
        a = minsum_lower_bound(base, lam).value
        b = minsum_lower_bound(doubled, lam).value
        assert b == pytest.approx(2 * a, rel=1e-6)

    def test_bound_grows_with_load(self):
        small = generate_workload("cirne", n=10, m=8, seed=46)
        big = generate_workload("cirne", n=40, m=8, seed=46)
        assert minsum_lower_bound(big).value > minsum_lower_bound(small).value

    @given(seed=st.integers(0, 9999), n=st.integers(1, 5), m=st.integers(1, 4))
    @settings(max_examples=25, deadline=None)
    def test_property_lower_bounds_exact_optimum(self, seed, n, m):
        """The heart of §3.3: LP value <= optimal minsum (verified against
        the exhaustive solver on tiny instances)."""
        from repro.bounds.exact import exact_reference

        rng = np.random.default_rng(seed)
        tasks = []
        for i in range(n):
            seq = float(rng.uniform(1, 10))
            alpha = float(rng.uniform(0, 1))
            times = seq / np.arange(1, m + 1) ** alpha
            tasks.append(MoldableTask(i, times, weight=float(rng.uniform(1, 10))))
        inst = Instance(tasks, m)
        exact = exact_reference(inst)
        lb = minsum_lower_bound(inst).value
        assert lb <= exact.minsum + 1e-6
        # Sanity: the bound is not trivially zero on non-trivial instances.
        assert lb > 0.0

    @given(seed=st.integers(0, 9999))
    @settings(max_examples=10, deadline=None)
    def test_property_ilp_also_below_optimum(self, seed):
        from repro.bounds.exact import exact_reference

        rng = np.random.default_rng(seed)
        tasks = [
            MoldableTask(
                i,
                float(rng.uniform(1, 8)) / np.arange(1, 4) ** float(rng.uniform(0, 1)),
                weight=float(rng.uniform(1, 5)),
            )
            for i in range(4)
        ]
        inst = Instance(tasks, 3)
        exact = exact_reference(inst)
        ilp = minsum_lower_bound(inst, integral=True).value
        assert ilp <= exact.minsum + 1e-6


def _loop_lp(instance, cmax_estimate):
    """The LP as the original per-entry Python loops assembled it — the
    oracle the array builder must reproduce bit for bit."""
    grid = build_time_grid(instance, cmax_estimate)
    b = np.concatenate([[0.0], grid])
    J = b.size
    n, m = instance.n, instance.m
    tm = instance.times_matrix
    weights = instance.weights
    S = np.empty((n, J))
    fastest = np.empty((n, J))
    for j in range(J - 1):
        S[:, j] = minimal_area_allotments(tm, b[j + 1])
        fastest[:, j] = np.where(tm <= b[j + 1], tm, np.inf).min(axis=1)
    ks = np.arange(1, m + 1, dtype=np.float64)
    S[:, J - 1] = (tm * ks).min(axis=1)
    fastest[:, J - 1] = tm.min(axis=1)

    var_index = -np.ones((n, J), dtype=np.int64)
    flat_allowed = np.argwhere(np.isfinite(S))
    for v, (i, j) in enumerate(flat_allowed):
        var_index[i, j] = v
    n_vars = flat_allowed.shape[0]
    c = np.array([weights[i] * max(b[j], fastest[i, j]) for i, j in flat_allowed])

    rows, cols, vals, rhs = [], [], [], []
    row = 0
    for i in range(n):
        for j in range(J):
            v = var_index[i, j]
            if v >= 0:
                rows.append(row)
                cols.append(int(v))
                vals.append(-1.0)
        rhs.append(-1.0)
        row += 1
    for j in range(J - 1):
        for l in range(j + 1):
            for i in range(n):
                v = var_index[i, l]
                if v >= 0:
                    rows.append(row)
                    cols.append(int(v))
                    vals.append(float(S[i, l]))
        rhs.append(float(m * b[j + 1]))
        row += 1
    A = sparse.coo_matrix((vals, (rows, cols)), shape=(row, n_vars)).tocsr()
    return b, flat_allowed, c, A, np.array(rhs)


def _loop_bound(instance, cmax_estimate, integral=False):
    """``(value, x)`` of the oracle LP, solved by the same solver call."""
    b, flat_allowed, c, A, rhs = _loop_lp(instance, cmax_estimate)
    if integral:
        res = milp(
            c=c,
            constraints=LinearConstraint(A, -np.inf, rhs),
            integrality=np.ones(c.size),
            bounds=Bounds(0, 1),
        )
    else:
        res = linprog(c, A_ub=A, b_ub=rhs, bounds=(0.0, 1.0), method="highs")
    assert res.success
    x = np.zeros((instance.n, b.size))
    for v, (i, j) in enumerate(flat_allowed):
        x[i, j] = res.x[v]
    return float(res.fun), x


def _assert_same_lp(instance, cmax_estimate, integral=False):
    b, flat_allowed, c, A, rhs = _loop_lp(instance, cmax_estimate)
    lp = _lp_arrays(instance, cmax_estimate)
    assert lp.A.shape == A.shape
    assert lp.A.has_canonical_format
    assert lp.A.indices.dtype == A.indices.dtype
    assert np.array_equal(lp.A.indptr, A.indptr)
    assert np.array_equal(lp.A.indices, A.indices)
    assert np.array_equal(lp.A.data, A.data)
    assert np.array_equal(lp.c, c)
    assert np.array_equal(lp.b_ub, rhs)
    assert np.array_equal(lp.boundaries, b)
    assert np.array_equal(np.column_stack([lp.ii, lp.jj]), flat_allowed)
    value, x = _loop_bound(instance, cmax_estimate, integral)
    res = minsum_lower_bound(instance, cmax_estimate, integral=integral)
    assert res.value == value
    assert np.array_equal(res.x, x)


@st.composite
def _lp_cases(draw):
    """Small instances with rigid rows (``max_procs < m``, padded with
    ``+inf``), non-unit weights, and a makespan estimate from below
    ``2 tmin`` (a ``K = 0`` grid) to a few doublings above it."""
    m = draw(st.integers(1, 6))
    n = draw(st.integers(1, 6))
    tasks = []
    for i in range(n):
        width = draw(st.integers(1, m))
        seq = draw(st.floats(0.5, 20.0))
        alpha = draw(st.floats(0.0, 1.0))
        weight = draw(st.floats(0.25, 8.0))
        tasks.append(
            MoldableTask(i, seq / np.arange(1, width + 1) ** alpha, weight=weight)
        )
    inst = Instance(tasks, m)
    factor = draw(st.floats(0.5, 64.0))
    return inst, factor * inst.tmin


class TestArrayBuilderIdentity:
    """The array builder assembles exactly the LP the per-entry loops did:
    the same canonical CSR, objective and right-hand side, hence the same
    HiGHS solution."""

    @given(case=_lp_cases())
    # n = 1, a rigid row, and a K = 0 grid (estimate 1.5 tmin).
    @example(case=(Instance([MoldableTask(0, [3.0, 2.0], weight=2.5)], 4), 3.0))
    # Two rigid rows and an estimate below tmin (K clamped to 0).
    @example(case=(Instance([MoldableTask(0, [3.0]), MoldableTask(1, [4.0, 2.0])], 3), 1.5))
    @settings(max_examples=40, deadline=None)
    def test_property_same_lp(self, case):
        inst, cmax_estimate = case
        _assert_same_lp(inst, cmax_estimate)

    def test_paper_scale_cirne(self):
        inst = generate_workload("cirne", n=400, m=200, seed=0)
        _assert_same_lp(inst, dual_approximation(inst).lam)

    def test_integral_path(self):
        inst = generate_workload("cirne", n=8, m=4, seed=5)
        _assert_same_lp(inst, dual_approximation(inst).lam, integral=True)
