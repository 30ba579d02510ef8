"""The variance formula and the planning bound, derived with sympy instead of
restated.

One record is one multinomial draw over the cells (tp, fn, fp, tn) with
probabilities p, whose covariance is diag(p) - p p^T. The index
T = p_tp / (p_tp + a p_fp + b p_fn) is a smooth function of p, so the
sqrt(n)-scaled estimate has the delta-method variance grad(T)^T Sigma grad(T).
Each expression is built once, here, so that the file runs in a few seconds.
"""

import sympy as sp

from tverskyci import TverskyParams, variance_bound

p_tp, p_fn, p_fp, p_tn, a, b = sp.symbols("p_tp p_fn p_fp p_tn a b", positive=True)
t, c = sp.symbols("t c", real=True)
CELLS = (p_tp, p_fn, p_fp, p_tn)
INDEX = p_tp / (p_tp + a * p_fp + b * p_fn)
# The formula as estimation computes it from counts: r1 = 1/t - 1 and
# r2 = 1/t2 - 1 are the weighted error ratios.
R1 = (a * p_fp + b * p_fn) / p_tp
R2 = (a**2 * p_fp + b**2 * p_fn) / p_tp
VARIANCE = (R2 + R1**2) * INDEX**4 / p_tp
# The profile whose maximum over t is V(m), written with c = 1/(1 - m).
PROFILE = t * (1 - t) * (1 - t / c) ** 2


def test_the_variance_is_the_delta_method_variance_of_one_multinomial_record():
    gradient = sp.Matrix([sp.diff(INDEX, cell) for cell in CELLS])
    p = sp.Matrix(CELLS)
    covariance = sp.diag(*CELLS) - p * p.T
    delta_method = (gradient.T * covariance * gradient)[0, 0]
    assert sp.simplify(delta_method - VARIANCE) == 0


def test_with_no_false_positives_the_scaled_variance_is_the_bound_profile():
    # For any label rate; so the bound is reached on this face, with m = b.
    index = INDEX.subs(p_fp, 0)
    scaled = VARIANCE.subs(p_fp, 0) * b * (p_tp + p_fn)
    assert sp.simplify(scaled - index * (1 - index) * (1 - (1 - b) * index) ** 2) == 0


def test_the_stationary_points_of_the_profile_are_variance_bounds_roots():
    s = sp.sqrt(4 * c**2 - 4 * c + 9)
    quadratic = [(3 + 2 * c - s) / 8, (3 + 2 * c + s) / 8]
    roots = sp.solve(sp.diff(PROFILE, t), t)
    assert len(roots) == 3
    # t = c, where the squared factor vanishes, and the two roots of the quadratic.
    unmatched = [root for root in roots if all(sp.simplify(root - r) != 0 for r in quadratic)]
    assert [sp.simplify(root - c) for root in unmatched] == [0]
    evaluate = sp.lambdify((c, t), [*quadratic, PROFILE])
    for m in (0.1, 0.5, 0.8, 0.9, 0.999, 1.001, 1.5, 2.0, 10.0):
        bound = variance_bound(TverskyParams(m, m))
        minus, plus, _ = evaluate(1.0 / (1.0 - m), 0.0)
        for derived, used in zip(sorted((minus, plus)), (bound.root_minus, bound.root_plus)):
            assert abs(derived - used) <= 1e-12 * abs(used)
        value = evaluate(1.0 / (1.0 - m), bound.maximizer)[2]
        assert 0.0 < bound.maximizer < 1.0
        assert abs(value - bound.value) <= 1e-12 * bound.value
