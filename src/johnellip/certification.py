"""Independent verification of candidate weights.

Nothing here trusts solver internals: every quantity is recomputed from the
instance and the weights through the shared kernel, the reference solution
comes from a greedy single-coordinate ascent that shares no iteration logic
with either solver, and the geometric containment checks sample the actual
ellipsoids.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    EllipsoidQuadratic,
    PolytopeInstance,
    _column_maxima,
    _graded,
    _screened_maxima,
    cholesky_of_weighted_gram,
    validate_weights,
)
from .errors import NoConvergenceError, check_count, check_positive, check_unit_interval

__all__ = [
    "CertificateReport",
    "ContainmentResult",
    "OracleSolution",
    "certify",
    "containment_check",
    "duality_gap",
    "oracle_solve",
    "volume_ratio",
]

# Weights above this are treated as support points when checking score
# flatness of reference solutions.
SUPPORT_THRESHOLD = 1e-8
# |sum(w) - n| <= WEIGHT_SUM_RTOL * n is required for a pass verdict.
WEIGHT_SUM_RTOL = 1e-6
# Additive slack for the sampled containment inequalities.
CONTAINMENT_SLACK = 1e-9

_REFRESH_EVERY = 256


@dataclass(frozen=True)
class ContainmentResult:
    """Outcome of sampled inner/outer containment tests."""

    inner_pass: bool
    outer_pass: bool
    inner_violations: int
    outer_violations: int
    samples: int


@dataclass(frozen=True)
class CertificateReport:
    """Everything certify() measured about a weight vector.

    ``passed`` is True exactly when ``max_sigma <= 1 + target_epsilon`` and
    ``|weight_sum - n| <= 1e-6 * n``; the containment fields report the
    sampled geometry checks alongside.
    """

    target_epsilon: float
    max_sigma: float
    weight_sum: float
    epsilon_achieved: float
    duality_gap: float
    objective: float
    logdet: float
    sigma_ok: bool
    weight_sum_ok: bool
    passed: bool
    containment_inner_pass: bool
    containment_outer_pass: bool
    containment_inner_violations: int
    containment_outer_violations: int
    containment_samples: int


def certify(
    inst: PolytopeInstance,
    w,
    target_epsilon: float,
    *,
    containment_samples: int = 1000,
    containment_seed: int = 0,
) -> CertificateReport:
    """Recompute scores from scratch and grade ``w`` against the target.

    ``w`` is validated here (:func:`core.validate_weights`).  With
    ``Q = A^T diag(w) A`` and ``E = {x : x^T Q x <= 1}``, both inclusions
    are theorems of two fields of the report:

    * inner, by Cauchy-Schwarz, ``|a_i^T x| <= sqrt(sigma_i * x^T Q x)``, so
      ``E / sqrt(max_sigma)`` lies inside ``P``;
    * outer, for ``x`` in ``P``,
      ``x^T Q x = sum_i w_i (a_i^T x)^2 <= weight_sum``, so ``P`` lies inside
      ``sqrt(weight_sum) E``.

    The sampled containment checks test them numerically, which checks that
    the factor agrees with ``A`` and ``w``; ``containment_samples=0`` skips
    them.
    """
    check_positive("target_epsilon", target_epsilon)
    check_count("containment_samples", containment_samples, minimum=0)
    check_count("containment_seed", containment_seed, minimum=0)
    w = validate_weights(w, inst.m)
    n = inst.n

    quad, sigma = _graded(inst, w)
    max_sigma = float(sigma.max())
    weight_sum = float(w.sum())
    eps_hat = max_sigma - 1.0
    gap = n * math.log(max_sigma)
    objective = weight_sum - quad.logdet - n

    sigma_ok = max_sigma <= 1.0 + target_epsilon
    sum_ok = abs(weight_sum - n) <= WEIGHT_SUM_RTOL * n

    if containment_samples > 0:
        cont = _containment(inst, quad, eps_hat, containment_samples, containment_seed)
    else:
        cont = ContainmentResult(True, True, 0, 0, 0)

    return CertificateReport(
        target_epsilon=float(target_epsilon),
        max_sigma=max_sigma,
        weight_sum=weight_sum,
        epsilon_achieved=eps_hat,
        duality_gap=gap,
        objective=objective,
        logdet=quad.logdet,
        sigma_ok=sigma_ok,
        weight_sum_ok=sum_ok,
        passed=sigma_ok and sum_ok,
        containment_inner_pass=cont.inner_pass,
        containment_outer_pass=cont.outer_pass,
        containment_inner_violations=cont.inner_violations,
        containment_outer_violations=cont.outer_violations,
        containment_samples=cont.samples,
    )


def duality_gap(inst: PolytopeInstance, w, oracle: "OracleSolution | None" = None):
    """Primal-dual gap ``n * log(1 + eps_hat)`` with ``eps_hat = max sigma - 1``.

    The scaled quadratic ``(1 + eps_hat) Q(w)`` is feasible for the inscribed
    ellipsoid program while ``w`` (with ``sum(w) = n``) is feasible for its
    dual, and this is exactly the difference of their objectives.  When an
    :class:`OracleSolution` is supplied the return value is the pair
    ``(gap, logdet difference against the reference weights)``.
    """
    quad, sigma = _graded(inst, w)
    gap = inst.n * math.log(float(sigma.max()))
    if oracle is None:
        return gap
    refs = cholesky_of_weighted_gram(inst, oracle.weights).logdet
    return gap, refs - quad.logdet


def containment_check(
    inst: PolytopeInstance, w, samples: int, seed: int = 0
) -> ContainmentResult:
    """Sample directions and test the rounding sandwich numerically.

    For each of ``samples`` uniform directions u the inner test puts x on
    the boundary of the ellipsoid shrunk by ``1/sqrt(1 + eps_hat)`` (so
    ``x^T Q x = 1/(1+eps_hat)``) and requires ``||A x||_inf <= 1 + slack``;
    the outer test puts ``y = u / ||A u||_inf`` on the polytope boundary and
    requires ``y^T Q y <= n + slack``.  One Gaussian block of shape
    ``(n, samples)`` is drawn from ``default_rng(seed)``, column j belonging
    to sample j.

    Both tests need only the column maxima of ``|A u|``, since each x is a
    positive multiple of its u.  Core's column-maximum pass
    (``core._column_maxima``) forms them exactly, in row blocks of
    ``max(1, core._BLOCK_ELEMENTS // samples)`` rows whose products fill one
    block of about 1 MiB.  Storage picks the pass.  On CSR ``A`` it visits
    rows by decreasing l1 norm and stops each direction once no unvisited
    row's Holder bound ``||a_i||_1 ||u_j||_inf`` can exceed its maximum.  On
    dense ``A`` every row block is first multiplied in float32
    (``core._screened_maxima``), giving each maximum to within a proven
    bound E.  A sample whose tests pass with its maximum raised by E
    (inner) and lowered by E (outer) passes them exactly; only the other
    samples take the exact pass, over every row in storage order, and the
    counts are the exact pass's.  Scratch memory is one block at a time
    plus O(n * samples), and, on CSR, the O(m) row bounds and order; never
    m x samples.
    """
    check_count("samples", samples)
    check_count("seed", seed, minimum=0)
    quad, sigma = _graded(inst, w)
    return _containment(inst, quad, float(sigma.max()) - 1.0, samples, seed)


def _containment(
    inst: PolytopeInstance,
    quad: EllipsoidQuadratic,
    eps_hat: float,
    samples: int,
    seed: int,
) -> ContainmentResult:
    """Body of :func:`containment_check`, for callers that already hold
    ``Q(w)``'s factor and ``eps_hat = max sigma(w) - 1``.

    Sample j passes when ``M_j / scale_j <= 1 + slack`` (inner) and
    ``||L^T u_j / M_j||^2 <= n + slack`` (outer), where ``M_j`` is the
    maximum of ``|A u_j|`` that ``core._column_maxima`` computes.
    ``core._screened_maxima`` gives ``M~_j`` with ``|M~_j - M_j| <= E``.
    Both tests are evaluated as always, the inner one at ``M~_j + E`` and
    the outer one at ``M~_j - E``, by the same operations on arrays of the
    same shape.  Rounding is monotone, so each computed test value is
    monotone in the maximum it is given, and a sample that passes both
    there, with ``M~_j - E > 0``, passes both at ``M_j``: it is decided.  NaN
    and inf fail the tests, so they never decide a sample.  The undecided
    samples alone get ``M_j`` from ``core._column_maxima`` and are counted
    from it, so the counts are those of the exact pass.
    """
    n = inst.n
    rng = np.random.default_rng(seed)
    u = rng.standard_normal((n, samples))
    u /= np.linalg.norm(u, axis=0)

    approx, error = _screened_maxima(inst, u)
    # x = u / scale with scale = sqrt(1+eps_hat) * ||L^T u||, so
    # x^T Q x = 1/(1+eps_hat) and ||A x||_inf = ||A u||_inf / scale.
    lt_u = quad.L.T @ u
    scale = np.sqrt(1.0 + eps_hat) * np.linalg.norm(lt_u, axis=0)
    upper = lower = approx
    if error > 0.0:
        with np.errstate(over="ignore", invalid="ignore"):
            upper, lower = approx + error, approx - error
            decided = lower > 0.0
            decided &= upper / scale <= 1.0 + CONTAINMENT_SLACK
            # inf for the samples already undecided: no division by lower <= 0.
            outer = _outer_values(lt_u, np.where(decided, lower, np.inf))
            decided &= outer <= n + CONTAINMENT_SLACK
        undecided = np.flatnonzero(~decided)
        if undecided.size:
            exact = _column_maxima(inst, u[:, undecided])
            upper[undecided] = lower[undecided] = exact

    inner_violations = int(np.count_nonzero(upper / scale > 1.0 + CONTAINMENT_SLACK))
    outer_violations = int(np.count_nonzero(_outer_values(lt_u, lower) > n + CONTAINMENT_SLACK))
    return ContainmentResult(
        inner_pass=inner_violations == 0,
        outer_pass=outer_violations == 0,
        inner_violations=inner_violations,
        outer_violations=outer_violations,
        samples=samples,
    )


def _outer_values(lt_u: np.ndarray, au_inf: np.ndarray) -> np.ndarray:
    # y^T Q y for y = u / ||A u||_inf, as ||L^T y||^2 with L^T y = L^T u / ||A u||_inf.
    lt_y = lt_u / au_inf
    return np.einsum("ij,ij->j", lt_y, lt_y)


@dataclass(frozen=True)
class OracleSolution:
    """Reference weights from the greedy ascent.

    ``support_deviation`` is ``max |sigma_i - 1|`` over rows whose weight
    exceeds ``SUPPORT_THRESHOLD``; at an exact optimum it is zero.
    ``logdet`` is that of ``Q`` at the returned weights.
    """

    weights: np.ndarray
    iterations: int
    max_sigma: float
    support_deviation: float
    logdet: float


def _step_gain(n: int, tau: float, d: float) -> float:
    # logdet change of M <- (1-tau) M + tau * n * a a^T when a^T M^{-1} a = d/n.
    if 1.0 + tau * (d - 1.0) <= 0.0:
        return -math.inf
    if n == 1:
        return math.log1p(tau * (d - 1.0))
    return (n - 1) * math.log1p(-tau) + math.log1p(tau * (d - 1.0))


def _is_flat(w: np.ndarray, sigma: np.ndarray, tol: float) -> bool:
    # Optimality needs sigma <= 1+tol everywhere and, by complementary
    # slackness, sigma >= 1-tol on every supported row.
    if float(sigma.max()) > 1.0 + tol:
        return False
    support = w > SUPPORT_THRESHOLD
    return float(sigma[support].min()) >= 1.0 - tol


def _choose_step(n: int, w: np.ndarray, sigma: np.ndarray) -> tuple[int, float]:
    """Row ``j`` and exact step ``tau`` of the next coordinate move: toward
    the row with the largest score, or away from the worst supported row
    when that gains more, clamped at its bound."""
    jmax = int(np.argmax(sigma))
    d_add = n * float(sigma[jmax])
    tau_add = (d_add - n) / (n * (d_add - 1.0))
    supported = w > 0.0
    if np.count_nonzero(supported) > 1:
        jmin = int(np.argmin(np.where(supported, sigma, np.inf)))
        d_away = n * float(sigma[jmin])
        if d_away < n and n > w[jmin]:
            bound = -w[jmin] / (n - w[jmin])
            if d_away > 1.0:
                tau_away = max((d_away - n) / (n * (d_away - 1.0)), bound)
            else:
                tau_away = bound
            if _step_gain(n, tau_away, d_away) > _step_gain(n, tau_add, d_add):
                return jmin, tau_away
    return jmax, tau_add


def oracle_solve(
    inst: PolytopeInstance, tol: float = 1e-6, max_iters: int = 200_000
) -> OracleSolution:
    """Greedy single-coordinate ascent to reference weights.

    Maintains ``sum(w) = n`` and repeatedly moves mass along one coordinate
    with the exact line-search step: toward the row with the largest score
    (``tau = (d - n) / (n (d - 1))`` for ``d = n * sigma_j``), or away from
    the worst supported row when that gains more, clamping away steps at the
    bound so weights can reach exactly zero.  Stops once an exactly
    recomputed score vector is flat: ``max sigma <= 1 + tol`` and
    ``sigma >= 1 - tol`` on every supported row (weight above
    ``SUPPORT_THRESHOLD``).

    The outer loop takes the exact state, the scores and Gram inverse of a
    fresh factorization, and alone decides to stop or to raise.  The inner
    loop updates that state rank-one per step and hands back to the outer
    one every few hundred steps, once the step budget is spent or the
    updated scores look flat (so only exact data is trusted), after the
    ``n == 1`` jump to a vertex and after a rank-one update whose pivot
    drifted.

    Raises :class:`NoConvergenceError` when ``max_iters`` steps were not
    enough.
    """
    check_unit_interval("tol", tol)
    check_count("max_iters", max_iters)

    m, n = inst.m, inst.n
    w = np.full(m, n / m)
    steps = 0
    while True:
        quad, sigma = _graded(inst, w)
        if _is_flat(w, sigma, tol):
            break
        if steps >= max_iters:
            raise NoConvergenceError(max_iters, float(sigma.max()))
        # A writable copy of Q^{-1}, which the steps below update in place.
        inv = quad.inverse.copy()
        while True:
            steps += 1
            j, tau = _choose_step(n, w, sigma)
            if tau >= 1.0:
                # n == 1 only: the exact step jumps to the vertex outright.
                w = np.zeros(m)
                w[j] = float(n)
                break

            a_j = inst.row_dense(j)
            c = inv @ a_j
            p = inst.matrix @ c
            beta = tau * n / (1.0 - tau)
            den = 1.0 + beta * float(p[j])
            if not math.isfinite(den) or den <= 0.0:
                # Rank-one drift produced an unusable pivot: retry from exact data.
                steps -= 1
                break
            factor = beta / den
            # In place, in the order of (inv - factor c c^T) / (1 - tau) and
            # (sigma - (factor p) p) / (1 - tau); inv stays exactly symmetric.
            update = np.outer(c, c)
            update *= factor
            inv -= update
            inv /= 1.0 - tau
            drop = factor * p
            drop *= p
            sigma -= drop
            sigma /= 1.0 - tau
            w *= 1.0 - tau
            w[j] += tau * n
            if tau < 0.0 and w[j] < 1e-15:
                w[j] = 0.0
            if steps % _REFRESH_EVERY == 0 or steps >= max_iters or _is_flat(w, sigma, tol):
                break

    w = w * (n / w.sum())
    quad, sigma = _graded(inst, w)
    supported = w > SUPPORT_THRESHOLD
    deviation = float(np.abs(sigma[supported] - 1.0).max())
    return OracleSolution(
        weights=w,
        iterations=steps,
        max_sigma=float(sigma.max()),
        support_deviation=deviation,
        logdet=quad.logdet,
    )


def volume_ratio(inst: PolytopeInstance, w, w_star) -> float:
    """Volume of the certified shrunk ellipsoid relative to the reference.

    With ``Q = A^T diag(w) A``, ``eps_hat = max sigma(w) - 1`` and reference
    quadratic ``Q* = A^T diag(w*) A``, returns

        vol({x : (1+eps_hat) x^T Q x <= 1}) / vol({x : x^T Q* x <= 1})
        = exp((logdet Q* - n*log(1+eps_hat) - logdet Q) / 2)

    (the volume of ``{x : x^T M x <= 1}`` scales as ``det(M)^{-1/2}``).  For
    weights summing to n this is at least ``exp(-n * eps_hat / 2)`` and at
    most 1 up to reference slack.
    """
    quad, sigma = _graded(inst, w)
    eps_hat = float(sigma.max()) - 1.0
    ref = cholesky_of_weighted_gram(inst, w_star)
    return math.exp((ref.logdet - inst.n * math.log1p(eps_hat) - quad.logdet) / 2.0)
