"""Reference results the benchmark checks neglab's outputs against.

Written from the documented formulas with numpy alone; this module never
imports neglab, so a kernel bug cannot be reproduced by the reference it
is checked against.  Operations follow the documented evaluation order
(sequential prefix sums, ``math.fsum`` for mixtures), so values agree
with a correct implementation to a few ulps and the certificate flags,
decided at tolerances of 1e-12 and 1e-9, agree exactly.
"""

from __future__ import annotations

import math

import numpy as np

HOLDS_TOL = 1e-12
EQUALITY_TOL = 1e-9
CONVERGE_TOL = 1e-9
MAX_STEPS = 1000


# ---------------------------------------------------------------------------
# distributions and their negations

def validated(row: list[float]) -> np.ndarray:
    """The distribution the CLI validates ``row`` into (renormalised only
    when the sum is off by more than accumulated rounding)."""
    arr = np.asarray(row, dtype=float)
    arr = np.where(arr < 0.0, 0.0, arr)
    if abs(float(arr.sum()) - 1.0) > 32.0 * arr.size * np.finfo(float).eps:
        arr = arr / float(arr.sum())
    return np.clip(arr, 0.0, 1.0)


def negate(p: np.ndarray) -> np.ndarray:
    return np.clip((1.0 - p) / (p.size - 1), 0.0, 1.0)


def negate_twice(p: np.ndarray) -> np.ndarray:
    n = p.size
    return np.clip((p + (n - 2)) / (n - 1) ** 2, 0.0, 1.0)


def negate_iterated(p: np.ndarray, k: int) -> np.ndarray:
    n = p.size
    center = 1.0 / n
    return np.clip(center + (p - center) * (-1.0 / (n - 1)) ** k, 0.0, 1.0)


def entropy(p: np.ndarray) -> float:
    pos = p[p > 0]
    return float(-np.sum(pos * np.log2(pos))) + 0.0


# ---------------------------------------------------------------------------
# certificates

def neg_log(x):
    with np.errstate(divide="ignore"):
        return -np.log2(x) + 0.0


def x_log_x(x):
    x = np.asarray(x, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(x == 0.0, 0.0, -x * np.log2(x)) + 0.0


def cert(name, lhs, rhs, *, equality=None, detail=()):
    """The claim ``lhs <= rhs`` as the CLI's JSON renders its certificate."""
    lhs, rhs = float(lhs), float(rhs)
    infinite = math.isinf(lhs) or math.isinf(rhs)
    slack = rhs - lhs  # inf - inf is nan
    if infinite:
        eq = False
        ok = lhs <= rhs
    else:
        eq = (abs(slack) <= EQUALITY_TOL) if equality is None else bool(equality)
        ok = slack >= -HOLDS_TOL or eq
    return {
        "name": name, "lhs": lhs, "rhs": rhs, "slack": slack,
        "holds": bool(ok), "equality": bool(eq), "infinite": bool(infinite),
        "detail": list(detail),
    }


def _mixture(f, p: np.ndarray) -> float:
    n = p.size
    return (math.fsum(f(p)) + (n - 1) * math.fsum(f(negate(p)))) / n**2


def _chains(f, p: np.ndarray) -> list[dict]:
    """All n partial-mean chain certificates, one row per excluded index."""
    n = p.size
    m_full = n - 1
    kept = np.broadcast_to(p, (n, n))[~np.eye(n, dtype=bool)].reshape(n, m_full)
    prefix = np.cumsum(kept, axis=1)
    lhs = f(prefix[:, m_full - 1] / m_full)
    ms = np.arange(n - 2, 0, -1)
    peeled = np.cumsum(f(kept)[:, ::-1], axis=1)[:, : n - 2]
    bounds = (peeled + ms * f(prefix[:, ms - 1] / ms)) / m_full
    infinite = np.isinf(lhs) | np.isinf(bounds).any(axis=1)
    ordered = (lhs[:, None] <= bounds + HOLDS_TOL).all(axis=1) & (
        bounds[:, 1:] >= bounds[:, :-1] - HOLDS_TOL
    ).all(axis=1)
    with np.errstate(invalid="ignore"):
        slack = bounds[:, -1] - lhs
    equality = ~infinite & (np.abs(slack) <= EQUALITY_TOL)
    return [
        {
            "name": f"partial_mean_chain[i={i}]", "lhs": float(lhs[i]),
            "rhs": float(bounds[i, -1]), "slack": float(slack[i]),
            "holds": bool(ordered[i] or equality[i]), "equality": bool(equality[i]),
            "infinite": bool(infinite[i]), "detail": [],
        }
        for i in range(n)
    ]


def verify_certificates(p: np.ndarray) -> list[dict]:
    """The ``verify --fn neg_log`` suite for one validated distribution."""
    n = p.size
    q = negate(p)
    at_uniform = float(neg_log(1.0 / n))
    mix = _mixture(neg_log, p)
    certs = [cert("mixture_bound", at_uniform, mix)]
    f_p = neg_log(p)
    f_neg = neg_log((1.0 - p) / (n - 1))
    certs.extend(
        cert(f"pointwise_bound[i={i}]", at_uniform, (f_p[i] + (n - 1) * f_neg[i]) / n)
        for i in range(n)
    )
    certs.append(cert("self_information_bound", at_uniform, mix))
    certs.append(cert("double_negation_mixture_bound", at_uniform, _mixture(neg_log, q)))
    h_mix = (entropy(p) + (n - 1) * entropy(q)) / n
    certs.append(
        cert(
            "concave_mixture_bound", _mixture(x_log_x, p), float(x_log_x(1.0 / n)),
            detail=(cert("entropy_mixture_bound", h_mix, math.log2(n)),),
        )
    )
    if n >= 3:
        certs.extend(_chains(neg_log, p))
    u = np.full(n, 1.0 / n)
    cross = float(-np.sum(p[p > 0] * np.log2(u[p > 0])))
    same = bool(np.max(np.abs(p - u)) <= 1e-12)
    certs.append(cert("cross_entropy", entropy(p), cross, equality=same))
    h0, h1, h2, h_max = entropy(p), entropy(q), entropy(negate_twice(p)), math.log2(n)
    links = (
        cert("entropy_le_negation_entropy", h0, h1),
        cert("negation_entropy_le_double_negation_entropy", h1, h2),
        cert("double_negation_entropy_le_log_n", h2, h_max),
    )
    equal = all(c["equality"] for c in links)
    certs.append({
        "name": "entropy_chain", "lhs": h0, "rhs": h_max, "slack": h_max - h0,
        "holds": all(c["holds"] for c in links) or equal, "equality": equal,
        "infinite": False, "detail": list(links),
    })
    return certs


# ---------------------------------------------------------------------------
# convergence and dissimilarity

def converge(p: np.ndarray) -> dict:
    """Final state of repeated negation toward uniform."""
    n = p.size
    center = 1.0 / n
    dev = p - center
    distance = float(np.max(np.abs(dev)))
    if distance <= CONVERGE_TOL:
        return {"state": "converged", "steps": 0, "distance": distance, "entropy": entropy(p)}
    if n == 2:
        q = negate(p)
        return {"state": "oscillating", "steps": 1,
                "distance": float(np.max(np.abs(q - center))), "entropy": entropy(q)}
    ratio = -1.0 / (n - 1)
    q = p
    for step in range(1, MAX_STEPS + 1):
        q = negate(q)
        dev = dev * ratio
        distance = float(np.max(np.abs(dev)))
        if distance <= CONVERGE_TOL:
            return {"state": "converged", "steps": step, "distance": distance, "entropy": entropy(q)}
    return {"state": "stopped", "steps": MAX_STEPS, "distance": distance, "entropy": entropy(q)}


def dissimilarity(a: np.ndarray, b: np.ndarray, alpha: int) -> tuple[float, float, float]:
    """(value, closed form, l1) of the level-``alpha`` dissimilarity."""
    scale = 2.0**alpha
    toward_b = ((scale - 1.0) * a + b) / scale
    toward_a = (a + (scale - 1.0) * b) / scale
    s = float(np.sum(np.minimum(a, toward_b) + np.minimum(toward_a, b)))
    value = -math.log2((1.0 + 0.5 * s) / 2.0) + 0.0
    l1 = float(np.sum(np.abs(a - b)))
    closed = -math.log2(1.0 - l1 / 2.0 ** (alpha + 2)) + 0.0
    return value, closed, l1


def dissim_rows(p: np.ndarray, alphas: list[int], depth: int) -> list[dict]:
    """The CSV rows ``dissim`` writes for one distribution, in order."""
    q = negate(p)
    forward = [dissimilarity(p, q, a) for a in alphas]
    holds = True
    for a, (value, _, l1) in zip(alphas, forward):
        backward = dissimilarity(q, p, a)[0]
        cutoff = -math.expm1(-HOLDS_TOL * math.log(2.0)) * 2.0 ** (a + 2)
        holds &= -HOLDS_TOL <= value <= 1.0 + HOLDS_TOL
        holds &= (value <= HOLDS_TOL) == (l1 <= cutoff)
        holds &= abs(value - backward) <= 1e-14
    rows = [
        {"kind": "alpha", "level": a, "value": v, "closed_form_value": c, "l1": l1}
        for a, (v, c, l1) in zip(alphas, forward)
    ]
    for k in range(1, depth + 1):
        v, c, l1 = dissimilarity(p, negate_iterated(p, k), alphas[0])
        rows.append({"kind": "iterate", "level": k, "value": v, "closed_form_value": c, "l1": l1})
    for r in rows:
        r["properties_hold"] = holds
    return rows
