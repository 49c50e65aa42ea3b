"""Reference computations for the correctness checks.

They share no code path with the timed calls: norms are plain numpy, and
distances come from scipy's HiGHS linear-programming solver rather than from
proxilift's own simplex.  scipy is imported on first use, after the measured
loop, so it adds nothing to set-up time or peak memory; without it the
reference checks fail.
"""

from __future__ import annotations

import functools
import itertools

import numpy as np


def vec_norm(kind: str, v) -> float:
    v = np.asarray(v, dtype=float)
    if kind == "linf":
        return float(np.max(np.abs(v), initial=0.0))
    if kind == "l1":
        return float(np.sum(np.abs(v)))
    return float(np.linalg.norm(v))


def column_norms(kind: str, a: np.ndarray) -> np.ndarray:
    if kind == "linf":
        return np.max(np.abs(a), axis=0, initial=0.0)
    if kind == "l1":
        return np.sum(np.abs(a), axis=0)
    return np.linalg.norm(a, axis=0)


def in_span(basis: np.ndarray, v, rel: float = 1e-8) -> bool:
    """Whether a vector, or every column of a matrix, lies in span(basis)."""
    v = np.asarray(v, dtype=float)
    if basis.shape[1] == 0:
        resid = np.abs(v)
    else:
        resid = np.abs(v - basis @ np.linalg.lstsq(basis, v, rcond=None)[0])
    return bool(np.all(np.max(resid, axis=0, initial=0.0)
                       <= rel * (1.0 + np.max(np.abs(v), axis=0, initial=0.0))))


def lp_distance(kind: str, basis: np.ndarray, x) -> tuple[float, np.ndarray]:
    """dist(x, span(basis)) under the sup or sum norm, and the coefficients
    of a nearest point, solved by HiGHS."""
    from scipy.optimize import linprog

    x = np.asarray(x, dtype=float)
    n, k = basis.shape
    if k == 0:
        return vec_norm(kind, x), np.zeros(0)
    if kind == "linf":
        c = np.zeros(k + 1)
        c[-1] = 1.0
        a_ub = np.block([[basis, -np.ones((n, 1))], [-basis, -np.ones((n, 1))]])
        bounds = [(None, None)] * k + [(0, None)]
    else:
        c = np.concatenate([np.zeros(k), np.ones(n)])
        a_ub = np.block([[basis, -np.eye(n)], [-basis, -np.eye(n)]])
        bounds = [(None, None)] * k + [(0, None)] * n
    b_ub = np.concatenate([x, -x])
    res = linprog(c, A_ub=a_ub, b_ub=b_ub, bounds=bounds, method="highs")
    if res.status != 0:
        raise RuntimeError(f"reference LP failed: {res.message}")
    return float(res.fun), res.x[:k]


def close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * (1.0 + max(abs(a), abs(b)))


@functools.cache
def _sign_vectors(m: int) -> np.ndarray:
    return np.array(list(itertools.product((1.0, -1.0), repeat=m)))


def operator_norm_to_space(dom_kind: str, kind: str, mat: np.ndarray) -> float:
    """||T|| from a sup- or sum-norm domain into a plain normed space, by
    evaluating T on the extreme points of the domain ball."""
    points = mat if dom_kind == "l1" else mat @ _sign_vectors(mat.shape[1]).T
    return float(np.max(column_norms(kind, points)))


def operator_norm_to_quotient(dom_kind: str, kind: str, basis: np.ndarray,
                              mat: np.ndarray) -> float:
    """||S|| into X/J: the quotient norm is dist(., J), solved by HiGHS."""
    points = mat if dom_kind == "l1" else mat @ _sign_vectors(mat.shape[1]).T
    return max(lp_distance(kind, basis, p)[0] for p in points.T)
