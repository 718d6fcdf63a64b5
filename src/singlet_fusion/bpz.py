"""Frobenius bases and connection coefficients for the degenerate-field ODE.

Four-point functions with an ``h_{1,2}`` insertion satisfy the second-order
Fuchsian equation

    ``p x(1-x) f'' + (1-2x) f' - h/(x(1-x)) f = 0``,   ``h = h_{1,2} = 3/(4p) - 1/2``,

with regular singular points 0, 1, oo.  The substitution
``g = x^{-1/(2p)} (1-x)^{-1/(2p)} f`` turns it into the hypergeometric form

    ``p x(1-x) g'' + 2(1-2x) g' + (1 - 3/p) g = 0``.

This module builds the Frobenius solution bases at 0 and 1 (phi and psi),
evaluates the closed-form change of basis between them, re-derives the same
matrix numerically by matching series on the overlap, and exposes the
non-vanishing coefficient that the rigidity argument needs.  Everything is
series-based: the matching interval lies inside both disks of convergence,
so no integration across singular points is ever attempted.  Residuals and
matching use only the exact series derivatives of
:meth:`FrobeniusSolution.derivatives`.

For ``p >= 3`` the exponents at 0 are ``1/(2p)`` and ``1 - 3/(2p)``:

    ``phi_1 = x^{1/2p} (1-x)^{1/2p} 2F1(1/p, 3/p-1; 2/p; x)``
    ``phi_2 = x^{1-3/2p} (1-x)^{1/2p} 2F1(1-1/p, 1/p; 2-2/p; x)``

and ``psi_i(x) = phi_i`` rebuilt at ``1-x``.  For ``p = 2`` the indicial
roots coincide and the second solution is logarithmic:

    ``phi_2 = phi_1 ln(x/4) + x^{1/4} (1-x)^{1/4} G(x)``,

where ``G`` is the repeated-root Frobenius series with zero constant term.
The ``ln(x/4)`` normalization (rather than bare ``ln x``) is the one that
realizes the standard connection pair ``(ln4/pi, -1/pi)``; shifting the log
solution by multiples of ``phi_1`` is the only freedom, and this choice
pins it.

The series coefficients are built and evaluated as plain Python floats,
in Horner order (highest degree first).  Summing ``c_k u^k`` forward,
``cumprod`` in the recurrences or a dot product with powers of ``u`` would
round differently; ``tests/bpz_pins.json`` pins the values with
``float.hex``.

:func:`connection_numeric` matches values and first derivatives at
``MATCH_POINTS``: a 4x2 least-squares system per row of the matrix.  It
solves it in plain floats with a thin QR factorization (two Gram-Schmidt
steps give the upper-triangular ``R = [[r11, r12], [0, r22]]``, then back
substitution), so the error stays near ``condition * eps``; the normal
equations would square the condition number.  ``condition`` is the 2-norm
condition number ``sigma_max / sigma_min`` of the system, read from the
singular values of ``R``: ``sigma_max sigma_min = |r11 r22|`` and
``sigma_max^2 + sigma_min^2 = r11^2 + r12^2 + r22^2``.

Everything one value of p needs is built once, in one private memo keyed
on the int ``p``: the series of every component, and the values and first
two derivatives of all four basis functions at ``MATCH_POINTS``.  Psi is
phi mirrored, so both bases share the same immutable components
(``series``, ``d1`` and ``d2`` are tuples), and both directions of
:func:`connection_numeric` solve from the same match-point values.
:func:`residuals` gives the ODE and hypergeometric residuals from one
evaluation of the solution.  The memo holds a single p: ``verify --suite
bpz`` finishes all its work at one p before it moves to the next, so a
larger memo would hit no more often and would only keep the series of
earlier p alive, growing with the length of the p list.

Three module constants fix the numerics for every caller:

* ``N_TERMS = 200`` -- the series length of every basis.  The series
  converge geometrically in the local coordinate ``u``.  The package
  evaluates them at ``u <= 0.7`` and its tests at ``u <= 0.85``, where the
  truncation error (about ``0.85^200 ~ 1e-14``) is already at double
  precision, so no caller needs another length.
* ``MATCH_POINTS = (0.6, 0.7)`` -- where :func:`connection_numeric` matches
  values and first derivatives.  Both lie in ``(1/2, 1)``, inside both disks
  of convergence and away from the singular points, so both bases are
  accurate there.
* ``MAX_CONDITION = 1e9`` -- the largest condition number of the matching
  system that :func:`connection_numeric` accepts before raising
  :class:`IllConditionedMatching`.  The systems at these points stay below
  3 for p = 2..120, so the cap only trips when the bases are broken.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import List, NamedTuple, Optional, Tuple

from .labels import Params

__all__ = [
    "N_TERMS",
    "MATCH_POINTS",
    "MAX_CONDITION",
    "IllConditionedMatching",
    "FrobeniusSolution",
    "phi_basis",
    "psi_basis",
    "residuals",
    "ConnectionMatrix",
    "connection_closed",
    "connection_numeric",
    "rigidity_coefficient",
]

#: Series length of every Frobenius basis.
N_TERMS = 200
#: Overlap points where :func:`connection_numeric` matches the two bases.
MATCH_POINTS = (0.6, 0.7)
#: Largest accepted condition number of the matching system.
MAX_CONDITION = 1e9


class IllConditionedMatching(RuntimeError):
    """Basis matching produced an unusable linear system (too few terms?)."""


def _h12(params: Params) -> float:
    """The degenerate weight ``h_{1,2} = 3/(4p) - 1/2`` as a float."""
    return 3.0 / (4.0 * params.p) - 0.5


def _hyp_series_coeffs(a: float, b: float, c: float) -> List[float]:
    """First ``N_TERMS`` Taylor coefficients of ``2F1(a, b; c; x)``."""
    out = [1.0]
    for k in range(N_TERMS - 1):
        out.append(out[k] * (k + a) * (k + b) / ((k + c) * (k + 1)))
    return out


def _log_companion_coeffs(base: List[float]) -> List[float]:
    """Repeated-root Frobenius series ``G`` for the ``p = 2`` log solution.

    With ``L[g] = x(1-x)g'' + (1-2x)g' - g/4`` (the ``p = 2`` hypergeometric
    form, halved) and ``g_2 = F ln x + G``, the series ``G = sum d_n x^n``
    with ``d_0 = 0`` satisfies ``L[G] = F - 2(1-x)F'``, i.e.

        ``d_{n+1} = ((n+1/2)^2 d_n + (2n+1) c_n - 2(n+1) c_{n+1}) / (n+1)^2``.
    """
    d = [0.0]
    for n in range(len(base) - 1):
        d.append(
            ((n + 0.5) ** 2 * d[n] + (2 * n + 1) * base[n] - 2 * (n + 1) * base[n + 1])
            / (n + 1) ** 2
        )
    return d


def _dot(x: List[float], y: List[float]) -> float:
    """Left-to-right ``sum(a * b)`` from 0.0: Python 3.12's ``sum`` of floats
    is compensated, and the plain loop keeps every bit the same on 3.10+."""
    acc = 0.0
    for a, b in zip(x, y):
        acc += a * b
    return acc


def _poly_eval(c: Tuple[float, ...], u: float) -> float:
    """Horner evaluation of ``c``, highest degree first."""
    acc = 0.0
    for v in c:
        acc = acc * u + v
    return acc


def _times_power(
    e_near: float, e_far: float, u: float, up: float, s0: float, s1: float, s2: float
) -> Tuple[float, float, float]:
    """Value and x-derivatives of ``u^{e_near} (1-u)^{e_far} S``.

    ``u`` is ``x`` (``up = 1``) or ``1 - x`` (``up = -1``); ``s0, s1, s2``
    are ``S`` and its first two x-derivatives at the same point.
    """
    v = 1.0 - u
    w = u**e_near * v**e_far
    wl = up * (e_near / u - e_far / v)  # (log w)'
    dwl = -(e_near / u**2 + e_far / v**2)  # (log w)''
    return (
        w * s0,
        w * (wl * s0 + s1),
        w * ((wl * wl + dwl) * s0 + 2.0 * wl * s1 + s2),
    )


class _Component(NamedTuple):
    """One additive piece ``u^{e_near} v^{e_far} S(u) (ln u + log_const)^m``.

    ``u`` is the local coordinate at the expansion point, ``v = 1 - u`` the
    coordinate at the other singular point; ``m`` is 0 when ``log_const`` is
    ``None`` and 1 otherwise.  ``series``, ``d1`` and ``d2`` hold the
    coefficients of ``S(u)``, ``S'(u)`` and ``S''(u)`` in Horner order
    (highest degree first); they are tuples because the phi and psi bases
    of one p share each component.
    """

    e_near: float
    e_far: float
    series: Tuple[float, ...]
    d1: Tuple[float, ...]
    d2: Tuple[float, ...]
    log_const: Optional[float]


def _component(
    e_near: float, e_far: float, coeffs: List[float], log_const: Optional[float] = None
) -> _Component:
    top = len(coeffs) - 1
    return _Component(
        e_near,
        e_far,
        tuple(coeffs[::-1]),
        tuple([coeffs[k] * k for k in range(top, 0, -1)]),
        tuple([coeffs[k] * k * (k - 1.0) for k in range(top, 1, -1)]),
        log_const,
    )


class FrobeniusSolution(NamedTuple):
    """A Frobenius solution of the degenerate-field ODE.

    The solution is the sum of its ``components`` around
    ``expansion_point`` (0 or 1); the ``p = 2`` logarithmic companion has
    two, one of them carrying the log.  :meth:`derivatives` supplies exact
    series derivatives for residual and matching work.
    """

    expansion_point: int
    components: Tuple[_Component, ...]

    def derivatives(self, x: float) -> Tuple[float, float, float]:
        """Value, first and second derivative at ``x`` in ``(0, 1)``."""
        if not 0.0 < x < 1.0:
            raise ValueError(f"solutions are evaluated inside (0, 1), got x={x}")
        if self.expansion_point == 0:
            u, up = x, 1.0
        else:
            u, up = 1.0 - x, -1.0
        f = fd1 = fd2 = 0.0
        for e_near, e_far, series, d1, d2, log_const in self.components:
            val, der, der2 = _times_power(
                e_near,
                e_far,
                u,
                up,
                _poly_eval(series, u),
                up * _poly_eval(d1, u),  # dS/dx
                _poly_eval(d2, u),  # d2S/dx2 (up^2 = 1)
            )
            if log_const is None:
                f += val
                fd1 += der
                fd2 += der2
            else:
                lg = math.log(u) + log_const
                lg1 = up / u
                lg2 = -1.0 / u**2
                f += val * lg
                fd1 += der * lg + val * lg1
                fd2 += der2 * lg + 2.0 * der * lg1 + val * lg2
        return f, fd1, fd2


_Basis = Tuple[FrobeniusSolution, FrobeniusSolution]
#: ``(f, f', f'')`` of one basis function at each of ``MATCH_POINTS``.
_MatchValues = Tuple[Tuple[float, float, float], ...]


class _PerP(NamedTuple):
    phi: _Basis
    psi: _Basis
    # [0] phi, [1] psi; then one entry per basis function
    at_match: Tuple[Tuple[_MatchValues, ...], ...]


@lru_cache(maxsize=1)
def _frobenius(p: int) -> _PerP:
    """Both bases for one p, sharing their components, and their match values."""
    e = 1.0 / (2.0 * p)
    if p >= 3:
        ca = _hyp_series_coeffs(1.0 / p, 3.0 / p - 1.0, 2.0 / p)
        cb = _hyp_series_coeffs(1.0 - 1.0 / p, 1.0 / p, 2.0 - 2.0 / p)
        e2 = 1.0 - 3.0 / (2.0 * p)
        components = ((_component(e, e, ca),), (_component(e2, e, cb),))
    else:
        ca = _hyp_series_coeffs(0.5, 0.5, 1.0)
        cg = _log_companion_coeffs(ca)
        log_part = _component(e, e, ca, log_const=-math.log(4.0))
        components = ((_component(e, e, ca),), (log_part, _component(e, e, cg)))
    phi = tuple(FrobeniusSolution(0, c) for c in components)
    psi = tuple(FrobeniusSolution(1, c) for c in components)
    at_match = tuple(
        tuple(tuple(f.derivatives(x) for x in MATCH_POINTS) for f in basis)
        for basis in (phi, psi)
    )
    return _PerP(phi, psi, at_match)


def phi_basis(params: Params) -> _Basis:
    """Solution basis ``(phi_1, phi_2)`` expanded at ``x = 0``."""
    return _frobenius(params.p).phi


def psi_basis(params: Params) -> _Basis:
    """Solution basis ``(psi_1, psi_2)`` expanded at ``x = 1`` (mirror of phi)."""
    return _frobenius(params.p).psi


def residuals(params: Params, f: FrobeniusSolution, x: float) -> Tuple[float, float]:
    """The ODE and hypergeometric residuals of ``f`` at ``x``, from one evaluation.

    The first is ``p x(1-x) f'' + (1-2x) f' - h_{1,2}/(x(1-x)) f``.  The
    second forms ``g = x^{-1/2p} (1-x)^{-1/2p} f`` and returns
    ``p x(1-x) g'' + 2(1-2x) g' + (1 - 3/p) g``; small values witness that
    the substitution maps ODE solutions to hypergeometric ones.  ``x`` must
    stay at least ``1e-6`` away from the singular points.
    """
    if not 1e-6 <= x <= 1 - 1e-6:
        raise ValueError(f"x must stay away from the singular points, got {x}")
    f0, f1, f2 = derivs = f.derivatives(x)
    p = params.p
    a = 1.0 / (2.0 * p)
    g0, g1, g2 = _times_power(-a, -a, x, 1.0, *derivs)
    return (
        p * x * (1 - x) * f2 + (1 - 2 * x) * f1 - _h12(params) / (x * (1 - x)) * f0,
        p * x * (1 - x) * g2 + 2 * (1 - 2 * x) * g1 + (1 - 3.0 / p) * g0,
    )


class ConnectionMatrix(NamedTuple):
    """Change of basis between the two solution bases.

    ``matrix[i][k]`` is the coefficient of ``psi_{k+1}`` in ``phi_{i+1}``
    (or of ``phi`` in ``psi`` when built in the reverse direction; by the
    ``x -> 1-x`` symmetry the exact matrix is an involution, so the two
    directions coincide).  ``condition`` reports the conditioning of the
    numeric matching system (its 2-norm condition number); it is ``None``
    for closed-form matrices.
    """

    matrix: Tuple[Tuple[float, float], Tuple[float, float]]
    condition: Optional[float] = None


def connection_closed(params: Params) -> ConnectionMatrix:
    """Closed-form connection matrix expressing the phi basis in the psi basis.

    For ``p >= 3``, with ``G`` the Euler gamma function,

        ``phi_1 = a psi_1 + b psi_2``,  ``a = 1/(2 cos(pi/p))``,
        ``b = (3-p)/(2-p) * G(2/p)^2 / (G(1/p) G(3/p))``,
        ``phi_2 = d1 psi_1 - a psi_2``,
        ``d1 = G(2-2/p) G(1-2/p) / (G(1-1/p) G(2-3/p))``

    (at ``p = 3`` the ``b`` coefficient vanishes, so ``phi_1 = psi_1``).
    For ``p = 2`` the first row is ``(ln4/pi, -1/pi)`` and the second row
    follows from the ``x -> 1-x`` symmetry, which forces the matrix to be
    an involution.
    """
    p = params.p
    if p == 2:
        a = math.log(4.0) / math.pi
        b = -1.0 / math.pi
        d1 = (1.0 - a * a) / b
    else:
        a = 1.0 / (2.0 * math.cos(math.pi / p))
        b = (
            (3.0 - p)
            / (2.0 - p)
            * math.gamma(2.0 / p) ** 2
            / (math.gamma(1.0 / p) * math.gamma(3.0 / p))
        )
        d1 = (
            math.gamma(2.0 - 2.0 / p)
            * math.gamma(1.0 - 2.0 / p)
            / (math.gamma(1.0 - 1.0 / p) * math.gamma(2.0 - 3.0 / p))
        )
    return ConnectionMatrix(((a, b), (d1, -a)))


def connection_numeric(params: Params, reverse: bool = False) -> ConnectionMatrix:
    """Connection matrix recovered by matching the bases on the overlap.

    Evaluates values and first derivatives of both bases at
    ``MATCH_POINTS`` and solves the resulting least-squares system for each
    row.  Raises :class:`IllConditionedMatching` when the matching system's
    condition number exceeds ``MAX_CONDITION``.

    With ``reverse=True`` the roles are swapped and the psi basis is
    expressed in the phi basis.
    """
    phis, psis = _frobenius(params.p).at_match
    source, target = (psis, phis) if not reverse else (phis, psis)

    def column(f: _MatchValues) -> List[float]:
        # value, then first derivative, at each match point in turn
        return [v for triple in f for v in triple[:2]]

    # thin QR of the 4x2 system A = [a1 a2] = [q1 q2] R by Gram-Schmidt
    a1, a2 = (column(f) for f in source)
    r11 = math.hypot(*a1)
    q1 = [v / r11 for v in a1] if r11 else a1  # a zero column gives det = 0
    r12 = _dot(q1, a2)
    w = [v - r12 * q for v, q in zip(a2, q1)]
    r22 = math.hypot(*w)
    # the identities for sigma_max sigma_min and sigma_max^2 + sigma_min^2
    # give sigma_max +- sigma_min = hypot(r11 +- r22, r12)
    sigma_max = 0.5 * (math.hypot(r11 + r22, r12) + math.hypot(r11 - r22, r12))
    det = r11 * r22
    cond = sigma_max * sigma_max / det if det else math.inf
    if not math.isfinite(cond) or cond > MAX_CONDITION:
        raise IllConditionedMatching(f"matching system condition {cond:.3e}")
    q2 = [v / r22 for v in w]
    matrix = []
    for f in target:
        b = column(f)
        y1 = _dot(q1, b)
        # take q2's part of b after removing q1's (modified Gram-Schmidt):
        # reading q2 . b directly loses accuracy like the normal equations
        y2 = _dot(q2, [v - y1 * q for v, q in zip(b, q1)])
        c2 = y2 / r22
        matrix.append(((y1 - r12 * c2) / r11, c2))
    return ConnectionMatrix((matrix[0], matrix[1]), condition=cond)


def rigidity_coefficient(params: Params) -> float:
    """The non-vanishing coefficient underlying rigidity of ``M_{1,2}``.

    Read from the matrix :func:`connection_numeric` computes.  For
    ``p >= 4`` this is ``|c_2/d|``, entry ``(0, 0)``, which is
    ``1/(2 cos(pi/p))`` in closed form.  For ``p = 2`` it is entry
    ``(0, 1)``, ``1/pi`` in closed form.  For ``p = 3`` entry ``(0, 1)``
    vanishes and the argument instead needs ``psi_1, psi_2`` linearly
    independent, so the returned witness is the absolute Wronskian
    ``|psi_1 psi_2' - psi_1' psi_2|`` at ``MATCH_POINTS[0] = 0.6``.  Positive,
    and well above the ``1e-10`` nondegeneracy floor, whenever the bases are right.
    """
    p = params.p
    if p == 3:
        (f0, f1, _), (g0, g1, _) = (psi[0] for psi in _frobenius(p).at_match[1])
        return abs(f0 * g1 - f1 * g0)
    row = connection_numeric(params).matrix[0]
    return abs(row[1] if p == 2 else row[0])
