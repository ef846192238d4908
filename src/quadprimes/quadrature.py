"""kappa's integrator: the bisection and extrapolation of QUADPACK's QAGS.

QAGS is ``dqagse`` of Piessens, de Doncker-Kapenga, Ueberhuber and Kahaner,
*QUADPACK* (Springer, 1983). This module keeps the two parts that set the
value of kappa, the integral of sqrt(1 - t**4) over [0, 1]: ``dqk21``, the
21-point Gauss-Kronrod rule, and ``dqelg``, Wynn's epsilon algorithm (MTAC
10, 1956), which extrapolates past the singularity at t = 1. Both do every
floating-point operation of the Fortran in its order, and the bisection
loop takes dqagse's path on that integral, so kappa has the bits of
``scipy.integrate.quad`` at epsabs = epsrel = 1e-13. Arrays keep Fortran's
1-based indices: element 0 is unused.
"""

from __future__ import annotations

import sys
from typing import Callable

# d1mach(4), d1mach(1), d1mach(2): relative spacing, smallest normal and
# largest finite double.
_EPMACH = sys.float_info.epsilon
_UFLOW = sys.float_info.min
_OFLOW = sys.float_info.max

# The 21-point Kronrod rule and its embedded 10-point Gauss rule: QUADPACK's
# 33-digit constants, as the doubles they round to. XGK[2], XGK[4], ...,
# XGK[10] are the Gauss nodes, with weights WG[1..5]; XGK[11] is the centre.
_XGK = (None,
        0.9956571630258081, 0.9739065285171717, 0.9301574913557082,
        0.8650633666889845, 0.7808177265864169, 0.6794095682990244,
        0.5627571346686047, 0.4333953941292472, 0.2943928627014602,
        0.14887433898163122, 0.0)
_WGK = (None,
        0.011694638867371874, 0.032558162307964725, 0.054755896574351995,
        0.07503967481091996, 0.0931254545836976, 0.10938715880229764,
        0.12349197626206584, 0.13470921731147334, 0.14277593857706009,
        0.14773910490133849, 0.1494455540029169)
_WG = (None,
       0.06667134430868814, 0.1494513491505806, 0.21908636251598204,
       0.26926671930999635, 0.29552422471475287)


def _dqk21(f: Callable[[float], float], a: float, b: float):
    """The 21-point Kronrod estimate over [a, b]: (result, abserr, resabs,
    resasc), where resabs approximates the integral of |f| and resasc that
    of |f - mean|."""
    centr = 0.5 * (a + b)
    hlgth = 0.5 * (b - a)
    dhlgth = abs(hlgth)
    fv1 = [0.0] * 11
    fv2 = [0.0] * 11
    # The 10-point Gauss rule has no centre node, so resg starts at zero.
    resg = 0.0
    fc = f(centr)
    resk = _WGK[11] * fc
    resabs = abs(resk)
    for j in range(1, 6):
        jtw = 2 * j
        absc = hlgth * _XGK[jtw]
        fval1 = f(centr - absc)
        fval2 = f(centr + absc)
        fv1[jtw] = fval1
        fv2[jtw] = fval2
        fsum = fval1 + fval2
        resg = resg + _WG[j] * fsum
        resk = resk + _WGK[jtw] * fsum
        resabs = resabs + _WGK[jtw] * (abs(fval1) + abs(fval2))
    for j in range(1, 6):
        jtwm1 = 2 * j - 1
        absc = hlgth * _XGK[jtwm1]
        fval1 = f(centr - absc)
        fval2 = f(centr + absc)
        fv1[jtwm1] = fval1
        fv2[jtwm1] = fval2
        fsum = fval1 + fval2
        resk = resk + _WGK[jtwm1] * fsum
        resabs = resabs + _WGK[jtwm1] * (abs(fval1) + abs(fval2))
    reskh = resk * 0.5
    resasc = _WGK[11] * abs(fc - reskh)
    for j in range(1, 11):
        resasc = resasc + _WGK[j] * (abs(fv1[j] - reskh) + abs(fv2[j] - reskh))
    result = resk * hlgth
    resabs = resabs * dhlgth
    resasc = resasc * dhlgth
    abserr = abs((resk - resg) * hlgth)
    if resasc != 0.0 and abserr != 0.0:
        abserr = resasc * min(1.0, (200.0 * abserr / resasc) ** 1.5)
    if resabs > _UFLOW / (50.0 * _EPMACH):
        abserr = max((_EPMACH * 50.0) * resabs, abserr)
    return result, abserr, resabs, resasc


# The tolerance, absolute and relative, and the most bisections.
_TOL = 1e-13
_BISECTIONS = 50


def _dqelg(epstab: list, n: int, res3la: list, nres: int):
    """dqelg: (n, limit, error estimate) of the sums epstab[1..n] by the
    epsilon algorithm, for its nres-th call. The table and the last three
    results res3la[1..3] change in place, and the table's length becomes n.
    """
    if n < 3:  # the table was cut to one sum
        return n, epstab[n], _OFLOW
    num = n
    abserr = _OFLOW
    result = epstab[n + 2] = epstab[n]
    newelm = (n - 1) // 2
    epstab[n] = _OFLOW
    k1 = n
    for i in range(1, newelm + 1):
        e0, e1, e2 = epstab[k1 - 2], epstab[k1 - 1], epstab[k1 + 2]
        delta2 = e2 - e1
        err2 = abs(delta2)
        tol2 = max(abs(e2), abs(e1)) * _EPMACH
        delta3 = e1 - e0
        err3 = abs(delta3)
        tol3 = max(abs(e1), abs(e0)) * _EPMACH
        if not (err2 > tol2 or err3 > tol3):
            # e0, e1 and e2 agree to machine accuracy.
            return num, e2, max(err2 + err3, 5.0 * _EPMACH * abs(e2))
        e3 = epstab[k1]
        epstab[k1] = e1
        delta1 = e1 - e3
        err1 = abs(delta1)
        tol1 = max(abs(e1), abs(e3)) * _EPMACH
        # Two close elements, or irregular behaviour: drop the part of the
        # table from here on.
        if err1 <= tol1 or err2 <= tol2 or err3 <= tol3:
            n = i + i - 1
            break
        ss = 1.0 / delta1 + 1.0 / delta2 - 1.0 / delta3
        if not abs(ss * e1) > 1e-4:
            n = i + i - 1
            break
        res = e1 + 1.0 / ss
        epstab[k1] = res
        k1 -= 2
        error = err2 + abs(res - e2) + err3
        if error <= abserr:
            abserr = error
            result = res
    # Shift the table to its lower diagonal, and truncate it to n.
    for ib in range(2 - num % 2, 2 - num % 2 + 2 * newelm + 1, 2):
        epstab[ib] = epstab[ib + 2]
    epstab[1:n + 1] = epstab[num - n + 1:num + 1]
    # The error is rated by the distance to the last three results.
    if nres < 4:
        res3la[nres] = result
        abserr = _OFLOW
    else:
        abserr = (abs(result - res3la[3]) + abs(result - res3la[2])
                  + abs(result - res3la[1]))
        res3la[1:] = res3la[2], res3la[3], result
    return n, result, max(abserr, 5.0 * _EPMACH * abs(result))


def _integrate(f: Callable[[float], float], a: float, b: float) -> float:
    """The integral of f over [a, b]: bisect the subinterval with the largest
    error estimate, extrapolate the sums from the second bisection on, and
    return the extrapolation with the smallest error estimate once that is
    within max(1e-13, 1e-13 |value|). ArithmeticError after 50 bisections.

    This serves kappa's bounded integrand. It has none of dqagse's tests
    for roundoff, bad behaviour at a point or divergence: on the divergent
    integral of t**-1.5 over [0, 1] it returns -2."""
    area, error, _, _ = _dqk21(f, a, b)
    # The subintervals: (left end, right end, sum, error estimate).
    parts = [(a, b, area, error)]
    # dqelg's table: the first rule's sum, one per bisection, and two cells
    # it writes past the end.
    epstab = [0.0] * (_BISECTIONS + 4)
    epstab[1] = area
    n = 1
    res3la = [0.0] * 4
    result, abserr = area, _OFLOW
    for bisection in range(_BISECTIONS):
        i = max(range(len(parts)), key=lambda j: parts[j][3])
        a1, b2, old, _ = parts[i]
        b1 = 0.5 * (a1 + b2)
        area1, error1, _, _ = _dqk21(f, a1, b1)
        area2, error2, _, _ = _dqk21(f, b1, b2)
        # The new pair comes in before the old part leaves, as in dqagse:
        # the bits depend on this order.
        area = area + (area1 + area2) - old
        parts[i] = (a1, b1, area1, error1)
        parts.append((b1, b2, area2, error2))
        n += 1
        epstab[n] = area
        if bisection == 0:
            continue
        n, reseps, abseps = _dqelg(epstab, n, res3la, bisection)
        if abseps < abserr:
            result, abserr = reseps, abseps
            if abserr <= max(_TOL, _TOL * abs(result)):
                return result
    raise ArithmeticError(f"no convergence in {_BISECTIONS} bisections: "
                          f"{result!r}, error estimate {abserr!r}")
