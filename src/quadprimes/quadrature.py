"""Adaptive quadrature on a finite interval: a port of QUADPACK's QAGS.

QAGS is the routine ``dqagse`` of Piessens, de Doncker-Kapenga, Ueberhuber
and Kahaner, *QUADPACK* (Springer, 1983), with its helpers ``dqk21`` (the
21-point Gauss-Kronrod rule), ``dqpsrt`` (the ordered error list) and
``dqelg`` (the epsilon algorithm). It bisects the subinterval with the
largest error estimate and extrapolates the sequence of sums, so it handles
end-point singularities such as that of sqrt(1 - t**4) at t = 1.

The port does every floating-point operation of the Fortran in the same
order, so it returns the same bits as ``scipy.integrate.quad`` on a finite
interval. Arrays keep Fortran's 1-based indices: element 0 is unused.
"""

from __future__ import annotations

import sys
from typing import Callable, NamedTuple

# d1mach(4), d1mach(1), d1mach(2): relative spacing, smallest normal and
# largest finite double.
_EPMACH = sys.float_info.epsilon
_UFLOW = sys.float_info.min
_OFLOW = sys.float_info.max

# The 21-point Kronrod rule and its embedded 10-point Gauss rule, as printed
# in QUADPACK. XGK[2], XGK[4], ..., XGK[10] are the Gauss nodes, with weights
# WG[1..5]; XGK[11] is the centre.
_XGK = (None,
        0.995657163025808080735527280689003,
        0.973906528517171720077964012084452,
        0.930157491355708226001207180059508,
        0.865063366688984510732096688423493,
        0.780817726586416897063717578345042,
        0.679409568299024406234327365114874,
        0.562757134668604683339000099272694,
        0.433395394129247190799265943165784,
        0.294392862701460198131126603103866,
        0.148874338981631210884826001129720,
        0.000000000000000000000000000000000)
_WGK = (None,
        0.011694638867371874278064396062192,
        0.032558162307964727478818972459390,
        0.054755896574351996031381300244580,
        0.075039674810919952767043140916190,
        0.093125454583697605535065465083366,
        0.109387158802297641899210590325805,
        0.123491976262065851077208977617462,
        0.134709217311473325928054001771707,
        0.142775938577060080797094273138717,
        0.147739104901338491374841515972068,
        0.149445554002916905664936468389821)
_WG = (None,
       0.066671344308688137593568809893332,
       0.149451349150580593145776339657697,
       0.219086362515982043995534934228163,
       0.269266719309996355091226921569469,
       0.295524224714752870173892994651338)


class QagsResult(NamedTuple):
    """What dqagse returns: the integral, its error estimate, the number of
    integrand calls, the exit code ``ier`` and the number of subintervals.

    ier is 0 on success, 1 when ``limit`` subintervals were used, 2 on
    roundoff, 3 on bad integrand behaviour at a point, 4 when extrapolation
    did not converge, 5 when the integral is probably divergent and 6 on
    invalid tolerances."""

    value: float
    abserr: float
    neval: int
    ier: int
    last: int


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


def _dqpsrt(limit: int, last: int, maxerr: int, elist: list, iord: list,
            nrmax: int):
    """Keep iord[1..] listing the subintervals by descending error after the
    one at maxerr was split into maxerr and last; return the next (maxerr,
    errmax, nrmax)."""
    if last <= 2:
        iord[1] = 1
        iord[2] = 2
    else:
        # Subdivision can raise the error estimate: move maxerr up past
        # smaller entries first.
        errmax = elist[maxerr]
        for _ in range(nrmax - 1):
            isucc = iord[nrmax - 1]
            if errmax <= elist[isucc]:
                break
            iord[nrmax] = isucc
            nrmax -= 1
        # Only the first jupbn entries are kept in order: the rest can never
        # be bisected within the limit.
        jupbn = last
        if last > limit // 2 + 2:
            jupbn = limit + 3 - last
        errmin = elist[last]
        # Insert errmax top-down, then errmin bottom-up.
        jbnd = jupbn - 1
        ibeg = nrmax + 1
        for i in range(ibeg, jbnd + 1):
            isucc = iord[i]
            if errmax >= elist[isucc]:
                iord[i - 1] = maxerr
                k = jbnd
                for _ in range(i, jbnd + 1):
                    isucc = iord[k]
                    if errmin < elist[isucc]:
                        iord[k + 1] = last
                        break
                    iord[k + 1] = isucc
                    k -= 1
                else:
                    iord[i] = last
                break
            iord[i - 1] = isucc
        else:
            iord[jbnd] = maxerr
            iord[jupbn] = last
    maxerr = iord[nrmax]
    return maxerr, elist[maxerr], nrmax


class _Epsilon:
    """The epsilon-algorithm table of dqelg and the last three results,
    which dqelg keeps across calls."""

    def __init__(self):
        self.epstab = [0.0] * 53  # rlist2(52), 1-based
        self.n = 0  # numrl2: the table's length, which dqelg rewrites
        self.res3la = [0.0] * 4
        self.nres = 0

    def extrapolate(self):
        """dqelg: the extrapolated limit of epstab[1..n] and its error."""
        epstab = self.epstab
        n = self.n
        self.nres += 1
        abserr = _OFLOW
        result = epstab[n]
        if n >= 3:
            limexp = 50
            epstab[n + 2] = epstab[n]
            newelm = (n - 1) // 2
            epstab[n] = _OFLOW
            num = n
            k1 = n
            converged = False
            for i in range(1, newelm + 1):
                k2 = k1 - 1
                k3 = k1 - 2
                res = epstab[k1 + 2]
                e0 = epstab[k3]
                e1 = epstab[k2]
                e2 = res
                e1abs = abs(e1)
                delta2 = e2 - e1
                err2 = abs(delta2)
                tol2 = max(abs(e2), e1abs) * _EPMACH
                delta3 = e1 - e0
                err3 = abs(delta3)
                tol3 = max(e1abs, abs(e0)) * _EPMACH
                if not (err2 > tol2 or err3 > tol3):
                    # e0, e1 and e2 agree to machine accuracy.
                    result = res
                    abserr = err2 + err3
                    converged = True
                    break
                e3 = epstab[k1]
                epstab[k1] = e1
                delta1 = e1 - e3
                err1 = abs(delta1)
                tol1 = max(e1abs, abs(e3)) * _EPMACH
                # Two close elements, or irregular behaviour: drop the part
                # of the table from here on.
                if err1 <= tol1 or err2 <= tol2 or err3 <= tol3:
                    n = i + i - 1
                    break
                ss = 1.0 / delta1 + 1.0 / delta2 - 1.0 / delta3
                epsinf = abs(ss * e1)
                if not epsinf > 1e-4:
                    n = i + i - 1
                    break
                res = e1 + 1.0 / ss
                epstab[k1] = res
                k1 = k1 - 2
                error = err2 + abs(res - e2) + err3
                if error > abserr:
                    continue
                abserr = error
                result = res
            if not converged:
                # Shift the table.
                if n == limexp:
                    n = 2 * (limexp // 2) - 1
                ib = 2 if num % 2 == 0 else 1
                for _ in range(newelm + 1):
                    ib2 = ib + 2
                    epstab[ib] = epstab[ib2]
                    ib = ib2
                if num != n:
                    indx = num - n + 1
                    for i in range(1, n + 1):
                        epstab[i] = epstab[indx]
                        indx += 1
                res3la = self.res3la
                if self.nres < 4:
                    res3la[self.nres] = result
                    abserr = _OFLOW
                else:
                    abserr = (abs(result - res3la[3]) + abs(result - res3la[2])
                              + abs(result - res3la[1]))
                    res3la[1] = res3la[2]
                    res3la[2] = res3la[3]
                    res3la[3] = result
        self.n = n
        abserr = max(abserr, 5.0 * _EPMACH * abs(result))
        return result, abserr


def qags(f: Callable[[float], float], a: float, b: float, epsabs: float,
         epsrel: float, limit: int = 50) -> QagsResult:
    """The integral of f over [a, b] to within max(epsabs, epsrel |value|),
    using at most ``limit`` subintervals: QUADPACK's dqagse.

    f takes and returns a float. b < a is allowed and gives the negated
    integral. The result is bit-identical to ``scipy.integrate.quad(f, a, b,
    epsabs=epsabs, epsrel=epsrel, limit=limit)``; a nonzero ``ier`` is where
    quad would warn (or raise, for ier = 6).
    """
    if limit < 1:
        raise ValueError("limit must be at least 1")
    if epsabs <= 0.0 and epsrel < max(50.0 * _EPMACH, 0.5e-28):
        return QagsResult(0.0, 0.0, 0, 6, 0)
    a = float(a)
    b = float(b)
    alist = [0.0] * (limit + 1)
    blist = [0.0] * (limit + 1)
    rlist = [0.0] * (limit + 1)
    elist = [0.0] * (limit + 1)
    iord = [0] * (limit + 1)
    ier = 0
    alist[1] = a
    blist[1] = b

    # First approximation to the integral.
    ierro = 0
    result, abserr, defabs, resabs = _dqk21(f, a, b)
    dres = abs(result)
    errbnd = max(epsabs, epsrel * dres)
    last = 1
    rlist[1] = result
    elist[1] = abserr
    iord[1] = 1
    if abserr <= 100.0 * _EPMACH * defabs and abserr > errbnd:
        ier = 2
    if limit == 1:
        ier = 1
    if ier != 0 or (abserr <= errbnd and abserr != resabs) or abserr == 0.0:
        return QagsResult(result, abserr, 21, ier, last)

    eps = _Epsilon()
    rlist2 = eps.epstab
    rlist2[1] = result
    errmax = abserr
    maxerr = 1
    area = result
    errsum = abserr
    abserr = _OFLOW
    nrmax = 1
    eps.n = 2
    ktmin = 0
    extrap = False
    noext = False
    iroff1 = iroff2 = iroff3 = 0
    ksgn = -1
    if dres >= (1.0 - 50.0 * _EPMACH) * defabs:
        ksgn = 1
    correc = erlarg = ertest = small = 0.0

    # The main loop. Each pass bisects the subinterval with the nrmax-th
    # largest error estimate; every pass ends in a jump out of the loop by
    # the time last == limit, as ier is then 1.
    sum_rlist = False
    for last in range(2, limit + 1):
        a1 = alist[maxerr]
        b1 = 0.5 * (alist[maxerr] + blist[maxerr])
        a2 = b1
        b2 = blist[maxerr]
        erlast = errmax
        area1, error1, resabs, defab1 = _dqk21(f, a1, b1)
        area2, error2, resabs, defab2 = _dqk21(f, a2, b2)

        # Improve the previous approximations and test for accuracy.
        area12 = area1 + area2
        erro12 = error1 + error2
        errsum = errsum + erro12 - errmax
        area = area + area12 - rlist[maxerr]
        if not (defab1 == error1 or defab2 == error2):
            if not (abs(rlist[maxerr] - area12) > 1e-5 * abs(area12)
                    or erro12 < 0.99 * errmax):
                if extrap:
                    iroff2 += 1
                else:
                    iroff1 += 1
            if last > 10 and erro12 > errmax:
                iroff3 += 1
        rlist[maxerr] = area1
        rlist[last] = area2
        errbnd = max(epsabs, epsrel * abs(area))

        # Roundoff, the subdivision limit, and bad behaviour at a point.
        if iroff1 + iroff2 >= 10 or iroff3 >= 20:
            ier = 2
        if iroff2 >= 5:
            ierro = 3
        if last == limit:
            ier = 1
        if (max(abs(a1), abs(b2))
                <= (1.0 + 100.0 * _EPMACH) * (abs(a2) + 1000.0 * _UFLOW)):
            ier = 4

        # Append the new subintervals, the larger error at maxerr.
        if error2 > error1:
            alist[maxerr] = a2
            alist[last] = a1
            blist[last] = b1
            rlist[maxerr] = area2
            rlist[last] = area1
            elist[maxerr] = error2
            elist[last] = error1
        else:
            alist[last] = a2
            blist[maxerr] = b1
            blist[last] = b2
            elist[maxerr] = error1
            elist[last] = error2

        maxerr, errmax, nrmax = _dqpsrt(limit, last, maxerr, elist, iord,
                                        nrmax)
        if errsum <= errbnd:
            sum_rlist = True
            break
        if ier != 0:
            break
        if last == 2:
            small = abs(b - a) * 0.375
            erlarg = errsum
            ertest = errbnd
            rlist2[2] = area
            continue
        if noext:
            continue
        erlarg = erlarg - erlast
        if abs(b1 - a1) > small:
            erlarg = erlarg + erro12
        if not extrap:
            # Extrapolate only once the interval to bisect next is the
            # smallest one.
            if abs(blist[maxerr] - alist[maxerr]) > small:
                continue
            extrap = True
            nrmax = 2
        if not (ierro == 3 or erlarg <= ertest):
            # The smallest interval has the largest error: before bisecting,
            # bisect the larger intervals while erlarg exceeds ertest.
            jupbnd = last
            if last > 2 + limit // 2:
                jupbnd = limit + 3 - last
            larger = False
            for _ in range(nrmax, jupbnd + 1):
                maxerr = iord[nrmax]
                errmax = elist[maxerr]
                if abs(blist[maxerr] - alist[maxerr]) > small:
                    larger = True
                    break
                nrmax += 1
            if larger:
                continue

        # Extrapolate.
        eps.n += 1
        rlist2[eps.n] = area
        reseps, abseps = eps.extrapolate()
        ktmin += 1
        if ktmin > 5 and abserr < 1e-3 * errsum:
            ier = 5
        if not abseps >= abserr:
            ktmin = 0
            abserr = abseps
            result = reseps
            correc = erlarg
            ertest = max(epsabs, epsrel * abs(reseps))
            if abserr <= ertest:
                break

        # Prepare to bisect the smallest interval.
        if eps.n == 1:
            noext = True
        if ier == 5:
            break
        maxerr = iord[1]
        errmax = elist[maxerr]
        nrmax = 1
        extrap = False
        small = small * 0.5
        erlarg = errsum

    # The final result and error estimate: the sum over the subintervals
    # when no extrapolation succeeded, or when its relative error is the
    # larger one.
    if not sum_rlist and abserr == _OFLOW:
        sum_rlist = True
    elif not sum_rlist:
        test_divergence = True
        if ier + ierro != 0:
            if ierro == 3:
                abserr = abserr + correc
            if ier == 0:
                ier = 3
            if result != 0.0 and area != 0.0:
                sum_rlist = abserr / abs(result) > errsum / abs(area)
            elif abserr > errsum:
                sum_rlist = True
            elif area == 0.0:
                test_divergence = False
        if test_divergence and not sum_rlist and not (
                ksgn == -1 and max(abs(result), abs(area)) <= defabs * 0.01):
            # errsum > errbnd >= 0 here, so the first test is true when
            # area == 0, and the quotient is only taken where it exists.
            if (errsum > abs(area) or 0.01 > result / area
                    or result / area > 100.0):
                ier = 6
    if sum_rlist:
        # The sum of the subintervals' results, left to right.
        result = 0.0
        for k in range(1, last + 1):
            result = result + rlist[k]
        abserr = errsum
    if ier > 2:
        ier -= 1
    return QagsResult(result, abserr, 42 * last - 21, ier, last)

