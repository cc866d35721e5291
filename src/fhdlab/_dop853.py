"""DOP853 for the shooting route: the profile ODE y'' = accel(y) in floats.

The explicit Runge-Kutta pair of order 8(5,3) of Hairer, Norsett & Wanner,
*Solving ODEs I*, section II.10, as ``scipy.integrate.DOP853`` runs it:
its tableau (``scipy.integrate._ivp.dop853_coefficients``, bit for
bit), initial-step rule, step-size controller (safety 0.9, step ratio in
[0.2, 10], exponent -1/8) and error norm, the 7th-degree dense output from
three extra stages, and Brent's method to 4 eps for the terminal events.
The state (y, y') has two components, so each step is a few hundred float
operations; in NumPy, per-call overhead on 2-element arrays would cost more
than the arithmetic. ``profiles`` imports this module when it first shoots
a profile, so a command that never shoots does not load it.

Row i of ``A`` combines stages 0..i-1 into stage i. Stages 0-11 make the
step; row 12 is the 8th-order solution, and its stage, f at the end of the
step, is stage 0 of the next one. ``E5`` and ``E3`` are the 5th- and
3rd-order error estimators; stages 13-15 with ``D`` give the dense output.
"""

from __future__ import annotations

import math

from .core import NumericalError

A = (
    (),
    (0.05260015195876773,),
    (0.0197250569845379, 0.0591751709536137),
    (0.02958758547680685, 0.0, 0.08876275643042054),
    (0.2413651341592667, 0.0, -0.8845494793282861, 0.924834003261792),
    (0.037037037037037035, 0.0, 0.0, 0.17082860872947386, 0.12546768756682242),
    (0.037109375, 0.0, 0.0, 0.17025221101954405, 0.06021653898045596, -0.017578125),
    (0.03709200011850479, 0.0, 0.0, 0.17038392571223998, 0.10726203044637328,
     -0.015319437748624402, 0.008273789163814023),
    (0.6241109587160757, 0.0, 0.0, -3.3608926294469414, -0.868219346841726,
     27.59209969944671, 20.154067550477894, -43.48988418106996),
    (0.47766253643826434, 0.0, 0.0, -2.4881146199716677, -0.590290826836843,
     21.230051448181193, 15.279233632882423, -33.28821096898486,
     -0.020331201708508627),
    (-0.9371424300859873, 0.0, 0.0, 5.186372428844064, 1.0914373489967295,
     -8.149787010746927, -18.52006565999696, 22.739487099350505, 2.4936055526796523,
     -3.0467644718982196),
    (2.273310147516538, 0.0, 0.0, -10.53449546673725, -2.0008720582248625,
     -17.9589318631188, 27.94888452941996, -2.8589982771350235, -8.87285693353063,
     12.360567175794303, 0.6433927460157636),
    (0.054293734116568765, 0.0, 0.0, 0.0, 0.0, 4.450312892752409,
     1.8915178993145003, -5.801203960010585, 0.3111643669578199,
     -0.1521609496625161, 0.20136540080403034, 0.04471061572777259),
    (0.056167502283047954, 0.0, 0.0, 0.0, 0.0, 0.0, 0.25350021021662483,
     -0.2462390374708025, -0.12419142326381637, 0.15329179827876568,
     0.00820105229563469, 0.007567897660545699, -0.008298),
    (0.03183464816350214, 0.0, 0.0, 0.0, 0.0, 0.028300909672366776,
     0.053541988307438566, -0.05492374857139099, 0.0, 0.0, -0.00010834732869724932,
     0.0003825710908356584, -0.00034046500868740456, 0.1413124436746325),
    (-0.42889630158379194, 0.0, 0.0, 0.0, 0.0, -4.697621415361164,
     7.683421196062599, 4.06898981839711, 0.3567271874552811, 0.0, 0.0, 0.0,
     -0.0013990241651590145, 2.9475147891527724, -9.15095847217987),
)
C = (
    0.0, 0.05260015195876773, 0.0789002279381516, 0.1183503419072274,
    0.2816496580927726, 0.3333333333333333, 0.25, 0.3076923076923077,
    0.6512820512820513, 0.6, 0.8571428571428571, 1.0, 1.0, 0.1, 0.2,
    0.7777777777777778,
)
E3 = (
    -0.18980075407240762, 0.0, 0.0, 0.0, 0.0, 4.450312892752409, 1.8915178993145003,
    -5.801203960010585, -0.4226823213237919, -0.1521609496625161,
    0.20136540080403034, 0.02265179219836082, 0.0,
)
E5 = (
    0.01312004499419488, 0.0, 0.0, 0.0, 0.0, -1.2251564463762044,
    -0.4957589496572502, 1.6643771824549864, -0.35032884874997366,
    0.3341791187130175, 0.08192320648511571, -0.022355307863886294, 0.0,
)
D = (
    (-8.428938276109013, 0.0, 0.0, 0.0, 0.0, 0.5667149535193777,
     -3.0689499459498917, 2.38466765651207, 2.117034582445028, -0.871391583777973,
     2.2404374302607883, 0.6315787787694688, -0.08899033645133331,
     18.148505520854727, -9.194632392478356, -4.436036387594894),
    (10.427508642579134, 0.0, 0.0, 0.0, 0.0, 242.28349177525817, 165.20045171727028,
     -374.5467547226902, -22.113666853125306, 7.733432668472264,
     -30.674084731089398, -9.332130526430229, 15.697238121770845,
     -31.139403219565178, -9.35292435884448, 35.81684148639408),
    (19.985053242002433, 0.0, 0.0, 0.0, 0.0, -387.0373087493518,
     -189.17813819516758, 527.8081592054236, -11.57390253995963, 6.8812326946963,
     -1.0006050966910838, 0.7777137798053443, -2.778205752353508,
     -60.19669523126412, 84.32040550667716, 11.99229113618279),
    (-25.69393346270375, 0.0, 0.0, 0.0, 0.0, -154.18974869023643,
     -231.5293791760455, 357.6391179106141, 93.40532418362432, -37.45832313645163,
     104.0996495089623, 29.8402934266605, -43.53345659001114, 96.32455395918828,
     -39.17726167561544, -149.72683625798564),
)

SAFETY, MIN_FACTOR, MAX_FACTOR = 0.9, 0.2, 10.0
ERROR_EXPONENT = -1.0 / 8.0  # -1/(q + 1) for the 7th-order error estimate


def _nonzero(row) -> tuple:
    return tuple((j, a) for j, a in enumerate(row) if a)


_A_NZ = tuple(_nonzero(row) for row in A)
_E5_NZ, _E3_NZ = _nonzero(E5), _nonzero(E3)
_D_NZ = tuple(_nonzero(row) for row in D)


def _combine(pairs, kv, kp):
    """sum_j a_j k_j over the nonzero pairs (j, a_j), for v and for v'."""
    sv = sp = 0.0
    for j, a in pairs:
        sv += kv[j] * a
        sp += kp[j] * a
    return sv, sp


def _stage(accel, v, p, h, kv, kp, s):
    """Append stage s of the step from (v, p) to kv, kp; return its state."""
    dv, dp = _combine(_A_NZ[s], kv, kp)
    vs, ps = v + dv * h, p + dp * h
    kv.append(ps)
    kp.append(accel(vs))
    return vs, ps


def _rms(a: float, b: float) -> float:
    return math.sqrt(0.5 * (a * a + b * b))


def _initial_step(fp, xi_max, atol):
    """SciPy's ``select_initial_step`` (Hairer et al., section II.4) from
    (y, y') = (0, 0) with y'' = fp: the state's norm is 0, so the trial step
    is 1e-6 and leaves y'' at fp. d1 = |fp|/(sqrt(2) atol) is about 4e-5 or
    more for every admissible lambda, so SciPy's fallback for d1, d2 <=
    1e-15 cannot run."""
    h0 = min(1e-6, xi_max)
    d1, d2 = _rms(0.0, fp / atol), _rms(h0 * fp / atol, 0.0) / h0
    return min(100.0 * h0, (0.01 / max(d1, d2)) ** -ERROR_EXPONENT, xi_max)


def _error_norm(kv, kp, h, sv, sp) -> float:
    """SciPy's DOP853 error norm: the 5th-order estimate, damped by the 3rd."""
    e5v, e5p = _combine(_E5_NZ, kv, kp)
    e3v, e3p = _combine(_E3_NZ, kv, kp)
    e5v, e5p, e3v, e3p = e5v / sv, e5p / sp, e3v / sv, e3p / sp
    n5, n3 = e5v * e5v + e5p * e5p, e3v * e3v + e3p * e3p
    if n5 == 0.0 and n3 == 0.0:
        return 0.0
    return h * n5 / math.sqrt(2.0 * (n5 + 0.01 * n3))


def _dense_coefficients(y, y_new, k, h) -> tuple:
    """The 7 coefficients of one component's interpolant over a step.

    ``k`` holds the component's 16 stage derivatives: k[0] at the start of
    the step, k[12] at its end.
    """
    dy = y_new - y
    return (dy, h * k[0] - dy, 2.0 * dy - h * (k[12] + k[0]),
            *(h * sum(k[j] * a for j, a in row) for row in _D_NZ))


def interpolate(c, x):
    """Dense output minus its start value at x = (xi - start)/h in [0, 1].

    Works on floats and on arrays alike, in SciPy's order of operations.
    """
    y = 0.0
    for k in range(6, -1, -1):
        y = (y + c[k]) * (x if k % 2 == 0 else 1.0 - x)
    return y


def brentq(f, xa: float, xb: float) -> float:
    """Root of f bracketed by [xa, xb], to 4 eps absolute plus 4 eps relative.

    Brent's method as SciPy's ``brentq`` implements it: inverse quadratic
    or secant steps, a bisection whenever they would not shrink the bracket.
    """
    tol = 4.0 * math.ulp(1.0)
    xpre, xcur = xa, xb
    fpre, fcur = f(xpre), f(xcur)
    if fpre == 0.0:
        return xpre
    xblk = fblk = spre = scur = 0.0
    for _ in range(100):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = 0.5 * (tol + tol * abs(xcur))
        sbis = 0.5 * (xblk - xcur)
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # secant
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # inverse quadratic
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = (-fcur * (fblk * dblk - fpre * dpre)
                        / (dblk * dpre * (fblk - fpre)))
            if 2.0 * abs(stry) < min(abs(spre), 3.0 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0.0 else -delta)
        fcur = f(xcur)
    raise NumericalError("profile shooting could not locate the tail switch")


def dop853(accel, xi_max: float, y_stop: float, y_collapse: float,
           rtol: float, atol: float):
    """DOP853 on (y, y') with y'' = accel(y), from (0, 0) at xi = 0.

    The steps, the controller, the dense output and the events are those of
    ``scipy.integrate.DOP853`` at rtol and atol, with a terminal event on
    each of y_stop and y_collapse, in Python floats. The run stops at the
    root of y = y_stop on the step where y rises through it. Returns the
    accepted (xi, y, y') from xi = 0 to the end, one dense-output row per
    step and the number of rejected steps. Raises NumericalError when y
    falls through y_collapse, the step size underflows or the run reaches
    xi_max first.
    """
    t, v, p = 0.0, 0.0, 0.0
    fv, fp = p, accel(v)
    h_abs = _initial_step(fp, xi_max, atol)
    steps, dense, rejected = [(t, v, p)], [], 0
    while True:
        min_step = 10.0 * math.ulp(t)
        h_abs = max(h_abs, min_step)
        step_rejected = False
        while True:
            if h_abs < min_step:
                raise NumericalError(
                    "profile shooting failed: the required step size is less "
                    "than the spacing between numbers")
            t_new = min(t + h_abs, xi_max)
            h = h_abs = t_new - t
            kv, kp = [fv], [fp]
            for s in range(1, 13):
                v_new, p_new = _stage(accel, v, p, h, kv, kp, s)
            error = _error_norm(kv, kp, h, atol + max(abs(v), abs(v_new)) * rtol,
                                atol + max(abs(p), abs(p_new)) * rtol)
            if error < 1.0:
                factor = MAX_FACTOR if error == 0.0 else min(
                    MAX_FACTOR, SAFETY * error**ERROR_EXPONENT)
                if step_rejected:
                    factor = min(1.0, factor)
                h_abs *= factor
                break
            h_abs *= max(MIN_FACTOR, SAFETY * error**ERROR_EXPONENT)
            step_rejected = True
            rejected += 1
        for s in range(13, 16):
            _stage(accel, v, p, h, kv, kp, s)
        cv = _dense_coefficients(v, v_new, kv, h)
        dense.append((t, h, v, *cv))
        if v >= y_collapse >= v_new:
            raise NumericalError(
                "profile shooting collapsed toward v = 0; parameters or "
                "tolerances are inconsistent"
            )
        if v <= y_stop <= v_new:
            root = brentq(lambda xi: interpolate(cv, (xi - t) / h) + v - y_stop,
                          t, t_new)
            x = (root - t) / h
            cp = _dense_coefficients(p, p_new, kp, h)
            steps.append((root, interpolate(cv, x) + v, interpolate(cp, x) + p))
            return steps, dense, rejected
        steps.append((t_new, v_new, p_new))
        if t_new >= xi_max:
            raise NumericalError(
                f"profile shooting reached xi = {xi_max:g} before the tail switch: "
                "the orbit did not relax to v0 in the window")
        t, v, p, fv, fp = t_new, v_new, p_new, kv[12], kp[12]
