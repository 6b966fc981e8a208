"""The homogeneous norm against an exact reference (ROADMAP item 13).

:class:`ExactNorm` solves ``|d(-s) y|_P = 1`` in mpmath at 40 digits from a
record's stored ``Gd``, ``X`` and ``T``, with ``P = d(-ln T)' X^{-1} d(-ln T)``
formed in that precision rather than taken from the float ``P`` that the
program solves with.  The orbit ``d(-s) y = V e^{-s w} V^{-1} y`` comes from
one mpmath eigenbasis of ``Gd`` per record, so no point needs a matrix
exponential.

The program may differ from the reference in two ways: its root-find stops
at the residual ``| |z|_P - 1 | <= 1e-12``, which moves ``s`` by up to
``1e-12 / |slope|`` with ``slope = z'P Gd z`` at the root, and its ``P`` is
rounded, which moves the root by the first-order amount ``u kappa(y)^2``
(unit roundoff ``u``, ``kappa(y)^2 = |y|_2^2 ||P|| / |y|_P^2``).  The
tolerance is the first plus :data:`C_KAPPA` times the second.  On the
oscillator, ``chain3``, ``rand3x2`` and ``rand5x2`` the first term alone
holds every gap; on ``rand6x1``'s state after one sample the gap is
``1.2 u kappa(y)^2``.

The feedback ``u = K0 y + r KT z``, with ``z = d(-ln s)(y / r)`` and the
exact ``KT = K d(-ln T)``, moves by ``|r KT Gd z|`` times the root's error,
to first order; its tolerance is the root's times that, plus
:data:`C_ROUND` ``u max(|K0||y| + r|KT||z|)`` for the rounding of the two
products and of the program's ``KT``.  The worst gap on the four records
is 0.81 of that tolerance (``rand5x2``).  The ``fixed_time`` floor, the
clamp and the zero state are checked exactly.  The dense mode records the
flow's own ``s = s0 - t/T``; the exact root of each recorded state, where
``s >= 0.1``, must agree with it to the root's tolerance, and a fixed law's
dense flow with ``mpmath.expm``.  The Jordan dilations of
``tests/test_dilation.py`` are not covered: the eigenbasis needs a
diagonalizable ``Gd``.
"""

import functools
import os

import mpmath
import numpy as np
import pytest

from homctl import (
    ControllerKind,
    LinearPlant,
    ScenarioConfig,
    SynthesisConfig,
    eval_control,
    load_controller,
    make_context,
    oscillator_controller,
    simulate,
    synthesize,
)
from homctl.dilation import _solve, _solve_rows

_RECORDS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench", "records")
DPS = 40
U = 2.0**-53
#: the multiple of u kappa(y)^2 that the rounded P may move the root by
C_KAPPA = 4.0
#: the multiple of u max(|K0||y| + r|KT||z|) that the rounding of the feedback's products, and of KT, may add
C_ROUND = 4.0
#: the feedbacks scheduled on the norm; the linear kind never solves it
HOMOGENEOUS = (ControllerKind.PRESCRIBED_TIME, ControllerKind.PRESCRIBED_TIME_ROBUST, ControllerKind.FIXED_TIME)


class ExactNorm:
    """``ln ||y||_d`` of a controller record, in mpmath at :data:`DPS` digits."""

    def __init__(self, ctrl):
        with mpmath.workdps(DPS):
            Gd = mpmath.matrix(ctrl.Gd.tolist())
            w, V = mpmath.eig(Gd)
            Vinv = mpmath.inverse(V)
            recon = V * mpmath.diag(w) * Vinv - Gd
            assert max(abs(v) for v in recon) < mpmath.mpf(10) ** (8 - DPS), "Gd is not diagonalizable in 40 digits"
            self.w, self.V, self.Vinv = w, V, Vinv
            DT = self._orbit(mpmath.log(mpmath.mpf(ctrl.T)), Vinv)
            self.P = DT.T * mpmath.inverse(mpmath.matrix(ctrl.X.tolist())) * DT
            self.PG = self.P * Gd
            self.K0, self.KT = mpmath.matrix(ctrl.K0.tolist()), mpmath.matrix(ctrl.K.tolist()) * DT
            self.KTG = self.KT * Gd
            self.P_norm = float(max(mpmath.eigsy(self.P, eigvals_only=True)))

    def _orbit(self, s, c):
        """``d(-s)`` applied through the eigenbasis to the eigen-coordinates ``c`` (a vector or a matrix)."""
        e = mpmath.diag([mpmath.exp(-s * wi) for wi in self.w])
        return (self.V * e * c).apply(mpmath.re)

    def root(self, y) -> tuple[mpmath.mpf, float, float]:
        """``(s, slope, kappa^2)``: ``s = ln ||y||_d`` for a nonzero float ``y``, Newton's method on ``ln|d(-s)y|_P``."""
        with mpmath.workdps(DPS):
            y = mpmath.matrix([float(v) for v in y])
            c = self.Vinv * y
            qy = (y.T * self.P * y)[0]
            s = mpmath.log(qy) / 2
            for _ in range(100):
                z = self._orbit(s, c)
                q, g = (z.T * self.P * z)[0], (z.T * self.PG * z)[0]
                step = mpmath.log(q) / 2 * q / g
                s += step
                if abs(step) < mpmath.mpf(10) ** (5 - DPS):
                    break
            else:
                raise AssertionError("the exact root-find did not converge")
            kappa2 = float((y.T * y)[0]) * self.P_norm / float(qy)
            return s, float(g), kappa2

    def feedback(self, y, r, s) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(u, r KT Gd z, z)`` at the root ``s = ln ||y / r||_d``: ``u = K0 y + r KT z``, ``z = d(-s)(y / r)``.

        ``-r KT Gd z`` is ``du/ds``, so a root that is off by ``ds`` moves
        ``u`` by ``|r KT Gd z| ds`` to first order.
        """
        with mpmath.workdps(DPS):
            y = mpmath.matrix([float(v) for v in y])
            z = self._orbit(s, self.Vinv * y / r)
            u = self.K0 * y + r * self.KT * z
            return tuple(np.array([float(v) for v in m]) for m in (u, r * self.KTG * z, z))


def _tolerance(slope: float, kappa2: float) -> float:
    return 1e-12 / abs(slope) + C_KAPPA * U * kappa2


@functools.cache
def _exact(name):
    ctrl = oscillator_controller() if name == "oscillator" else load_controller(os.path.join(_RECORDS, f"{name}.json"))
    return ctrl, ExactNorm(ctrl)


def _states(n, seed):
    """Two random directions at each magnitude 1e-3 .. 1e3, one per row."""
    rng = np.random.default_rng(seed)
    V = rng.standard_normal((14, n))
    return V / np.linalg.norm(V, axis=1)[:, None] * np.repeat(10.0 ** np.arange(-3, 4), 2)[:, None]


def _gap(s_exact, v):
    """``|s - ln v|`` in the reference's precision."""
    with mpmath.workdps(DPS):
        return abs(float(s_exact - mpmath.log(v)))


@pytest.mark.parametrize("name", ["oscillator", "chain3", "rand3x2", "rand5x2"])
def test_solve_and_solve_rows_agree_with_the_exact_root(name):
    ctrl, exact = _exact(name)
    D = ctrl.dilation
    Y = _states(ctrl.n, 7)
    with np.errstate(over="ignore", invalid="ignore"):
        rows = _solve_rows(D, Y)
        for y, v_rows in zip(Y, rows):
            s, slope, kappa2 = exact.root(y)
            tol = _tolerance(slope, kappa2)
            v = _solve(D, y)[0]
            assert _gap(s, v) <= tol, (y, _gap(s, v), tol)
            assert _gap(s, v_rows) <= tol, (y, _gap(s, v_rows), tol)
            # warm starts, as the sampled loop takes them: from either side
            for guess in (v * (1.0 + 1e-6), v * (1.0 - 1e-3), v * 1.5):
                w = _solve(D, y, guess)[0]
                assert _gap(s, w) <= tol, (y, guess, _gap(s, w), tol)


def _references(n):
    """Two references, one per side of the fixed_time floor: ``|x0|_P`` far below 1 and far above."""
    Y = _states(n, 7)
    return Y[0], Y[-1]


@pytest.mark.parametrize("name", ["oscillator", "chain3", "rand3x2", "rand5x2"])
def test_feedback_agrees_with_the_exact_feedback(name):
    # u = K0 y + r KT z with z = d(-ln s)(y / r), against the exact root's
    # point; the root's own tolerance moves u by that times |r KT Gd z|
    ctrl, exact = _exact(name)
    Y = _states(ctrl.n, 7)
    checked = 0
    for x0 in _references(ctrl.n):
        contexts = [make_context(ctrl, kind, x0) for kind in HOMOGENEOUS]
        for y in Y:
            exact_at = {}  # radius -> the exact root and feedback there; two kinds share r0
            for ctx in contexts:
                r = ctx.ref_norm
                if r not in exact_at:
                    s, slope, kappa2 = exact.root(y / r)
                    exact_at[r] = s, _tolerance(slope, kappa2), exact.feedback(y, r, s)
                s, tol_s, (u_exact, du, z) = exact_at[r]
                if s >= 0 and ctx.kind is not ControllerKind.PRESCRIBED_TIME:
                    continue  # the clamp runs the linear law: test_clamp_runs_the_linear_law
                u = eval_control(ctx, y)
                rounding = C_ROUND * U * np.max(np.abs(ctrl.K0) @ np.abs(y) + r * np.abs(ctrl.KT) @ np.abs(z))
                tol = tol_s * np.max(np.abs(du)) + rounding
                assert np.max(np.abs(u - u_exact)) <= tol, (ctx.kind, x0, y, u - u_exact, tol)
                checked += 1
    # every state under prescribed_time, and the clamped kinds below the clamp
    assert checked > 2 * len(Y)


@pytest.mark.parametrize("kind", [ControllerKind.PRESCRIBED_TIME_ROBUST, ControllerKind.FIXED_TIME],
                         ids=lambda k: k.value)
@pytest.mark.parametrize("name", ["oscillator", "chain3", "rand3x2", "rand5x2"])
def test_dense_s_column_agrees_with_the_exact_root(name, kind):
    # the recorded s is not solved from the recorded x: the exact root of
    # x / r checks the pair, at every 8th row where s >= 0.1 (nearer the
    # origin the root is ill-conditioned, ROADMAP item 17)
    ctrl, exact = _exact(name)
    x0 = 0.7 * np.eye(ctrl.n)[0]
    trace = simulate(ScenarioConfig(plant=LinearPlant(ctrl.A, ctrl.B), controller=ctrl, x0=x0, h=0.01,
                                    t_end=2 * ctrl.T, kind=kind, integrator="dense"))
    r = make_context(ctrl, kind, x0).ref_norm
    rows = np.nonzero(trace.s >= 0.1)[0][::8]
    assert len(rows) >= 9
    for x, v in zip(trace.x[rows], trace.s[rows]):
        s, slope, kappa2 = exact.root(x / r)
        assert _gap(s, v) <= _tolerance(slope, kappa2), (x, _gap(s, v), _tolerance(slope, kappa2))


@pytest.mark.parametrize("n", [5, 6])
def test_dense_fixed_law_flow_agrees_with_the_exact_exponential(n):
    # the linear kind's dense x against e^{tM} x0, M = A0 + B KT, in mpmath
    # at 6 grid points: |x - x_ref|_P is at most 3.5e-16 and 4.5e-16 of |x0|_P
    # on chains 5 and 6, where a flow on M's own ill-conditioned eigenbasis is
    # off by 4.3e-11 and 9.8e-9
    plant = LinearPlant(np.eye(n, k=1), np.eye(n)[:, -1:])
    ctrl = synthesize(plant, SynthesisConfig(T=1.0))
    x0 = 0.7 * np.eye(n)[0]
    trace = simulate(ScenarioConfig(plant=plant, controller=ctrl, x0=x0, h=0.01, t_end=3.0,
                                    kind=ControllerKind.LINEAR, integrator="dense"))
    rows = np.linspace(0, len(trace.t) - 1, 7).astype(int)[1:]
    with mpmath.workdps(DPS):
        M, x0m = mpmath.matrix((ctrl.A0 + ctrl.B @ ctrl.KT).tolist()), mpmath.matrix(x0.tolist())
        err = [[float(v) for v in mpmath.matrix(trace.x[i].tolist()) - mpmath.expm(float(trace.t[i]) * M) * x0m]
               for i in rows]
    rel = ctrl.dilation.norm(np.array(err)) / ctrl.dilation.norm(x0)
    assert np.all(rel <= 1e-13), rel


@pytest.mark.parametrize("name", ["oscillator", "chain3", "rand3x2", "rand5x2"])
def test_fixed_time_radius_is_the_norm_floored_at_one(name):
    ctrl, exact = _exact(name)
    with mpmath.workdps(DPS):
        # the program's P is formed in floats: up to 114 u of |P| off here (rand5x2, cond(X) = 2.3e3)
        dP = float(mpmath.mnorm(mpmath.matrix(ctrl.dilation.weight.tolist()) - exact.P, "f")) / exact.P_norm
    for x0 in _references(ctrl.n):
        r0 = make_context(ctrl, ControllerKind.PRESCRIBED_TIME, x0).r0
        with mpmath.workdps(DPS):
            x = mpmath.matrix(x0.tolist())
            q = (x.T * exact.P * x)[0]
            # |x0|_P from that P, to first order, plus the rounding of x'Px
            kappa2 = float((x.T * x)[0]) * exact.P_norm / float(q)
            assert abs(float(mpmath.sqrt(q) / r0 - 1)) <= (dP / 2 + C_KAPPA * U) * kappa2
        assert make_context(ctrl, ControllerKind.FIXED_TIME, x0).ref_norm == max(r0, 1.0)
        assert make_context(ctrl, ControllerKind.PRESCRIBED_TIME_ROBUST, x0).ref_norm == r0
    # one reference on each side of the floor
    assert [make_context(ctrl, ControllerKind.FIXED_TIME, x0).ref_norm == 1.0
            for x0 in _references(ctrl.n)] == [True, False]


@pytest.mark.parametrize("name", ["oscillator", "chain3", "rand3x2", "rand5x2"])
def test_clamp_runs_the_linear_law(name):
    # s >= 1 under a clamped kind gives K0 y + KT y bit for bit, the linear kind's input
    ctrl, _ = _exact(name)
    Y = _states(ctrl.n, 7)
    clamped = 0
    for kind in HOMOGENEOUS[1:]:
        for x0 in _references(ctrl.n):
            ctx, linear = make_context(ctrl, kind, x0), make_context(ctrl, ControllerKind.LINEAR, x0)
            for y in Y:
                with np.errstate(over="ignore", invalid="ignore"):
                    s, _ = ctx.solve(y)
                if s >= 1.0:
                    u = eval_control(ctx, y)
                    assert u.tobytes() == (ctrl.K0 @ y + ctrl.KT @ y).tobytes()
                    assert u.tobytes() == eval_control(linear, y).tobytes()
                    clamped += 1
    assert clamped > 0


@pytest.mark.parametrize("name", ["oscillator", "chain3", "rand3x2", "rand5x2"])
@pytest.mark.parametrize("kind", list(ControllerKind), ids=lambda k: k.value)
def test_zero_state_gets_zero_input(name, kind):
    ctrl, _ = _exact(name)
    zero = np.zeros(ctrl.n)
    for x0 in _references(ctrl.n):
        ctx = make_context(ctrl, kind, x0)
        assert eval_control(ctx, zero).tobytes() == np.zeros(ctrl.m).tobytes()
        assert ctx.feedback(zero, 0.0, None).tobytes() == np.zeros(ctrl.m).tobytes()


@pytest.mark.parametrize("name", ["rand3x2", "rand5x2"])
def test_exact_orbit_agrees_with_the_matrix_exponential(name):
    # the eigenbasis against mpmath's expm at the root, on a near-double
    # eigenvalue (rand3x2) and a complex eigenbasis (rand5x2)
    ctrl, exact = _exact(name)
    y = _states(ctrl.n, 3)[5]
    s, _, _ = exact.root(y)
    with mpmath.workdps(DPS):
        Gd = mpmath.matrix(ctrl.Gd.tolist())
        z = mpmath.expm(-s * Gd) * mpmath.matrix(y.tolist())
        assert abs((z.T * exact.P * z)[0] - 1) < mpmath.mpf(10) ** (8 - DPS)


@pytest.mark.xfail(raises=RuntimeError, strict=True,
                   reason="ROADMAP item 1: the residual x'Px cancels, 'root refinement did not converge'")
def test_rand6x1_first_sample_agrees_with_the_exact_root():
    ctrl, exact = _exact("rand6x1")
    D = ctrl.dilation
    x0 = np.ones(6)
    trace = simulate(ScenarioConfig(plant=LinearPlant(ctrl.A, ctrl.B), controller=ctrl, x0=x0, h=0.01,
                                    t_end=0.01))
    # the state the sampled loop solves after one sample: x / r, r = |x0|_P
    y = trace.x[1] / D.norm(x0)
    s, slope, kappa2 = exact.root(y)
    tol = _tolerance(slope, kappa2)
    with np.errstate(over="ignore", invalid="ignore"):
        v = _solve(D, y)[0]
        assert _gap(s, v) <= tol
        assert _gap(s, _solve_rows(D, y[None])[0]) <= tol
        for guess in (v * (1.0 + 1e-6), v * (1.0 - 1e-3), v * 1.5):
            assert _gap(s, _solve(D, y, guess)[0]) <= tol
