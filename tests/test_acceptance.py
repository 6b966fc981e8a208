"""Acceptance gate: the eight behavioral criteria the package must meet.

 1. Reference-record verification: the closed-form oscillator stabilizer
    passes every algebraic invariant with residuals <= 1e-10 and both
    positive-definiteness margins > 0.2.                     (< 1 s)
 2. Synthesis from scratch on the oscillator (T=1, mu=-1) verifies with
    residuals <= 1e-8 and reproduces the closed-form least-norm branch:
    G0 = diag(-1, 0), Y0 = (-2, 0), K0 = (1, 0).             (< 5 s)
 3. Delay-free runs (h = 0.01) settle within [0.98, 1.02] for both initial
    states and all scaled copies, with pairwise agreement within 2h.
                                                             (< 10 s)
 4. Dense-mode homogeneous norm decays linearly: max |s(t) - (1 - t/T)|
    <= 1e-3 down to s = 0.02, for 5 random initial directions.
                                                             (< 30 s)
 5. Input delay tau = 0.5 (h = 0.01, zero prehistory): settling within
    [1.48, 1.52] and predictor shift identity
    |x(t_k) - y(t_{k-N})| <= 1e-8 for all k >= N.            (< 10 s)
 6. Constant matched disturbances sized against the rejection bound at
    rho = 2: at 0.9x the bound the run settles by 2T + 2h; at 5x the bound
    it never drops below 1e-6 by t = 3; the fixed-time variant under the
    same 5x disturbance settles by T + 2h.
 7. Seeded measurement noise (a = 0.01): trajectories stay bounded by
    2|x0| and the post-T residual stays <= 0.1; the smaller initial state
    gives the smaller residual in at least 8 of 10 seeds.
 8. Property suites, 200 randomized cases each, zero failures: dilation
    homogeneity, norm gradient vs finite differences, matrix-exponential /
    hold-integral oracles, predictor round trip.             (< 60 s total)

Each criterion prints one pass/fail line with its measured numbers.
"""

import math
import time

import numpy as np
import pytest

from homctl import (
    ControllerKind,
    Dilation,
    DisturbanceSpec,
    NoiseSpec,
    ScenarioConfig,
    SynthesisConfig,
    build_tables,
    dilate,
    disturbance_bound,
    hom_norm,
    hom_norm_gradient,
    invert,
    linalg,
    oscillator_controller,
    oscillator_plant,
    predict,
    simulate,
    synthesize,
    verify_controller,
)

H = 0.01


@pytest.fixture
def announce(capsys):
    """Print one line per criterion straight to the terminal, past capture."""

    def _announce(passed: bool, num: int, name: str, detail: str, elapsed: float, budget: float):
        status = "PASS" if passed else "FAIL"
        with capsys.disabled():
            print(f"[{status}] criterion {num} ({name}): {detail} [{elapsed:.2f}s / budget {budget:g}s]")

    return _announce


def _run(x0, **kw):
    defaults = dict(plant=oscillator_plant(), controller=oscillator_controller(),
                    x0=np.asarray(x0, dtype=float), h=H, t_end=2.0)
    defaults.update(kw)
    return simulate(ScenarioConfig(**defaults))


# ---------------------------------------------------------------------------


def test_criterion_1_reference_record_verification(announce):
    t0 = time.perf_counter()
    ctrl = oscillator_controller()
    report = verify_controller(ctrl, oscillator_plant())
    residuals = {c.name: c.value for c in report.checks if c.kind == "residual"}
    max_residual = max(residuals.values())
    margin_x = report["X_positive_definite"].value
    margin_lyap = report["dilation_lyapunov_pd"].value
    elapsed = time.perf_counter() - t0

    ok = (report.all_passed and max_residual <= 1e-10
          and margin_x > 0.2 and margin_lyap > 0.2 and elapsed < 1.0)
    announce(ok, 1, "reference verification",
             f"max residual {max_residual:.2e}, margins {margin_x:.4f}/{margin_lyap:.4f}",
             elapsed, 1.0)

    assert report.all_passed
    assert max_residual <= 1e-10, residuals
    # closed-form smallest eigenvalues by the quadratic formula
    assert margin_x == pytest.approx((6.5 - math.sqrt(36.25)) / 2, rel=1e-12)
    assert margin_lyap == pytest.approx((15 - math.sqrt(193.0)) / 2, rel=1e-12)
    assert margin_x > 0.2 and margin_lyap > 0.2
    assert elapsed < 1.0


def test_criterion_2_synthesis_from_scratch(announce):
    t0 = time.perf_counter()
    plant = oscillator_plant()
    ctrl = synthesize(plant, SynthesisConfig(T=1.0))
    report = verify_controller(ctrl, plant)
    residuals = {c.name: c.value for c in report.checks if c.kind == "residual"}
    max_residual = max(residuals.values())
    err_G0 = np.max(np.abs(ctrl.G0 - np.diag([-1.0, 0.0])))
    err_Y0 = np.max(np.abs(ctrl.Y0 - np.array([[-2.0, 0.0]])))
    err_K0 = np.max(np.abs(ctrl.K0 - np.array([[1.0, 0.0]])))
    elapsed = time.perf_counter() - t0

    ok = (report.all_passed and max_residual <= 1e-8
          and max(err_G0, err_Y0, err_K0) <= 1e-10 and elapsed < 5.0)
    announce(ok, 2, "synthesis from scratch",
             f"max residual {max_residual:.2e}, gain errors {err_G0:.1e}/{err_Y0:.1e}/{err_K0:.1e}",
             elapsed, 5.0)

    assert report.all_passed
    assert max_residual <= 1e-8, residuals
    assert err_G0 <= 1e-10 and err_Y0 <= 1e-10 and err_K0 <= 1e-10
    assert elapsed < 5.0


def test_criterion_3_delay_free_settling_windows(announce):
    t0 = time.perf_counter()
    times = []
    for x0 in ([0.2, 0.0], [0.7, 0.0]):
        for lam in (1e-2, 1.0, 1e2, 1e5):
            trace = _run(lam * np.asarray(x0))
            times.append(trace.settling_time)
    elapsed = time.perf_counter() - t0

    in_window = all(t is not None and 0.98 <= t <= 1.02 for t in times)
    spread = (max(times) - min(times)) if in_window else float("nan")
    ok = in_window and spread <= 2 * H + 1e-12 and elapsed < 10.0
    announce(ok, 3, "delay-free settling",
             f"settling times {sorted(set(times))}, spread {spread:.4f}", elapsed, 10.0)

    assert in_window, times
    assert spread <= 2 * H + 1e-12
    assert elapsed < 10.0


def test_criterion_4_dense_mode_linear_decay(announce):
    t0 = time.perf_counter()
    rng = np.random.default_rng(2718)
    worst = 0.0
    for _ in range(5):
        direction = rng.normal(size=2)
        x0 = direction / np.linalg.norm(direction) * 10.0 ** rng.uniform(-2, 2)
        trace = _run(x0, integrator="dense", t_end=1.5)
        worst = max(worst, float(np.max(np.abs(trace.s - (1.0 - trace.t)))))
    elapsed = time.perf_counter() - t0

    ok = worst <= 1e-3 and elapsed < 30.0
    announce(ok, 4, "dense-mode linear decay",
             f"max |s(t) - (1 - t/T)| = {worst:.2e}", elapsed, 30.0)

    assert worst <= 1e-3
    assert elapsed < 30.0


def test_criterion_5_input_delay_settling_and_shift_identity(announce):
    t0 = time.perf_counter()
    N = 50
    results = []
    for x0 in ([0.2, 0.0], [0.7, 0.0]):
        trace = _run(x0, plant=oscillator_plant(delay=0.5), t_end=2.5)
        shift_err = max(
            float(np.linalg.norm(trace.x[k] - trace.y[k - N]))
            for k in range(N, len(trace.t))
        )
        results.append((trace.settling_time, shift_err))
    elapsed = time.perf_counter() - t0

    in_window = all(t is not None and 1.48 <= t <= 1.52 for t, _ in results)
    max_shift = max(err for _, err in results)
    ok = in_window and max_shift <= 1e-8 and elapsed < 10.0
    announce(ok, 5, "input-delay settling",
             f"settling {[t for t, _ in results]}, shift identity {max_shift:.2e}",
             elapsed, 10.0)

    assert in_window, results
    assert max_shift <= 1e-8
    assert elapsed < 10.0


def test_criterion_6_matched_disturbance_rejection(announce):
    t0 = time.perf_counter()
    ctrl = oscillator_controller()
    x0 = np.array([0.2, 0.0])
    r = ctrl.dilation.norm(x0)
    bound = disturbance_bound(ctrl, r, rho=2.0)
    b_norm = ctrl.dilation.norm([0.0, 1.0])

    def disturbed(gamma, **kw):
        return _run(x0, t_end=3.0,
                    disturbance=DisturbanceSpec(kind="constant", vector=[0.0, gamma]), **kw)

    inside = disturbed(0.9 * bound / b_norm)
    outside = disturbed(5.0 * bound / b_norm)
    fxt = disturbed(5.0 * bound / b_norm, kind=ControllerKind.FIXED_TIME)
    floor = float(np.min(outside.x_norm))
    elapsed = time.perf_counter() - t0

    c1 = inside.settling_time is not None and inside.settling_time <= 2.0 + 2 * H
    c2 = outside.settling_time is None and floor > 1e-6
    c3 = fxt.settling_time is not None and fxt.settling_time <= 1.0 + 2 * H
    ok = c1 and c2 and c3
    announce(ok, 6, "matched disturbance rejection",
             f"0.9x bound settles {inside.settling_time}; 5x floor {floor:.2e}; "
             f"fixed-time settles {fxt.settling_time}", elapsed, 30.0)

    assert c1, inside.settling_time
    assert c2, (outside.settling_time, floor)
    assert c3, fxt.settling_time


def test_criterion_7_noise_sensitivity(announce):
    t0 = time.perf_counter()
    seeds = range(10)

    def residual(x0, seed):
        trace = _run(x0, t_end=3.0, noise=NoiseSpec(amplitude=0.01, seed=seed))
        assert float(np.max(trace.x_norm)) <= 2.0 * trace.x_norm[0], seed
        tail = trace.x_norm[trace.t > 1.0]
        return math.sqrt(float(np.mean(tail**2)))

    small = [residual([0.2, 0.0], s) for s in seeds]
    large = [residual([0.7, 0.0], s) for s in seeds]
    wins = sum(1 for a, b in zip(small, large) if a < b)
    worst = max(max(small), max(large))
    elapsed = time.perf_counter() - t0

    ok = worst <= 0.1 and wins >= 8
    announce(ok, 7, "noise sensitivity",
             f"max residual {worst:.3f}, smaller-state wins {wins}/10", elapsed, 30.0)

    assert worst <= 0.1, (small, large)
    assert wins >= 8, (small, large)


def test_criterion_8_property_suites(announce):
    t0 = time.perf_counter()
    rng = np.random.default_rng(31415)
    family = [
        Dilation(np.diag([2.0, 1.0]), np.array([[11.0, 4.0], [4.0, 2.0]]) / 3.0),
        Dilation(np.diag([2.0, 1.0]), np.eye(2)),
        Dilation(np.diag([3.0, 2.0, 1.0]), np.eye(3)),
        Dilation(np.array([[1.0, 0.8], [0.0, 1.0]]), np.eye(2)),
    ]

    # homogeneity: |d(s) x|_d = e^s |x|_d
    for _ in range(200):
        D = family[int(rng.integers(len(family)))]
        x = rng.normal(size=D.dim)
        s = float(rng.uniform(-3, 3))
        np.testing.assert_allclose(hom_norm(D, dilate(D, s, x)),
                                   math.exp(s) * hom_norm(D, x), rtol=1e-9)

    # gradient vs central finite differences
    checked = 0
    while checked < 200:
        D = family[int(rng.integers(len(family)))]
        x = rng.normal(size=D.dim)
        if np.linalg.norm(x) < 0.1:
            continue
        grad = hom_norm_gradient(D, x)
        eps = 1e-6 * max(1.0, float(np.linalg.norm(x)))
        fd = np.array([
            (hom_norm(D, x + eps * e) - hom_norm(D, x - eps * e)) / (2 * eps)
            for e in np.eye(D.dim)
        ])
        np.testing.assert_allclose(grad, fd, rtol=1e-5, atol=1e-8)
        checked += 1

    # matrix exponential and hold-integral closed-form oracles
    checked = 0
    while checked < 200:
        n = int(rng.integers(1, 4))
        A = rng.normal(size=(n, n))
        B = rng.normal(size=(n, int(rng.integers(1, 3))))
        h = float(rng.uniform(0.05, 1.0))
        np.testing.assert_allclose(linalg.expm(A) @ linalg.expm(-A), np.eye(n), atol=1e-10)
        if abs(np.linalg.det(A)) < 1e-3:
            continue
        oracle = np.linalg.solve(A, linalg.expm(A * h) - np.eye(n)) @ B
        np.testing.assert_allclose(linalg.zoh_integral(A, B, h), oracle, atol=1e-9)
        checked += 1

    # predictor round trip
    plant = oscillator_plant(delay=0.5)
    tables = build_tables(plant, h=0.1)
    for _ in range(200):
        x = rng.normal(size=2) * 10.0 ** rng.integers(-3, 3)
        u_past = rng.normal(size=(tables.N, 1))
        y = predict(tables, x, u_past)
        np.testing.assert_allclose(invert(tables, y, u_past), x, rtol=1e-9, atol=1e-10)

    elapsed = time.perf_counter() - t0
    ok = elapsed < 60.0
    announce(ok, 8, "property suites",
             "4 suites x 200 cases, zero failures", elapsed, 60.0)
    assert elapsed < 60.0
