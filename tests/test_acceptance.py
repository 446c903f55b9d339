"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines and timings.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

from edchan import (
    BlockOperator,
    EDMap,
    LinearMap,
    NonInvertibleError,
    apply,
    ball_decompose,
    choi,
    compose,
    explicit_kraus_ed,
    gkls_superop,
    invert,
    is_cp,
    is_cp_divisible,
    is_cp_ed,
    is_positive_ed_dg1,
    K_from_spec,
    kraus_from_choi,
    min_full_choi_eigenvalue,
    qubit_map,
    semigroup_at,
    semigroup_trajectory,
    time_local_generators,
)
from edchan.demos import noncp_divisible_trajectory
from conftest import (
    boosted_cp_map,
    cp_edmap,
    dg1_planted_noncp,
    dg1_span_edmap,
    edmap_instance,
    random_cp_map,
    random_hermitian,
    random_semigroup_spec,
    rc,
)


@contextmanager
def criterion(num, name, budget):
    t0 = time.perf_counter()
    try:
        yield
    except Exception:
        elapsed = time.perf_counter() - t0
        print(f"\nACCEPTANCE {num} ({name}): FAIL after {elapsed:.2f}s")
        raise
    elapsed = time.perf_counter() - t0
    verdict = "PASS" if elapsed < budget else "FAIL (over budget)"
    print(f"\nACCEPTANCE {num} ({name}): {verdict} in {elapsed:.2f}s "
          f"(budget {budget:.0f}s)")
    assert elapsed < budget, f"runtime {elapsed:.2f}s exceeded budget {budget}s"


def maxdiff(a, b):
    return float(np.abs(np.asarray(a) - np.asarray(b)).max())


def edmap_maxdiff(m1, m2):
    return max(
        maxdiff(m1.phi.mat, m2.phi.mat),
        maxdiff(m1.omega.mat, m2.omega.mat),
        maxdiff(m1.B, m2.B),
        abs(m1.gamma - m2.gamma),
    )


def test_criterion_1_block_cp_equals_full_choi_oracle():
    with criterion(1, "block CP criterion and Choi minimum vs full Choi oracle, "
                      "236 instances", 10.0):
        rng = np.random.default_rng(101)
        maps = []
        for k in range(200):
            d_e = int(rng.integers(1, 4))
            d_g = int(rng.integers(1, 4))
            maps.append(edmap_instance(rng, d_e, d_g, tol=1e-8))
        # edges of the block Choi minimum: d_e = 4, d_g = 1, gamma = 0 and
        # maps that are not hermiticity-preserving
        extra = np.random.default_rng(102)
        for d_e in range(1, 5):
            for d_g in (1, 2, 3):
                m = edmap_instance(extra, d_e, d_g, tol=1e-8)
                skew = LinearMap(m.phi.mat + 0.3j * rc(extra, d_e * d_e, d_e * d_e))
                maps += [m, EDMap(m.phi, m.omega, m.B, 0.0),
                         EDMap(skew, m.omega, m.B, m.gamma)]
        disagreements = 0
        for m in maps:
            block = is_cp_ed(m, 1e-8).cp
            full = is_cp(m.to_linear_map(), 1e-8)
            disagreements += (block != full.is_cp)
            lam = full.min_choi_eigenvalue
            assert abs(min_full_choi_eigenvalue(m) - lam) <= 1e-12 * max(1.0, abs(lam))
        assert disagreements == 0


def test_criterion_2_qubit_cp_law_grid():
    with criterion(2, "qubit CP law on a 25x25x5 grid", 5.0):
        a_vals = np.linspace(0.0, 1.2, 25)
        b_vals = np.linspace(0.0, 1.2, 25)
        g_vals = np.linspace(0.0, 1.2, 5)
        misclassified = 0
        checked = 0
        for a in a_vals:
            for b in b_vals:
                for g in g_vals:
                    if abs(b - np.sqrt(g) * a) <= 1e-9:
                        continue  # boundary band
                    checked += 1
                    verdict = is_cp_ed(qubit_map(a, b, 0.5, g)).cp
                    law = b <= np.sqrt(g) * a
                    misclassified += (verdict != law)
        assert checked > 2900
        assert misclassified == 0


def test_criterion_3_kraus_ball_boundary_flips():
    with criterion(3, "Kraus ball membership and CP flip at the boundary", 5.0):
        rng = np.random.default_rng(103)
        for k in range(50):
            d_e = int(rng.integers(2, 4))
            gamma = float(rng.uniform(0.5, 2.0))
            phi = boosted_cp_map(rng, d_e)
            ks = kraus_from_choi(choi(phi))
            omega = random_cp_map(rng, d_e, int(rng.integers(1, 3)))
            direction = rc(rng, ks.count)
            direction /= np.linalg.norm(direction)
            for fill, expect_inside in ((0.99, True), (1.01, False)):
                beta = direction * np.sqrt(fill * gamma)
                B = sum(b * A for b, A in zip(beta, ks.operators))
                bd = ball_decompose(B, ks, gamma)
                assert bd.member == expect_inside
                assert abs(bd.norm_sq - fill * gamma) < 1e-8
                m = EDMap(phi, omega, B, gamma)
                assert is_cp_ed(m).cp == expect_inside


def test_criterion_4_kraus_round_trips():
    with criterion(4, "Kraus round trips and explicit block Kraus form", 10.0):
        rng = np.random.default_rng(104)
        for k in range(100):
            d_e = int(rng.integers(1, 4))
            d_g = int(rng.integers(1, 4))
            m = cp_edmap(rng, d_e, d_g, fill=float(rng.uniform(0.1, 0.95)))
            # map -> Choi -> Kraus -> map on both sector blocks
            for block, d_out in ((m.phi, d_e), (m.omega, d_g)):
                ks = kraus_from_choi(choi(block))
                back = ks.to_linear_map(d_in=d_e, d_out=d_out)
                assert maxdiff(back.mat, block.mat) <= 1e-9
            r = kraus_from_choi(choi(m.phi)).count
            s = kraus_from_choi(choi(m.omega)).count
            full_kraus = explicit_kraus_ed(m)
            assert full_kraus.count <= r + s + 1
            d = d_e + d_g
            rebuilt = full_kraus.to_linear_map(d_in=d, d_out=d)
            assert maxdiff(rebuilt.mat, m.to_linear_map().mat) <= 1e-9


@pytest.fixture(scope="module")
def semigroup_specs():
    rng = np.random.default_rng(105)
    specs = []
    for k in range(20):
        d_e = int(rng.integers(1, 4))
        d_g = int(rng.integers(1, 4))
        specs.append(random_semigroup_spec(
            rng, d_e, d_g, n_jumps=int(rng.integers(0, 3)), tp=(k % 2 == 0)))
    return specs


def test_criterion_5_semigroup_construction(semigroup_specs):
    with criterion(5, "semigroup law, CP along trajectories, trace preservation", 30.0):
        from edchan import check_tp_condition

        rng = np.random.default_rng(205)
        ts = np.linspace(0.0, 2.0, 10)
        for spec in semigroup_specs:
            cache = {}

            def at(t, spec=spec, cache=cache):
                if t not in cache:
                    cache[t] = semigroup_at(spec, t)
                return cache[t]

            # (a) semigroup law on a 10x10 (t, s) grid
            worst = 0.0
            for t in ts:
                for s in ts:
                    lhs = compose(at(t), at(s))
                    worst = max(worst, edmap_maxdiff(lhs, at(t + s)))
            assert worst <= 1e-8

            # (b) complete positivity at 50 sampled times
            for t in np.linspace(0.0, 5.0, 50):
                assert is_cp_ed(semigroup_at(spec, t)).cp

            # (c) trace preservation along trajectories
            if check_tp_condition(spec):
                d = spec.d_e + spec.d_g
                X = BlockOperator.from_full(
                    random_hermitian(rng, d), spec.d_e, spec.d_g)
                for t in np.linspace(0.0, 3.0, 7):
                    drift = abs(apply(at(t), X).trace() - X.trace())
                    assert drift <= 1e-9


def test_criterion_6_generator_extraction(semigroup_specs):
    with criterion(6, "time-local generator extraction at grid step 1e-3", 30.0):
        grid = np.arange(21) * 1e-3
        for spec in semigroup_specs:
            traj = semigroup_trajectory(spec, grid)
            maps = traj.maps  # each read composes every map
            SL = gkls_superop(spec.gen).mat
            K = K_from_spec(spec)
            products = {}
            for i in range(1, 20):
                tl = time_local_generators(traj, i)
                assert maxdiff(tl.L.mat, SL) <= 1e-5
                assert maxdiff(tl.K, K) <= 1e-5
                products[i] = tl.psi.mat @ maps[i].phi.mat

            # trapezoidal integral of psi_t ∘ phi_t over the interior window
            acc = np.zeros_like(products[1])
            for i in range(1, 19):
                acc += 0.5 * (grid[i + 1] - grid[i]) * (products[i] + products[i + 1])
            domega = maps[19].omega.mat - maps[1].omega.mat
            assert maxdiff(acc, domega) <= 1e-6


def test_criterion_7_cp_divisibility(semigroup_specs):
    with criterion(7, "CP-divisibility of semigroups and the window fixture", 30.0):
        for spec in semigroup_specs:
            traj = semigroup_trajectory(spec, np.linspace(0.0, 2.0, 41))
            report = is_cp_divisible(traj)
            assert report.cp_divisible
            assert report.min_eigenvalue >= -1e-6

        window = noncp_divisible_trajectory()
        for m in window.maps:
            assert is_cp_ed(m).cp
        report = is_cp_divisible(window)
        assert not report.cp_divisible
        assert report.min_eigenvalue <= -1e-4


def test_criterion_8_positivity_sampler_matches_cp():
    # CP instances can never yield a witness; the non-CP instances here carry
    # a planted violation of depth >= 0.4 (a non-CP map with B in the Kraus
    # span is NOT automatically non-positive, so a witness must be built in).
    with criterion(8, "one-sided positivity sampler vs exact CP (d_g = 1)", 60.0):
        rng = np.random.default_rng(108)
        for k in range(100):
            d_e = int(rng.integers(2, 4))
            cp_expected = k % 2 == 0
            if cp_expected:
                m = dg1_span_edmap(rng, d_e, fill=float(rng.uniform(0.2, 0.8)))
            else:
                m = dg1_planted_noncp(rng, d_e, depth=float(rng.uniform(0.4, 0.8)))
            assert is_cp_ed(m).cp == cp_expected  # exact screening
            kraus_phi = kraus_from_choi(choi(m.phi))
            assert ball_decompose(m.B, kraus_phi, m.gamma).residual < 1e-9
            verdict = is_positive_ed_dg1(m, samples=100000, tol=1e-9, seed=k)
            assert verdict.not_positive == (not cp_expected)


def test_criterion_9_inversion():
    with criterion(9, "inversion round trips and failure diagnostics", 5.0):
        rng = np.random.default_rng(109)
        for k in range(100):
            d_e = int(rng.integers(1, 4))
            d_g = int(rng.integers(1, 4))
            m = EDMap(
                LinearMap(rc(rng, d_e * d_e, d_e * d_e) + 2 * np.eye(d_e * d_e)),
                LinearMap(rc(rng, d_g * d_g, d_e * d_e)),
                rc(rng, d_e, d_e) + 2 * np.eye(d_e),
                float(rng.uniform(0.2, 2.0)),
            )
            X = BlockOperator.from_full(rc(rng, d_e + d_g, d_e + d_g), d_e, d_g)
            back = apply(invert(m), apply(m, X))
            assert maxdiff(back.full(), X.full()) <= 1e-10

            broken = k % 3
            if broken == 0:
                bad = EDMap(m.phi, m.omega, m.B, 0.0)
                expected = "gamma_zero"
            elif broken == 1:
                rank_deficient = rc(rng, d_e, max(d_e - 1, 0)) if d_e > 1 \
                    else np.zeros((1, 0))
                phi = LinearMap.from_kraus(
                    [rank_deficient @ rc(rng, max(d_e - 1, 0), d_e)]
                    if d_e > 1 else [np.zeros((1, 1))],
                    d_in=d_e, d_out=d_e)
                bad = EDMap(phi, m.omega, m.B, m.gamma)
                expected = "phi_singular"
            else:
                B = np.zeros((d_e, d_e), dtype=complex)
                B[:, : d_e - 1] = m.B[:, : d_e - 1]
                bad = EDMap(m.phi, m.omega, B, m.gamma)
                expected = "B_singular"
            with pytest.raises(NonInvertibleError) as err:
                invert(bad)
            assert err.value.reason == expected
