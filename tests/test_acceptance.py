"""End-to-end acceptance gate.

One test per headline criterion; each prints a one-line verdict after its
assertions, so `pytest -v` shows the per-criterion pass/fail roll call and
`-rA` (or -s) shows the numeric details behind each PASS.
"""
import math
import pathlib
import random
import re
import time

import pytest

from hiercoop import (
    InfeasibleError,
    NetworkConfig,
    c0_tradeoff,
    classify,
    delay_recursive,
    depth_optimum,
    derive,
    layer_choice,
    layer_throughput,
    minimal_delay,
    optimal_cluster_sizes,
    original_optimal_layers,
    per_pair_rate,
    ratio_log_adjusted,
    ratio_original,
    ratio_original_closed_form,
    throughput_given_M1,
    optimal_modified,
    upper_bound,
)
from hiercoop.cli import main as cli_main
from hiercoop.recurrence import delay_closed_form
from oracles import coordinate_descent_min, golden_max, grid_min

GOLDEN_SWEEP = pathlib.Path(__file__).parent / "golden" / "sweep_21pt.csv"


def _verdict(num, label, detail=""):
    print(f"[criterion {num:d}] {label}: PASS {detail}".rstrip())


def test_criterion_1_textbook_depth_example():
    p = derive(1.0, 24.0)  # beta = 10 exactly
    original_optimal_layers(20000, p)  # warm the code path before timing
    t0 = time.perf_counter()
    got = original_optimal_layers(20000, p)
    elapsed = time.perf_counter() - t0
    assert abs(got - 2.0) <= 1e-12
    assert elapsed < 1e-3
    _verdict(1, "depth-2 example at beta=10, n=20000",
             f"(value {got}, {elapsed * 1e6:.1f} us)")


def test_criterion_2_recursion_matches_closed_form():
    rng = random.Random(20260819)
    worst = 0.0
    cases = 120
    t0 = time.perf_counter()
    for _ in range(cases):
        h = rng.randint(2, 6)
        sizes = []
        m = rng.uniform(2.0, 64.0)
        for _ in range(h - 1):
            sizes.append(m)
            m *= rng.uniform(1.5, 8.0)
        sizes.reverse()
        params = derive(1.0, rng.uniform(0.3, 10.0))
        recursed = delay_recursive(sizes, params).slots
        closed = delay_closed_form(sizes, params).slots
        worst = max(worst, abs(recursed - closed) / closed)
    elapsed = time.perf_counter() - t0
    assert cases >= 100
    assert worst <= 1e-12
    assert elapsed < 1.0
    _verdict(2, "recursion == closed form on random plans",
             f"({cases} plans, worst rel err {worst:.3e}, {elapsed:.3f} s)")


def test_criterion_3_delay_minimum_against_search_oracles(unit_params):
    t0 = time.perf_counter()

    def three_layer(m2):
        return delay_recursive((512.0, m2), unit_params).slots

    arg, val = grid_min(three_layer, 2.0, 511.75, 0.25)
    ref3 = minimal_delay(3, 512.0, unit_params).slots
    assert ref3 == pytest.approx(65536.0, rel=1e-12)  # D* = 65536/R for a unit block
    assert abs(arg - 16.0) <= 0.01 * 16.0
    assert abs(val - ref3) <= 1e-3 * ref3

    def four_layer(point):
        m2, m3 = point
        if not 4096.0 > m2 > m3 >= 2.0:
            return math.inf
        return delay_recursive((4096.0, m2, m3), unit_params).slots

    best, best_val = coordinate_descent_min(
        four_layer, (256.0, 16.0), [(2.0, 4000.0), (2.0, 200.0)]
    )
    sizes4 = optimal_cluster_sizes(4, 4096.0, unit_params)
    ref4 = minimal_delay(4, 4096.0, unit_params).slots
    assert abs(best[0] - sizes4[1]) <= 0.01 * sizes4[1]
    assert abs(best[1] - sizes4[2]) <= 0.01 * sizes4[2]
    assert abs(best_val - ref4) <= 1e-3 * ref4
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    _verdict(3, "grid/descent oracles confirm the balanced sizes",
             f"(h=3 argmin {arg:.2f}, h=4 argmin ({best[0]:.2f}, {best[1]:.2f}), "
             f"{elapsed:.2f} s)")


def test_criterion_4_phase_balance_identity():
    # grid A: cheap exchange, every (h, n) combo fits and must hold
    params_a = derive(1.0, 0.3)
    worst = 0.0
    for h in range(2, 7):
        for k in range(12, 31, 2):
            n = 2**k
            M1 = depth_optimum(h, n, params_a)[0]
            p1, p2, p3 = throughput_given_M1(h, M1, n, params_a).phase_slots
            worst = max(worst, abs((p1 + p3) - (h - 1) * p2) / ((h - 1) * p2))
    assert worst <= 1e-9

    # grid B: equal rates; deep-and-small combos are infeasible and skipped
    params_b = derive(1.0, 1.0)
    checked = skipped = 0
    for h in range(2, 7):
        for k in range(12, 31, 2):
            n = 2**k
            best = depth_optimum(h, n, params_b)
            if best is None:
                skipped += 1
                continue
            p1, p2, p3 = throughput_given_M1(h, best[0], n, params_b).phase_slots
            worst = max(worst, abs((p1 + p3) - (h - 1) * p2) / ((h - 1) * p2))
            checked += 1
    assert checked >= 30
    assert worst <= 1e-9
    _verdict(4, "(P1 + P3) == (h-1) * P2 at the balanced top size",
             f"(50 + {checked} combos, {skipped} infeasible skips, "
             f"worst rel err {worst:.3e})")


def test_criterion_5_integer_depth_argmax(unit_params):
    choice = layer_choice(131072, unit_params)
    assert choice.h_int == 3
    assert choice.h_approx == 4.0  # sqrt(log_2 65536), exact
    t3 = layer_throughput(3, 131072, unit_params).value
    t4 = layer_throughput(4, 131072, unit_params).value
    assert abs(t3 - 85.33) / 85.33 <= 0.005
    assert abs(t4 - 76.11) / 76.11 <= 0.005
    assert t3 > t4  # rounding h_approx up to 4 would give up throughput

    # one-dimensional golden-section oracle re-derives both goldens
    for h, pinned in ((3, t3), (4, t4)):
        def gain(M1, h=h):
            try:
                return throughput_given_M1(h, M1, 131072, unit_params).value
            except InfeasibleError:
                return 0.0

        arg, val = golden_max(gain, 2.0, 5000.0)
        balanced = depth_optimum(h, 131072, unit_params)[0]
        assert abs(arg - balanced) <= 0.01 * balanced
        assert abs(val - pinned) <= 1e-3 * pinned
    _verdict(5, "h_int=3 beats rounded h_approx=4 at n=131072",
             f"(T3 {t3:.4f} > T4 {t4:.4f}, both oracle-confirmed)")


def test_criterion_6_upper_bound_envelope(unit_params):
    checked = 0
    for h in range(2, 21):
        for i in range(30):
            n = round(2.0 ** (8.0 + 32.0 * i / 29.0))
            report = layer_throughput(h, n, unit_params)
            if report is None:
                continue
            assert report.value <= upper_bound(n, unit_params) * (1.0 + 1e-12)
            checked += 1
    assert checked >= 100

    # tightness: whenever lg is a perfect square k**2 the inner exponent
    # 1 - 1/h - h/lg touches the envelope exponent 1 - 2/k exactly at h = k
    for k in (2, 3, 4, 5):
        lg = float(k * k)
        gaps = {
            h: (1.0 - 2.0 / k) - (1.0 - 1.0 / h - h / lg)
            for h in range(2, 2 * k + 2)
        }
        assert min(gaps, key=gaps.get) == k
        assert abs(gaps[k]) <= 1e-9
        assert all(g >= -1e-12 for g in gaps.values())
    _verdict(6, "every integer-depth curve stays under the envelope",
             f"({checked} (h, n) points, exponent gap 0 at h = h_approx)")


def test_criterion_7_divergence_and_per_pair_decay():
    params = derive(1.0, 0.3)
    grid = [2**k for k in range(14, 45, 2)]
    t0 = time.perf_counter()
    plain = [ratio_original(n, params) for n in grid]
    adjusted = [ratio_log_adjusted(n, 10.0, params) for n in grid]
    shares = [per_pair_rate(n, params) for n in grid]
    worst = max(
        abs(r - ratio_original_closed_form(n, params)) / r
        for n, r in zip(grid, plain)
    )
    elapsed = time.perf_counter() - t0
    assert all(b > a for a, b in zip(plain, plain[1:]))
    assert all(b > a for a, b in zip(adjusted, adjusted[1:]))
    assert all(b < a for a, b in zip(shares, shares[1:]))
    assert worst <= 1e-9
    assert elapsed < 1.0
    _verdict(7, "ratio diverges (even log-adjusted), per-pair share decays",
             f"(grid 2**14..2**44, route agreement {worst:.3e}, {elapsed:.3f} s)")


def test_criterion_8_area_attenuation(unit_params):
    sparse = classify(NetworkConfig(n=200, area=100.0, alpha=4.0, c0=1.0))
    assert sparse.factor == 0.02
    boundary = classify(NetworkConfig(n=200, area=100.0, alpha=4.0, c0=50.0))
    assert boundary.factor == 1.0
    assert boundary.threshold == 0.0

    for c0 in (0.5, 1.0, 2.0, 55.0):
        lo = classify(NetworkConfig(n=200, area=100.0, alpha=4.0, c0=c0))
        hi = classify(NetworkConfig(n=200, area=100.0, alpha=4.0, c0=1.5 * c0))
        assert hi.factor >= lo.factor
    factors = [
        classify(NetworkConfig(n=200, area=float(a), alpha=4.0, c0=1.0)).factor
        for a in (1, 10, 100, 1000)
    ]
    assert all(b <= a for a, b in zip(factors, factors[1:]))

    cfg = NetworkConfig(n=200, area=100.0, alpha=4.0, c0=1.0)
    plain = optimal_modified(200, unit_params).smooth
    assert c0_tradeoff(cfg, [(1.0, 1.0, 1.0)])[0].value == 0.02 * plain.value
    _verdict(8, "sparse regime scales rates by c0*n / A**(alpha/2)",
             "(factor 0.02 exact at the reference geometry, boundary dense)")


def test_criterion_9_cli_golden_files(capsys):
    rc = cli_main(["sweep", "--grid", "1024:1073741824:21:log", "--c-mh", "1"])
    out = capsys.readouterr().out
    assert rc == 0
    assert out == GOLDEN_SWEEP.read_text()

    rc = cli_main(["verify"])
    out = capsys.readouterr().out
    assert rc == 0
    worst = float(re.search(r"worst_rel_err_overall=(\S+)", out).group(1))
    assert worst <= 1e-9
    assert out.strip().endswith("verify: PASS")
    _verdict(9, "sweep reproduces the golden CSV, verify exits clean",
             f"(21 rows byte-identical, verify worst rel err {worst:.3e})")
