"""The mutant kill matrix: which checks catch which slip in src/hiercoop.

A mutant is (name, module, snippet, replacement): the snippet occurs exactly
once in src/hiercoop/<module>.py and is replaced there. For each mutant, and
for the unmutated source as the baseline, the runner copies src/, tests/ and
pyproject.toml into a temporary directory, applies the mutant to the copy
(never to the checkout) and records

* run_all's verdict at R = 1, Q/R in RATES, seed 0, as verify judges it;
* the tier-1 test ids that fail under --hypothesis-seed=0, TIMEOUT seconds
  at most (tests/test_mutants.py, which reads the source text, is left out).

It writes the matrix to tests/mutants.json. No arguments; from the root of a
checkout with the test dependencies installed:

    python tests/mutants.py

A test may be deleted as redundant only when, for every mutant it fails on,
some kept test fails too. pytest does not collect this file, and
tests/test_mutants.py checks that the list, the matrix and src/ agree.
"""
import concurrent.futures
import json
import os
import pathlib
import re
import shutil
import subprocess
import sys
import tempfile
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
MATRIX = ROOT / "tests" / "mutants.json"
RATES = (0.3, 1.0, 3.0, 24.0)
TIMEOUT = 900
WORKERS = 2  # one tier-1 run per core of a small host

# (name, module, snippet, replacement), grouped by kind
MUTANTS = (
    # the three that verify at the user's rates once passed
    ("search_A_reads_log1p_Q_over_R", "params",
     "math.log(1.0 + R / Q)", "math.log(1.0 + Q / R)"),
    ("log_beta1_times_1_plus_1e-12", "params",
     '_set(self, "log_beta1", log_beta1)',
     'log_beta1 *= 1.0 + 1e-12; _set(self, "log_beta1", log_beta1)'),
    ("upper_bound_times_1.0001", "throughput",
     "return params.beta1 * params.R *", "return 1.0001 * params.beta1 * params.R *"),
    # one per closed-form power and log
    ("log_beta1_log1p_takes_2x", "params", "math.log1p(4.0 * (", "math.log1p(2.0 * ("),
    ("log_beta1_log_takes_1_plus_ratio", "params",
     "math.log(2.0 * math.sqrt(ratio))", "math.log(2.0 * math.sqrt(1.0 + ratio))"),
    ("derive_beta1_times_1_plus_1e-12", "params",
     "beta1=2.0 * math.sqrt(ratio),", "beta1=2.0 * math.sqrt(ratio) * (1.0 + 1e-12),"),
    ("derive_beta_sqrt_of_4_plus_ratio", "params",
     "beta=2.0 * math.sqrt(1.0 + ratio),", "beta=math.sqrt(4.0 + ratio),"),
    ("smooth_depth_reads_log_n", "params",
     "math.log(n / 2.0) / params.log_beta1", "math.log(n) / params.log_beta1"),
    ("size_at_c_power_h_minus_i_minus_1", "optimizer",
     "params.c ** (-((i - 1) * (h - i)) / 2.0)", "params.c ** (-((i - 1) * (h - i - 1)) / 2.0)"),
    ("size_at_M1_power_over_h", "optimizer",
     "(M1 / 2.0) ** ((h - i) / (h - 1.0))", "(M1 / 2.0) ** ((h - i) / h)"),
    ("minimal_delay_c_power_h_minus_1", "optimizer",
     "* depth.c_power\n", "* depth.c_power * params.c ** 0.5\n"),
    ("minimal_delay_M1_power_over_h", "optimizer",
     "(M1 / 2.0) ** (1.0 / (h - 1))", "(M1 / 2.0) ** (1.0 / h)"),
    ("load_c_power_h_minus_1", "optimizer",
     "params.R) * c_power", "params.R) * c_power * params.c ** 0.5"),
    ("balanced_M1_load_power_e_minus_1", "optimizer", "load ** (-e)", "load ** (e - 1.0)"),
    ("balanced_M1_reads_n_over_2", "optimizer", "float(n) ** e", "float(n / 2.0) ** e"),
    ("depth_value_takes_1_plus_Q_over_R", "optimizer",
     "(1.0 + params.R / params.Q) ** e", "(1.0 + params.Q / params.R) ** e"),
    ("depth_value_c_power_h_minus_2", "optimizer",
     "params.c ** ((h - 1) / 2.0)", "params.c ** ((h - 2) / 2.0)"),
    ("depth_value_reads_n", "optimizer", "pre * (n / 2.0) ** e", "pre * float(n) ** e"),
    ("search_a_drops_the_half", "params",
     "half_log_c = 0.5 * math.log(c)", "half_log_c = math.log(c)"),
    ("h_exact_root_takes_2aA", "optimizer", "sqrt(1.0 + 4.0 * a * A)", "sqrt(1.0 + 2.0 * a * A)"),
    ("switch_point_log1p_over_h_plus_1", "optimizer",
     "math.log1p(1.0 / h) + params.half_log_c", "math.log1p(1.0 / (h + 1)) + params.half_log_c"),
    ("pre_constant_reads_n", "throughput",
     "value / (n / 2.0) ** exponent", "value / float(n) ** exponent"),
    ("c_n_power_1_minus_2_over_root", "throughput",
     "** (1.0 - 1.0 / root)", "** (1.0 - 2.0 / root)"),
    ("smooth_exponent_1_minus_1_over_root", "throughput",
     "exponent = 1.0 - 2.0 / root", "exponent = 1.0 - 1.0 / root"),
    ("smooth_value_reads_n", "throughput",
     "(pre * (n / 2.0) ** exponent,", "(pre * float(n) ** exponent,"),
    ("log_beta_takes_log1p", "params",
     "log_beta = math.log(beta)", "log_beta = math.log1p(beta)"),
    ("three_phase_depth_reads_log_n", "throughput",
     "h = math.sqrt(math.log(n / 2.0) / params.log_beta)",
     "h = math.sqrt(math.log(n) / params.log_beta)"),
    ("three_phase_value_power_1_minus_1_over_h", "throughput",
     "(n / 2.0) ** (1.0 - 2.0 / h)", "(n / 2.0) ** (1.0 - 1.0 / h)"),
    ("closed_ratio_front_drops_the_sqrt", "throughput",
     "params.beta1 * params.depth_ratio /",
     "params.beta1 * (params.log_beta1 / params.log_beta) /"),
    ("closed_ratio_power_drops_the_2", "throughput",
     "params.beta ** (2.0 * (1.0 - params.depth_ratio) * h)",
     "params.beta ** ((1.0 - params.depth_ratio) * h)"),
    ("upper_bound_power_1_minus_1_over_root", "throughput",
     "(1.0 - 2.0 / smooth_depth(n, params))", "(1.0 - 1.0 / smooth_depth(n, params))"),
    ("original_layers_log_beta1", "throughput",
     "return math.sqrt(math.log(n / 2.0) / params.log_beta)",
     "return math.sqrt(math.log(n / 2.0) / math.log(params.beta1))"),
    ("multihop_sqrt_of_n_over_2", "throughput", "c_mh * math.sqrt(n)", "c_mh * math.sqrt(n / 2.0)"),
    ("bracket_power_i_plus_1", "recurrence", "lead * c**i *", "lead * c**(i + 1) *"),
    ("bracket_last_power_minus_1", "recurrence", "lead * c**last *", "lead * c**(last - 1) *"),
    ("recursion_base_M_times_M_minus_1", "recurrence", "(top * top)", "(top * (top - 1.0))"),
    ("classify_demand_power_alpha", "area", "area ** (alpha / 2.0)", "area ** alpha"),
    ("area_exponent_halved", "area", "float(n) ** nu", "float(n) ** (nu / 2.0)"),
    ("log_adjusted_reads_log_n_over_2", "explorer",
     "(math.log(n) / math.log(a))", "(math.log(n / 2.0) / math.log(a))"),
    # each < against <= at an edge of the domain or of a fit
    ("fit_bottom_at_the_floor_fails", "optimizer",
     "if bottom < MIN_CLUSTER:", "if bottom <= MIN_CLUSTER:"),
    ("top_at_the_floor_fails", "optimizer", "M1 >= MIN_CLUSTER)", "M1 > MIN_CLUSTER)"),
    ("balanced_M1_at_the_floor_fails", "optimizer",
     "if M1 < MIN_CLUSTER or", "if M1 <= MIN_CLUSTER or"),
    ("balanced_bottom_at_the_floor_fails", "optimizer",
     "bottom_power < MIN_CLUSTER:", "bottom_power <= MIN_CLUSTER:"),
    ("switch_point_tie_goes_deeper", "optimizer", "A > (params._depths[h]", "A >= (params._depths[h]"),
    ("plan_size_at_the_floor_fails", "params",
     "if not MIN_CLUSTER <= m < above:", "if not MIN_CLUSTER < m < above:"),
    ("rate_ratio_quarter_admitted", "params",
     "if ratio <= MIN_RATE_RATIO:", "if ratio < MIN_RATE_RATIO:"),
    ("top_equal_to_n_refused", "throughput", "if not M1 <= n:", "if not M1 < n:"),
    ("classify_boundary_sparse", "area", "if demand <= supply:", "if demand < supply:"),
    # the constants
    ("time_sharing_factor_3", "recurrence", "TIME_SHARING_FACTOR = 4", "TIME_SHARING_FACTOR = 3"),
    ("min_cluster_3", "params", "MIN_CLUSTER = 2.0", "MIN_CLUSTER = 3.0"),
    ("ratio_route_tol_1e-6", "explorer", "RATIO_ROUTE_TOL = 1e-9", "RATIO_ROUTE_TOL = 1e-6"),
    # the per-depth table: an entry stored under the next depth, one table
    # shared by every SchemeParams
    ("depth_table_entry_under_h_plus_1", "optimizer",
     "depth = params._depths[h] = _Depth(", "depth = params._depths[h + 1] = _Depth("),
    ("depth_table_shared_by_all_params", "params",
     '_set(self, "_depths", [None] * (MAX_LAYERS + 1))',
     '_set(self, "_depths", globals().setdefault("_depths", [None] * (MAX_LAYERS + 1)))'),
    # each memo writes its key before its value: a racing reader can pair
    # the new key with the old entry's value
    ("smooth_memo_key_before_value", "throughput",
     "    forms = _smooth_forms(n, params)\n",
     "    _smooth_last = (n, params, forms)\n    forms = _smooth_forms(n, params)\n"),
    ("search_memo_key_before_value", "optimizer",
     "    choice = _search_depth(n, params, h_max)\n",
     "    _search_last = (n, params, h_max, choice)\n"
     "    choice = _search_depth(n, params, h_max)\n"),
)

VERDICT = """
import json
from hiercoop import derive, run_all
out = {}
for q in %r:
    try:
        failed = [r.name for r in run_all(derive(1.0, q), 0) if not r.passed]
    except Exception as exc:
        out[repr(q)] = f"{type(exc).__name__}: {exc}"
    else:
        out[repr(q)] = "FAIL: " + ", ".join(failed) if failed else "PASS"
print(json.dumps(out))
""" % (RATES,)

FAILED = re.compile(r"^(?:FAILED|ERROR) (\S+)")


def source(module):
    return ROOT / "src" / "hiercoop" / f"{module}.py"


def judge(mutant):
    """The matrix entry of one mutant, or of the baseline when it is None."""
    with tempfile.TemporaryDirectory(prefix="hiercoop-mutant-") as tmp:
        tmp = pathlib.Path(tmp)
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, tmp / part, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "pyproject.toml", tmp)
        entry = {}
        if mutant is not None:
            name, module, snippet, replacement = mutant
            path = tmp / "src" / "hiercoop" / f"{module}.py"
            text = path.read_text()
            if text.count(snippet) != 1:
                raise ValueError(f"mutant {name}: the snippet must occur once in {path.name}")
            path.write_text(text.replace(snippet, replacement))
            entry = dict(name=name, module=module, snippet=snippet, replacement=replacement)
        env = dict(os.environ, PYTHONPATH=str(tmp / "src"), PYTHONDONTWRITEBYTECODE="1")
        verdict = subprocess.run(
            [sys.executable, "-c", VERDICT], cwd=tmp, env=env, capture_output=True, text=True
        )
        lines = (verdict.stdout or verdict.stderr).strip().splitlines()
        # a mutant that breaks the import leaves its error as the verdict
        entry["run_all"] = json.loads(lines[-1]) if verdict.returncode == 0 else lines[-1]
        start = time.perf_counter()
        try:
            tier1 = subprocess.run(
                [sys.executable, "-m", "pytest", "-q", "-rfE", "--continue-on-collection-errors",
                 "-p", "no:cacheprovider", "--hypothesis-seed=0",
                 "--ignore=tests/test_mutants.py"],
                cwd=tmp, env=env, capture_output=True, text=True, timeout=TIMEOUT,
            )
        except subprocess.TimeoutExpired:
            entry["tier1_failed"], entry["timed_out"] = None, True
        else:
            failed = (m.group(1) for m in map(FAILED.match, tier1.stdout.splitlines()) if m)
            entry["tier1_failed"] = sorted(set(failed))
            entry["tier1_summary"] = tier1.stdout.strip().splitlines()[-1]
        entry["tier1_seconds"] = round(time.perf_counter() - start, 1)
    return entry


def main():
    jobs = (None, *MUTANTS)
    with concurrent.futures.ThreadPoolExecutor(WORKERS) as pool:
        entries = []
        for job, entry in zip(jobs, pool.map(judge, jobs)):
            killed = "timeout" if entry.get("timed_out") else len(entry["tier1_failed"])
            print(f"{job[0] if job else 'baseline'}: tier-1 {killed}, {entry['run_all']}",
                  file=sys.stderr)
            entries.append(entry)
    baseline, *mutants = entries
    matrix = {"python": sys.version.split()[0], "rates": RATES, "seed": 0,
              "baseline": baseline, "mutants": mutants}
    MATRIX.write_text(json.dumps(matrix, indent=1) + "\n")


if __name__ == "__main__":
    main()
