"""Output checks for every benchmark command.

Each check returns a list of error strings; an empty list means the output
is correct.  The invariants hold for any seed.  The values in
``reference.json`` were recorded from the code the benchmark was defined
on: allocate outputs do not depend on the seed, and the estimate and
``results.csv`` means are pinned for ``DEFAULT_SEED`` only.
"""
import csv
import json
import math
import re
from pathlib import Path

from workloads import DEFAULT_SEED

REFERENCE_PATH = Path(__file__).with_name("reference.json")
RESULTS_HEADER = ["t_hours", "metric", "case", "mean", "ci_lo", "ci_hi"]
CI_METRICS = ("b_tes", "b_ces", "v_tes", "v_ces", "savings_pct")
PINNED_CI_METRICS = ("b_tes", "b_ces", "v_tes", "v_ces")
# results.csv means are compared at this relative tolerance.
MEAN_RTOL = 1e-6
# ``%.6f`` allocate prints: one unit in the last place, plus float slack.
ALLOCATE_ATOL = 2e-6
# ``%.3e`` replication residual and ``%.6g`` estimate prints.
RESIDUAL_RTOL = 2e-3
ESTIMATE_RTOL = 1e-5

_PAIR = re.compile(r"([A-Za-z_][A-Za-z0-9_]*)\s*=\s*(\S+)")


def load_reference():
    with open(REFERENCE_PATH) as handle:
        return json.load(handle)


def parse_output(stdout: str) -> dict:
    """``key = value`` pairs; a ``name:`` line prefix qualifies its keys."""
    out = {}
    for line in stdout.splitlines():
        prefix = ""
        head, sep, rest = line.partition(":")
        if sep and "=" not in head:
            prefix, line = head.strip() + ".", rest
        for key, value in _PAIR.findall(line):
            out[prefix + key] = value
    return out


def _number(text):
    try:
        value = float(text)
    except (TypeError, ValueError):
        return None
    return value if math.isfinite(value) else None


def _close(a, b, rtol, atol=0.0):
    return abs(a - b) <= rtol * max(abs(a), abs(b)) + atol


def _compare(values: dict, reference: dict, rtol: float, atol: float, what: str):
    errors = []
    if set(values) != set(reference):
        errors.append(f"{what}: keys {sorted(values)} != reference {sorted(reference)}")
    for key, want in reference.items():
        got = _number(values.get(key))
        if got is None or not _close(got, want, rtol, atol):
            errors.append(f"{what}: {key} = {values.get(key)}, reference {want!r}")
    return errors


def check_version(stdout: str):
    if re.fullmatch(r"gridhedge \S+\n?", stdout):
        return []
    return [f"--version printed {stdout!r}"]


def check_allocate(stdout: str, reference_key: str, reference: dict):
    values = parse_output(stdout)
    expected = reference["allocate"][reference_key]
    errors = []
    for key, want in expected.items():
        got = _number(values.get(key))
        if key == "replication_residual_kw":
            ok = got is not None and _close(got, want, RESIDUAL_RTOL, 1e-15)
        else:
            ok = got is not None and abs(got - want) <= ALLOCATE_ATOL
        if not ok:
            errors.append(f"allocate {reference_key}: {key} = {values.get(key)}, reference {want!r}")
    if set(values) != set(expected):
        errors.append(f"allocate {reference_key}: keys {sorted(values)} != {sorted(expected)}")
    return errors


def check_estimate(stdout: str, expected: dict, seed: int, reference: dict):
    """Against the benchmark's own MLE and chi-square, and the pinned seed."""
    values = parse_output(stdout)
    errors = []
    for key, want in expected.items():
        got = _number(values.get(key))
        if got is None or not _close(got, want, ESTIMATE_RTOL, 1e-12):
            errors.append(f"estimate: {key} = {values.get(key)}, expected {want!r}")
    p_value = _number(values.get("chi2_p_value"))
    if p_value is None or not 0.0 <= p_value <= 1.0:
        errors.append(f"estimate: chi2_p_value = {values.get('chi2_p_value')}")
    if seed == DEFAULT_SEED:
        errors += _compare(values, reference["estimate"], ESTIMATE_RTOL, 1e-12, "estimate")
    return errors


def _fmt_t(t: float) -> str:
    return format(float(t), ".10g")


def check_results_csv(path: Path, scenario, pinned_means: "dict | None"):
    """Row set, CI ordering, degenerate t = 0 CI, pooled <= per-grid value."""
    try:
        with open(path, newline="") as handle:
            rows = list(csv.reader(handle))
    except OSError as exc:
        return [f"results.csv unreadable: {exc}"]
    if not rows or rows[0] != RESULTS_HEADER:
        return [f"results.csv header {rows[:1]}"]
    errors = []
    table = {}
    for line_no, row in enumerate(rows[1:], start=2):
        if len(row) != 6:
            errors.append(f"results.csv line {line_no}: {len(row)} columns")
            continue
        key = (row[0], row[1])
        if key in table:
            errors.append(f"results.csv line {line_no}: duplicate row {key}")
        if row[2] != scenario.case:
            errors.append(f"results.csv line {line_no}: case {row[2]!r} != {scenario.case!r}")
        table[key] = row
    pg_metrics = [f"pg_{stat}_{g}" for g in range(1, scenario.n_grids + 1) for stat in ("mean", "std")]
    expected = {(_fmt_t(t), m) for t in scenario.times for m in (*CI_METRICS, *pg_metrics)}
    if set(table) != expected:
        missing = sorted(expected - set(table))[:5]
        extra = sorted(set(table) - expected)[:5]
        errors.append(f"results.csv rows: missing {missing} extra {extra}")

    means = {}
    for (t, metric), row in table.items():
        mean = _number(row[3])
        if mean is None:
            errors.append(f"results.csv {t},{metric}: mean {row[3]!r}")
            continue
        means[t, metric] = mean
        if metric not in CI_METRICS:
            if row[4] or row[5]:
                errors.append(f"results.csv {t},{metric}: unexpected CI")
            continue
        lo, hi = _number(row[4]), _number(row[5])
        if lo is None or hi is None:
            errors.append(f"results.csv {t},{metric}: CI {row[4]!r},{row[5]!r}")
            continue
        slack = 1e-9 * max(abs(mean), 1.0)
        if not lo - slack <= mean <= hi + slack:
            errors.append(f"results.csv {t},{metric}: mean {mean} outside [{lo}, {hi}]")
        if t == "0" and hi - lo > slack:
            errors.append(f"results.csv t=0 {metric}: CI [{lo}, {hi}] is not degenerate")
    for t in scenario.times:
        tes, ces = means.get((_fmt_t(t), "v_tes")), means.get((_fmt_t(t), "v_ces"))
        if tes is not None and ces is not None and tes > ces + 1e-9 * max(abs(ces), 1.0):
            errors.append(f"results.csv t={_fmt_t(t)}: mean v_tes {tes} > v_ces {ces}")

    if pinned_means is not None:
        for key, want in pinned_means.items():
            t, metric = key.split("|")
            got = means.get((t, metric))
            if got is None or not _close(got, want, MEAN_RTOL, 1e-12):
                errors.append(f"results.csv {t},{metric}: mean {got}, reference {want!r}")
    return errors


def pinned_mean_keys(scenario):
    pg = [f"pg_{stat}_{g}" for g in range(1, scenario.n_grids + 1) for stat in ("mean", "std")]
    return [f"{_fmt_t(t)}|{m}" for t in scenario.times for m in (*PINNED_CI_METRICS, *pg)]


def check_simulate(stdout: str, out_dir: Path, scenario, reference: dict):
    values = parse_output(stdout)
    errors = []
    if values.get("case") != scenario.case:
        errors.append(f"simulate: case = {values.get('case')!r}, expected {scenario.case!r}")
    if values.get("paths") != str(scenario.n_paths):
        errors.append(f"simulate: paths = {values.get('paths')!r}, expected {scenario.n_paths}")
    if _number(values.get("overall_savings_pct")) is None:
        errors.append(f"simulate: overall_savings_pct = {values.get('overall_savings_pct')!r}")
    pinned = None
    if scenario.seed == DEFAULT_SEED:
        pinned = reference["results_means"][scenario.name]
    errors += check_results_csv(out_dir / "results.csv", scenario, pinned)
    try:
        manifest = (out_dir / "manifest.txt").read_text().splitlines()
    except OSError as exc:
        return errors + [f"manifest.txt unreadable: {exc}"]
    for line in (f"seed = {scenario.seed}", "output = results.csv"):
        if line not in manifest:
            errors.append(f"manifest.txt lacks {line!r}")
    return errors


def check_command(command, returncode: int, stdout: str, out_dir: Path, inputs, reference):
    """Dispatch on the command kind; a non-zero exit is always an error."""
    if returncode != 0:
        return [f"{' '.join(command.args[:1])} exited {returncode}"]
    if command.kind == "version":
        return check_version(stdout)
    if command.kind == "simulate":
        return check_simulate(stdout, out_dir, command.scenario, reference)
    if command.kind in ("allocate_ces", "allocate_tes"):
        return check_allocate(stdout, command.reference, reference)
    if command.kind == "estimate":
        return check_estimate(stdout, inputs.wind_expected, inputs.seed, reference)
    return [f"no check for command kind {command.kind!r}"]
