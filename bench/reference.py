"""Values the benchmark checks the program against, and the checks.

Every reference here is rebuilt from the fields of a system description,
never from the program's own derived quantities:

* the exact mean wait of a symmetric system with Poisson arrivals
  (Takagi, *Analysis of Polling Systems*, 1986);
* the right-hand side of the pseudo-conservation law (Boxma &
  Groenendijk, J. Appl. Prob. 24, 1987).

Each check returns a list of problems; an empty list means the output
passed.  A check on simulation output states its tolerance in the
arguments, so the README can quote it.
"""

from __future__ import annotations

import csv
import io
import math


def _is_exhaustive(spec) -> bool:
    return spec.discipline.value == "exhaustive"


def _switchover_moments(spec) -> tuple[float, float]:
    mean = sum(q.mean_switchover for q in spec.queues)
    var = sum(q.scv_switchover * q.mean_switchover**2 for q in spec.queues)
    return mean, var


def arrival_rates(spec) -> list[float]:
    """Per-queue arrival rates at the operating load."""
    return [spec.rho / q.mean_interarrival_at_saturation for q in spec.queues]


def is_symmetric_poisson(spec) -> bool:
    first = spec.queues[0]
    fields = (
        "mean_service",
        "scv_service",
        "mean_interarrival_at_saturation",
        "mean_switchover",
        "scv_switchover",
    )
    return all(q.scv_interarrival == 1.0 for q in spec.queues) and all(
        getattr(q, f) == getattr(first, f) for q in spec.queues for f in fields
    )


def symmetric_poisson_wait(spec) -> float:
    """Exact mean wait of every queue of a symmetric Poisson system.

    E[W] = Var(S)/(2E[S]) + (N lam E[B^2] + E[S](1 -+ rho/N)) / (2(1-rho)),
    with - for exhaustive and + for gated service; S is the total
    switch-over time per cycle and lam the arrival rate of one queue.
    """
    n = len(spec.queues)
    q = spec.queues[0]
    rho = spec.rho
    lam = rho / q.mean_interarrival_at_saturation
    service_m2 = (1.0 + q.scv_service) * q.mean_service**2
    s_mean, s_var = _switchover_moments(spec)
    sign = -1.0 if _is_exhaustive(spec) else 1.0
    return s_var / (2.0 * s_mean) + (
        n * lam * service_m2 + s_mean * (1.0 + sign * rho / n)
    ) / (2.0 * (1.0 - rho))


def pcl_rhs_from_fields(spec) -> float:
    """Pseudo-conservation law: the exact value of sum_i rho_i E[W_i]
    for Poisson arrivals.

    rho/(2(1-rho)) sum_i lam_i E[B_i^2] + rho E[S^2]/(2E[S])
    + E[S]/(2(1-rho)) (rho^2 - sum_i rho_i^2), plus
    E[S]/(1-rho) sum_i rho_i^2 under gated service.
    """
    rho = spec.rho
    rates = arrival_rates(spec)
    loads = [lam * q.mean_service for lam, q in zip(rates, spec.queues)]
    service_term = sum(
        lam * (1.0 + q.scv_service) * q.mean_service**2
        for lam, q in zip(rates, spec.queues)
    )
    s_mean, s_var = _switchover_moments(spec)
    sum_sq = sum(x * x for x in loads)
    value = (
        rho / (2.0 * (1.0 - rho)) * service_term
        + rho * (s_var + s_mean**2) / (2.0 * s_mean)
        + s_mean / (2.0 * (1.0 - rho)) * (rho * rho - sum_sq)
    )
    if not _is_exhaustive(spec):
        value += s_mean / (1.0 - rho) * sum_sq
    return value


def _rel(a: float, b: float) -> float:
    return abs(a - b) / abs(b)


def sim_problems(
    spec,
    cfg,
    est,
    *,
    z: float,
    load_tol: float,
    count_tol: float,
) -> list[str]:
    """Check one simulation estimate.

    * For a symmetric Poisson system, each mean wait lies within `z`
      confidence half-widths of the exact value.
    * The realized load is within `load_tol` (relative) of rho.
    * Each queue's sample count is within `count_tol` (relative) of
      lam_i * E[S]/(1-rho) * measured cycles * replications.
    """
    problems = []
    if est.replications != cfg.replications:
        problems.append(f"replications {est.replications} != {cfg.replications}")
    if sum(est.samples_per_queue) != est.samples:
        problems.append("samples_per_queue does not sum to samples")
    if is_symmetric_poisson(spec):
        exact = symmetric_poisson_wait(spec)
        for i, (w, h) in enumerate(zip(est.mean_wait, est.ci_half_width)):
            if not abs(w - exact) <= z * h:
                problems.append(
                    f"queue {i}: mean wait {w!r} is {abs(w - exact) / h:.2f} "
                    f"half-widths from the exact {exact!r}"
                )
    if not _rel(est.realized_load, spec.rho) <= load_tol:
        problems.append(
            f"realized load {est.realized_load!r} vs rho {spec.rho!r}"
        )
    s_mean, _ = _switchover_moments(spec)
    cycles = s_mean / (1.0 - spec.rho)
    for i, (lam, got) in enumerate(
        zip(arrival_rates(spec), est.samples_per_queue)
    ):
        want = lam * cycles * cfg.measured_cycles * cfg.replications
        if not _rel(got, want) <= count_tol:
            problems.append(f"queue {i}: {got} samples, expected about {want:.0f}")
    return problems


def closed_form_problems(spec, results) -> list[str]:
    """Check the estimator outputs for one system against exact values.

    `results` maps each method name to its per-queue mean waits.  Every
    value must be finite and positive.  For Poisson arrivals the
    interpolation satisfies the pseudo-conservation law to 1e-9, and for a
    symmetric Poisson system it equals the exact mean wait to 1e-9.
    """
    problems = []
    for method, waits in results.items():
        if len(waits) != len(spec.queues):
            problems.append(f"{method}: {len(waits)} values for {len(spec.queues)} queues")
        if not all(math.isfinite(w) and w > 0.0 for w in waits):
            problems.append(f"{method}: non-finite or non-positive wait in {waits}")
    if problems or "interpolation" not in results:
        return problems
    waits = results["interpolation"]
    if all(q.scv_interarrival == 1.0 for q in spec.queues):
        weighted = sum(
            lam * q.mean_service * w
            for lam, q, w in zip(arrival_rates(spec), spec.queues, waits)
        )
        rhs = pcl_rhs_from_fields(spec)
        if not _rel(weighted, rhs) <= 1e-9:
            problems.append(
                f"sum rho_i W_i = {weighted!r}, conservation law gives {rhs!r}"
            )
    if is_symmetric_poisson(spec):
        exact = symmetric_poisson_wait(spec)
        for i, w in enumerate(waits):
            if not _rel(w, exact) <= 1e-9:
                problems.append(f"queue {i}: {w!r} vs exact {exact!r}")
    return problems


def analyze_problems(payload, spec, method: str, direct, residual) -> list[str]:
    """Check `pollwait analyze --format json` output.

    `direct` holds the per-queue waits of ``mean_wait`` called directly at
    the same system, and `residual` the direct ``pcl_residual``; both must
    match exactly.  ``pcl_rhs`` must match the conservation law rebuilt
    from the spec fields to 1e-9.
    """
    problems = []
    if payload.get("method") != method:
        problems.append(f"method {payload.get('method')!r} != {method!r}")
    if payload.get("discipline") != spec.discipline.value:
        problems.append(f"discipline {payload.get('discipline')!r}")
    if payload.get("rho") != spec.rho:
        problems.append(f"rho {payload.get('rho')!r} != {spec.rho!r}")
    waits = [q["mean_wait"] for q in payload.get("queues", [])]
    if waits != list(direct):
        problems.append(f"mean waits {waits} != direct {list(direct)}")
    if payload.get("pcl_residual") != residual:
        problems.append(
            f"pcl_residual {payload.get('pcl_residual')!r} != direct {residual!r}"
        )
    rhs = pcl_rhs_from_fields(spec)
    if not _rel(payload.get("pcl_rhs", math.nan), rhs) <= 1e-9:
        problems.append(f"pcl_rhs {payload.get('pcl_rhs')!r} vs {rhs!r}")
    return problems


def sweep_problems(text: str, expected_rows: int, direct) -> list[str]:
    """Check `pollwait sweep` CSV output.

    `direct(rho, method)` returns the per-queue waits of ``mean_wait``
    called directly; the CSV prints ten significant digits, so each value
    must agree to 1e-9 relative.  No simulation rows may appear.
    """
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != [
        "rho", "queue", "method", "mean_wait", "ci_half_width"
    ]:
        return [f"unexpected header {rows[:1]}"]
    rows = rows[1:]
    if len(rows) != expected_rows:
        return [f"{len(rows)} rows, expected {expected_rows}"]
    problems = []
    cache: dict = {}
    for rho_text, queue, method, value, half_width in rows:
        key = (rho_text, method)
        if key not in cache:
            cache[key] = direct(float(rho_text), method)
        want = cache[key][int(queue)]
        if half_width != "" or not _rel(float(value), want) <= 1e-9:
            problems.append(f"rho={rho_text} queue={queue} {method}: {value} vs {want!r}")
            if len(problems) >= 5:
                break
    return problems


def _parse_record_rows(path: str) -> list[dict]:
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


def testbed_problems(
    raw_csv: str,
    report,
    queue_counts: list[int],
    methods: list[str],
    discipline: str,
    summary: list[str],
) -> list[str]:
    """Check one test-bed pass from its files and its reloaded report.

    * One record per queue of every case and method, every oracle finite
      and positive, every rel_err equal to (approx - oracle)/oracle.
    * `report` (from ``report_from_csv``) holds the same records as the
      CSV rows parsed here.
    * The interpolation has the lowest mean absolute error of `methods`.
    * The printed summary matches mean errors recomputed from the rows.
    """
    rows = _parse_record_rows(raw_csv)
    want = sum(queue_counts) * len(methods)
    if len(rows) != want:
        return [f"{len(rows)} records, expected {want}"]
    problems = []
    per_case: dict[int, int] = {}
    errors: dict[str, list[float]] = {m: [] for m in methods}
    by_n: dict[tuple[str, int], list[float]] = {}
    for row in rows:
        index = int(row["case_index"])
        per_case[index] = per_case.get(index, 0) + 1
        approx, oracle = float(row["approx"]), float(row["oracle"])
        rel = float(row["rel_err"])
        if not (math.isfinite(oracle) and oracle > 0.0):
            problems.append(f"case {index}: oracle {oracle!r}")
        elif rel != (approx - oracle) / oracle:
            problems.append(f"case {index}: rel_err {rel!r} does not recompute")
        if row["discipline"] != discipline:
            problems.append(f"case {index}: discipline {row['discipline']}")
        errors.setdefault(row["method"], []).append(abs(rel))
        key = (row["method"], int(row["n_queues"]))
        by_n.setdefault(key, []).append(abs(rel))
    for index, n in enumerate(queue_counts):
        if per_case.get(index) != n * len(methods):
            problems.append(f"case {index}: {per_case.get(index)} records")
    if set(errors) != set(methods):
        problems.append(f"methods {sorted(errors)} != {sorted(methods)}")
        return problems

    if len(report.records) != len(rows):
        problems.append(f"reload holds {len(report.records)} records")
    for row, rec in zip(rows, report.records):
        if (
            rec.case_index != int(row["case_index"])
            or rec.queue != int(row["queue"])
            or rec.method.value != row["method"]
            or rec.approx != float(row["approx"])
            or rec.oracle != float(row["oracle"])
            or rec.oracle_ci_half_width != float(row["oracle_ci_half_width"])
            or rec.rel_err != float(row["rel_err"])
            or rec.flagged != bool(int(row["flagged"]))
            or rec.case.rho != float(row["rho"])
        ):
            problems.append(f"reloaded record differs from row {row}")
            break

    mae = {m: 100.0 * sum(e) / len(e) for m, e in errors.items()}
    best = min(mae, key=mae.get)
    if best != "interpolation":
        problems.append(f"lowest mean abs error is {best}: {mae}")

    counts = sorted({n for _, n in by_n})
    expected_summary = []
    for m in methods:
        cells = ", ".join(
            f"N={n}: {100.0 * sum(by_n[m, n]) / len(by_n[m, n]):.2f}%"
            for n in counts
        )
        expected_summary.append(f"{m}: mean abs error {cells}")
    if [line for line in summary if "mean abs error" in line] != expected_summary:
        problems.append("printed summary does not match the records")
    return problems
