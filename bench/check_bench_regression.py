#!/usr/bin/env python3
"""Gate on the forwarding-loop wall clock.

Compares a fresh bench_micro JSON report (the '{...}' lines the binary
prints after the google-benchmark table) against the checked-in baseline:

  1. wall-clock regression: the tracing-off, monitor-off forwarding loop
     must stay within REGRESSION_TOLERANCE (default 15%) of the baseline,
     comparing medians across however many lines each side has.
  2-5. paired gates: bench_micro emits alternating off / on runs of one
     knob, each on-run right after its off-run with every other knob the
     same; pairing cancels machine drift. PAIRED_GATES holds one row per
     knob, and each gate's median pairwise ratio must stay within its
     bound:
       2. monitoring (top talkers + maintenance tick): on / off cpu_s
          within MONITOR_TOLERANCE (5%). cpu_s, not wall_s: scheduler
          preemption on shared runners inflates wall clocks by far more
          than 5%, while process CPU time isolates the added work.
       3. fast path under a 12-rule firewall: off / on wall_s at least
          FASTPATH_MIN_SPEEDUP (1.3x) — the flow verdict cache has to pay
          for itself.
       4. full cycle attribution: on / off cpu_s within
          PROFILER_TOLERANCE (5%).
       5. every tracepoint armed, no predicates: on / off cpu_s within
          PROBES_TOLERANCE (5%) — always-on tracing only earns its keep if
          arming the full probe set is nearly free.
     Check 1 pools only rows with every knob at its default, so no sweep
     pollutes it.

  6. multicore scaling: bench_multicore emits "multicore_scaling" rows in
     1-queue / N-queue pairs (matched by the "pair" field, the 1-queue
     partner running back-to-back in the same process); the 4-queue
     delivered-frames-per-virtual-second ratio over its paired 1-queue run
     must be at least MULTICORE_MIN_SCALING (default 1.8x) — sharding the
     dataplane across lanes has to actually buy parallel virtual time.
     These rows live in a separate report file (bench_multicore's stdout);
     pass it as the report when gating that binary.

  7. tenant isolation: bench_noisy_neighbor emits "noisy_neighbor" rows,
     one per {scenario} x {solo, open, guarded} cell; for every scenario
     (arp_flood, conntrack_churn, overlay_hog) the guarded run's
     "retention" (victim deliveries over its solo reference) must be at
     least NOISY_MIN_RETENTION (default 0.9) — quotas plus WFQ cycle
     shares have to actually rescue the victim from each aggressor. A
     missing scenario or a missing guarded row is itself a failure, so
     the matrix cannot silently shrink. These rows live in a separate
     report file (bench_noisy_neighbor's stdout); pass it as the report
     when gating that binary.

Override: set ALLOW_BENCH_REGRESSION=1 to turn failures into warnings —
for landing a change that knowingly trades speed for capability. Record
the new baseline in the same commit:

    ./build/bench/bench_micro --benchmark_filter=NONE | grep '^{' \
        > bench/BENCH_baseline.json

Usage: check_bench_regression.py <report.json-lines> [baseline.json-lines]
"""

import json
import os
import statistics
import sys

REGRESSION_TOLERANCE = 0.15  # vs checked-in baseline
MONITOR_TOLERANCE = 0.05     # monitor-on vs paired monitor-off run
FASTPATH_MIN_SPEEDUP = 1.3   # cache-off / cache-on paired wall clocks
PROFILER_TOLERANCE = 0.05    # profiler-on vs paired profiler-off run
PROBES_TOLERANCE = 0.05      # probes-armed vs paired probes-disarmed run
MULTICORE_MIN_SCALING = 1.8  # 4-queue vs paired 1-queue virtual throughput
NOISY_MIN_RETENTION = 0.9    # guarded victim vs its solo reference
NOISY_SCENARIOS = ("arp_flood", "conntrack_churn", "overlay_hog")


def load_lines(path):
    rows = []
    with open(path) as f:
        for line in f:
            line = line.strip()
            if line.startswith("{"):
                rows.append(json.loads(line))
    return rows


# Every forwarding_loop knob and its default; rows predating a knob carry
# the default.
KNOB_DEFAULTS = {"trace_sample": 0, "monitor": 0, "fastpath": 0,
                 "filter_rules": 0, "profiler": 0, "probes": 0}
OVERHEAD = "overhead"  # on / off, printed as a percentage over 1
SPEEDUP = "speedup"    # off / on, printed as a factor

# (label, knob, off, on, field, ratio kind, bound, rows named when missing,
#  failure message formatted with the median and the bound)
PAIRED_GATES = (
    ("monitoring overhead", "monitor", 0, 1, "cpu_s", OVERHEAD,
     MONITOR_TOLERANCE, "monitor-on/off",
     "continuous monitoring costs {:.1f}% (> {:.0f}% tolerance)"),
    ("fast-path speedup", "fastpath", 0, 1, "wall_s", SPEEDUP,
     FASTPATH_MIN_SPEEDUP, "fast-path on/off",
     "flow cache speedup {:.2f}x (< {:.1f}x floor)"),
    ("profiler overhead", "profiler", 0, 1, "cpu_s", OVERHEAD,
     PROFILER_TOLERANCE, "profiler on/off",
     "cycle attribution costs {:.1f}% (> {:.0f}% tolerance)"),
    ("tracepoint overhead", "probes", 0, 1, "cpu_s", OVERHEAD,
     PROBES_TOLERANCE, "probes armed/disarmed",
     "armed tracepoints cost {:.1f}% (> {:.0f}% tolerance)"),
)


def knobs(row):
    return {k: row.get(k, d) for k, d in KNOB_DEFAULTS.items()}


def forwarding(rows, field):
    return [r for r in rows
            if r.get("bench") == "forwarding_loop" and field in r]


def default_config(rows, field):
    """`field` of every forwarding_loop row with all knobs at default."""
    return [r[field] for r in forwarding(rows, field)
            if knobs(r) == KNOB_DEFAULTS]


def pairs(rows, knob, off, on, field):
    """(off, on) values of `field` for each off-run and the run right after
    it, when that run sets `knob` to `on` and every other knob alike."""
    stream = forwarding(rows, field)
    out = []
    for a, b in zip(stream, stream[1:]):
        ka, kb = knobs(a), knobs(b)
        if ka.pop(knob) == off and kb.pop(knob) == on and ka == kb:
            out.append((a[field], b[field]))
    return out


def check_paired(report, gate, failures):
    label, knob, off, on, field, kind, bound, rows_name, message = gate
    found = pairs(report, knob, off, on, field)
    if not found:
        failures.append(f"missing {rows_name} forwarding_loop lines")
        return
    if kind == OVERHEAD:
        ratios = [on_ / off_ for off_, on_ in found]
        ratio = statistics.median(ratios)
        print(f"{label} per pair: "
              + ", ".join(f"{(r - 1) * 100:+.1f}%" for r in ratios)
              + f"; median {(ratio - 1) * 100:+.1f}%")
        if ratio > 1 + bound:
            failures.append(message.format((ratio - 1) * 100, bound * 100))
    else:
        speedups = [off_ / on_ for off_, on_ in found]
        speedup = statistics.median(speedups)
        print(f"{label} per pair: "
              + ", ".join(f"{s_:.2f}x" for s_ in speedups)
              + f"; median {speedup:.2f}x")
        if speedup < bound:
            failures.append(message.format(speedup, bound))


def multicore_scaling(rows, queues):
    """frames_per_s ratios of each `queues`-lane run over its 1-queue pair."""
    by_pair = {}
    for r in rows:
        if r.get("bench") != "multicore_scaling" or "frames_per_s" not in r:
            continue
        by_pair.setdefault(r.get("pair"), {})[r.get("queues")] = (
            r["frames_per_s"])
    return [
        p[queues] / p[1]
        for p in by_pair.values()
        if queues in p and 1 in p and p[1] > 0
    ]


def check_multicore(report, failures):
    ratios = multicore_scaling(report, 4)
    if not ratios:
        failures.append("missing multicore_scaling 1q/4q row pairs")
        return
    scaling = statistics.median(ratios)
    print("multicore 4-queue scaling per pair: "
          + ", ".join(f"{s_:.2f}x" for s_ in ratios)
          + f"; median {scaling:.2f}x")
    for q in (2, 8):
        extra = multicore_scaling(report, q)
        if extra:
            print(f"multicore {q}-queue scaling: median "
                  f"{statistics.median(extra):.2f}x")
    if scaling < MULTICORE_MIN_SCALING:
        failures.append(
            f"multicore 4-queue scaling {scaling:.2f}x "
            f"(< {MULTICORE_MIN_SCALING:.1f}x floor)")


def check_noisy_neighbor(report, failures):
    cells = {}
    for r in report:
        if r.get("bench") != "noisy_neighbor":
            continue
        cells[(r.get("scenario"), r.get("mode"))] = r
    for scenario in NOISY_SCENARIOS:
        guarded = cells.get((scenario, "guarded"))
        if guarded is None or "retention" not in guarded:
            failures.append(f"missing noisy_neighbor guarded row for "
                            f"{scenario}")
            continue
        retention = guarded["retention"]
        open_row = cells.get((scenario, "open"), {})
        open_note = (f" (open mode: {open_row['retention']:.2f})"
                     if "retention" in open_row else "")
        print(f"noisy_neighbor {scenario}: guarded retention "
              f"{retention:.2f}{open_note}")
        if retention < NOISY_MIN_RETENTION:
            failures.append(
                f"noisy_neighbor {scenario} guarded retention "
                f"{retention:.2f} (< {NOISY_MIN_RETENTION:.1f} floor)")


def main():
    if len(sys.argv) < 2:
        print(__doc__)
        return 2
    report = load_lines(sys.argv[1])

    # A bench_multicore or bench_noisy_neighbor report gates only its own
    # floor: the forwarding-loop pools don't exist in those files and vice
    # versa.
    if any(r.get("bench") in ("multicore_scaling", "noisy_neighbor")
           for r in report):
        allow = os.environ.get("ALLOW_BENCH_REGRESSION") == "1"
        failures = []
        if any(r.get("bench") == "multicore_scaling" for r in report):
            check_multicore(report, failures)
        else:
            check_noisy_neighbor(report, failures)
        if failures:
            for f in failures:
                print(f"{'WARNING' if allow else 'FAIL'}: {f}")
            if allow:
                print("ALLOW_BENCH_REGRESSION=1 set; not failing the build")
                return 0
            return 1
        print("bench gate: OK")
        return 0
    baseline_path = (
        sys.argv[2]
        if len(sys.argv) > 2
        else os.path.join(os.path.dirname(__file__), "BENCH_baseline.json")
    )
    baseline = load_lines(baseline_path)
    allow = os.environ.get("ALLOW_BENCH_REGRESSION") == "1"
    failures = []

    base = default_config(baseline, "wall_s")
    now = default_config(report, "wall_s")
    if not base or not now:
        failures.append("missing forwarding_loop trace=0 monitor=0 lines")
    else:
        ratio = statistics.median(now) / statistics.median(base)
        print(f"wall-clock: median {statistics.median(now):.4f}s vs baseline "
              f"{statistics.median(base):.4f}s ({(ratio - 1) * 100:+.1f}%)")
        if ratio > 1 + REGRESSION_TOLERANCE:
            failures.append(
                f"forwarding loop regressed {(ratio - 1) * 100:.1f}% "
                f"(> {REGRESSION_TOLERANCE * 100:.0f}% tolerance)")

    for gate in PAIRED_GATES:
        check_paired(report, gate, failures)

    if failures:
        for f in failures:
            print(f"{'WARNING' if allow else 'FAIL'}: {f}")
        if allow:
            print("ALLOW_BENCH_REGRESSION=1 set; not failing the build")
            return 0
        return 1
    print("bench gate: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
