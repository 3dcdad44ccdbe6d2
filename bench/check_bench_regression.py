#!/usr/bin/env python3
"""Gate on the forwarding-loop wall clock.

Compares a fresh bench_micro JSON report (the '{...}' lines the binary
prints after the google-benchmark table) against the checked-in baseline:

  1. wall-clock regression: the tracing-off, monitor-off forwarding loop
     must stay within REGRESSION_TOLERANCE (default 15%) of the baseline,
     comparing medians across however many lines each side has.
  2. monitoring overhead: bench_micro emits alternating monitor-off /
     monitor-on runs; each on-run is divided by the off-run that ran
     back-to-back with it (pairing cancels machine drift) and the median
     pairwise ratio must stay within MONITOR_TOLERANCE (default 5%).
     This check uses cpu_s, not wall_s: scheduler preemption on shared
     runners inflates wall clocks by far more than 5%, while process CPU
     time isolates the work the monitoring stack actually adds.
  3. fast-path speedup: bench_micro emits alternating cache-off / cache-on
     runs under a 12-rule firewall; the median pairwise wall-clock speedup
     (off / on) must be at least FASTPATH_MIN_SPEEDUP (default 1.3x) —
     the flow verdict cache has to actually pay for itself.
  4. dispatch-batch sweep: bench_micro emits alternating batch=1 /
     batch=N runs (N in {8, 32, 64}); the median pairwise cpu_s speedup
     (batch=1 / batch=N) must stay at or above BATCH_MIN_SPEEDUP
     (default 0.90) — batched dispatch may never cost more than 10% over
     per-event stepping. Rows carry a "batch" field; rows with batch != 64
     (the default) are excluded from checks 1-2 so the sweep does not
     pollute those pools.
  5. profiler overhead: bench_micro emits alternating profiler-off /
     profiler-on runs; each on-run is divided by the off-run that ran
     back-to-back with it and the median pairwise cpu_s ratio must stay
     within PROFILER_TOLERANCE (default 5%) — full cycle attribution has
     to stay cheap enough to leave on. Rows carry a "profiler" field;
     profiler-on rows are excluded from checks 1-4.
  6. tracepoint overhead: bench_micro emits alternating probes-disarmed /
     probes-armed runs (every probe armed, no predicates); each armed run
     is divided by the disarmed run that ran back-to-back with it and the
     median pairwise cpu_s ratio must stay within PROBES_TOLERANCE
     (default 5%) — always-on tracing only earns its keep if arming the
     full probe set is nearly free. Rows carry a "probes" field;
     probes-armed rows are excluded from checks 1-5.

  7. multicore scaling: bench_multicore emits "multicore_scaling" rows in
     1-queue / N-queue pairs (matched by the "pair" field, the 1-queue
     partner running back-to-back in the same process); the 4-queue
     delivered-frames-per-virtual-second ratio over its paired 1-queue run
     must be at least MULTICORE_MIN_SCALING (default 1.8x) — sharding the
     dataplane across lanes has to actually buy parallel virtual time.
     These rows live in a separate report file (bench_multicore's stdout);
     pass it as the report when gating that binary.

  8. tenant isolation: bench_noisy_neighbor emits "noisy_neighbor" rows,
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
BATCH_MIN_SPEEDUP = 0.90     # batch=1 / batch=N paired cpu clocks
PROFILER_TOLERANCE = 0.05    # profiler-on vs paired profiler-off run
PROBES_TOLERANCE = 0.05      # probes-armed vs paired probes-disarmed run
MULTICORE_MIN_SCALING = 1.8  # 4-queue vs paired 1-queue virtual throughput
NOISY_MIN_RETENTION = 0.9    # guarded victim vs its solo reference
NOISY_SCENARIOS = ("arp_flood", "conntrack_churn", "overlay_hog")
DEFAULT_BATCH = 64           # rows without a "batch" field predate the sweep


def load_lines(path):
    rows = []
    with open(path) as f:
        for line in f:
            line = line.strip()
            if line.startswith("{"):
                rows.append(json.loads(line))
    return rows


def times(rows, trace_sample, monitor, field="wall_s", fastpath=0,
          filter_rules=0, batch=DEFAULT_BATCH):
    return [
        r[field]
        for r in rows
        if r.get("bench") == "forwarding_loop"
        and r.get("trace_sample") == trace_sample
        and r.get("monitor", 0) == monitor
        and r.get("fastpath", 0) == fastpath
        and r.get("filter_rules", 0) == filter_rules
        and r.get("batch", DEFAULT_BATCH) == batch
        and r.get("profiler", 0) == 0
        and r.get("probes", 0) == 0
        and field in r
    ]


def batch_pairs(rows):
    """(batch=1 cpu_s, batch=N cpu_s) pairs in report order.

    The sweep emits each batch=1 run immediately before its batched
    partner, so adjacency in the plain-config row stream recovers the
    pairing regardless of how many other plain rows precede the sweep.
    """
    plain = [
        r
        for r in rows
        if r.get("bench") == "forwarding_loop"
        and r.get("trace_sample") == 0
        and r.get("monitor", 0) == 0
        and r.get("fastpath", 0) == 0
        and r.get("filter_rules", 0) == 0
        and r.get("profiler", 0) == 0
        and r.get("probes", 0) == 0
        and "cpu_s" in r
    ]
    return [
        (a["cpu_s"], b["cpu_s"])
        for a, b in zip(plain, plain[1:])
        if a.get("batch", DEFAULT_BATCH) == 1
        and b.get("batch", DEFAULT_BATCH) != 1
    ]


def profiler_pairs(rows):
    """(profiler-off cpu_s, profiler-on cpu_s) pairs in report order.

    The profiler sweep emits each off-run immediately before its on-run
    at the default config, so adjacency in that row stream recovers the
    pairing the same way batch_pairs does.
    """
    plain = [
        r
        for r in rows
        if r.get("bench") == "forwarding_loop"
        and r.get("trace_sample") == 0
        and r.get("monitor", 0) == 0
        and r.get("fastpath", 0) == 0
        and r.get("filter_rules", 0) == 0
        and r.get("batch", DEFAULT_BATCH) == DEFAULT_BATCH
        and r.get("probes", 0) == 0
        and "cpu_s" in r
    ]
    return [
        (a["cpu_s"], b["cpu_s"])
        for a, b in zip(plain, plain[1:])
        if a.get("profiler", 0) == 0 and b.get("profiler", 0) == 1
    ]


def probes_pairs(rows):
    """(probes-disarmed cpu_s, probes-armed cpu_s) pairs in report order.

    The tracepoint sweep emits each disarmed run immediately before its
    armed partner at the default config, so adjacency in that row stream
    recovers the pairing the same way profiler_pairs does.
    """
    plain = [
        r
        for r in rows
        if r.get("bench") == "forwarding_loop"
        and r.get("trace_sample") == 0
        and r.get("monitor", 0) == 0
        and r.get("fastpath", 0) == 0
        and r.get("filter_rules", 0) == 0
        and r.get("batch", DEFAULT_BATCH) == DEFAULT_BATCH
        and r.get("profiler", 0) == 0
        and "cpu_s" in r
    ]
    return [
        (a["cpu_s"], b["cpu_s"])
        for a, b in zip(plain, plain[1:])
        if a.get("probes", 0) == 0 and b.get("probes", 0) == 1
    ]


def fastpath_rows(rows, fastpath):
    return [
        r["wall_s"]
        for r in rows
        if r.get("bench") == "forwarding_loop"
        and r.get("fastpath", 0) == fastpath
        and r.get("filter_rules", 0) > 0
        and r.get("probes", 0) == 0
        and "wall_s" in r
    ]


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

    base = times(baseline, 0, 0)
    now = times(report, 0, 0)
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

    off = times(report, 0, 0, "cpu_s")
    on = times(report, 0, 1, "cpu_s")
    if not off or not on:
        failures.append("missing monitor-on/off forwarding_loop lines")
    else:
        pairs = list(zip(off, on))  # report order: off[i] ran just before on[i]
        ratios = [o / f for f, o in pairs]
        ratio = statistics.median(ratios)
        print("monitoring overhead per pair: "
              + ", ".join(f"{(r - 1) * 100:+.1f}%" for r in ratios)
              + f"; median {(ratio - 1) * 100:+.1f}%")
        if ratio > 1 + MONITOR_TOLERANCE:
            failures.append(
                f"continuous monitoring costs {(ratio - 1) * 100:.1f}% "
                f"(> {MONITOR_TOLERANCE * 100:.0f}% tolerance)")

    fp_off = fastpath_rows(report, 0)
    fp_on = fastpath_rows(report, 1)
    if not fp_off or not fp_on:
        failures.append("missing fast-path on/off forwarding_loop lines")
    else:
        pairs = list(zip(fp_off, fp_on))  # off[i] ran just before on[i]
        speedups = [off / on for off, on in pairs]
        speedup = statistics.median(speedups)
        print("fast-path speedup per pair: "
              + ", ".join(f"{s_:.2f}x" for s_ in speedups)
              + f"; median {speedup:.2f}x")
        if speedup < FASTPATH_MIN_SPEEDUP:
            failures.append(
                f"flow cache speedup {speedup:.2f}x "
                f"(< {FASTPATH_MIN_SPEEDUP:.1f}x floor)")

    bp = batch_pairs(report)
    if not bp:
        failures.append("missing dispatch-batch sweep forwarding_loop lines")
    else:
        speedups = [one / batched for one, batched in bp]
        speedup = statistics.median(speedups)
        print("dispatch-batch speedup per pair: "
              + ", ".join(f"{s_:.2f}x" for s_ in speedups)
              + f"; median {speedup:.2f}x")
        if speedup < BATCH_MIN_SPEEDUP:
            failures.append(
                f"batched dispatch speedup {speedup:.2f}x "
                f"(< {BATCH_MIN_SPEEDUP:.2f}x floor)")

    pp = profiler_pairs(report)
    if not pp:
        failures.append("missing profiler on/off forwarding_loop lines")
    else:
        ratios = [on_ / off_ for off_, on_ in pp]
        ratio = statistics.median(ratios)
        print("profiler overhead per pair: "
              + ", ".join(f"{(r - 1) * 100:+.1f}%" for r in ratios)
              + f"; median {(ratio - 1) * 100:+.1f}%")
        if ratio > 1 + PROFILER_TOLERANCE:
            failures.append(
                f"cycle attribution costs {(ratio - 1) * 100:.1f}% "
                f"(> {PROFILER_TOLERANCE * 100:.0f}% tolerance)")

    tp = probes_pairs(report)
    if not tp:
        failures.append("missing probes armed/disarmed forwarding_loop lines")
    else:
        ratios = [on_ / off_ for off_, on_ in tp]
        ratio = statistics.median(ratios)
        print("tracepoint overhead per pair: "
              + ", ".join(f"{(r - 1) * 100:+.1f}%" for r in ratios)
              + f"; median {(ratio - 1) * 100:+.1f}%")
        if ratio > 1 + PROBES_TOLERANCE:
            failures.append(
                f"armed tracepoints cost {(ratio - 1) * 100:.1f}% "
                f"(> {PROBES_TOLERANCE * 100:.0f}% tolerance)")

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
