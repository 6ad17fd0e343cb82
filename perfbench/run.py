#!/usr/bin/env python3
"""Benchmark of the Trans-FW simulator.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Builds perfbench/ (which builds the repository's library with the root
project's own flags) into $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench, runs the C++ driver for one workload and turns
its raw measurements into the metrics named in BENCHMARK.json.

--trace 0 reports the end-to-end metrics, measured with the simulator's
self-profiler off. --trace 1 reports the per-layer metrics: host seconds
per simulator layer from traced repetitions (SelfProfiler at its default
stride), counts and rates read from the simulations' deterministic
metric registry, and the profiler's own overhead against the untraced
repetitions the driver interleaves with the traced ones.

Every simulation is checked: it fails when its invariant watchdog
reports a violation, when a repetition of the same seed produces a
different digest of its deterministic metrics, when a traced profile's
buckets do not add up to its total, or when it throws. The human-readable
report goes first; the last line of stdout is one JSON object with the
keys correct, attempted, failed and metrics.

--smoke runs every workload once at a tiny scale in both modes and
checks that every metric of BENCHMARK.json is reported, with its unit.
"""

import argparse
import fcntl
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = ROOT / "BENCHMARK.json"

# The paper's headline (Fig. 11): Trans-FW improves performance by 53.8%.
PAPER_SPEEDUP = 1.538
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


# --- build -------------------------------------------------------------------

def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build():
    """Configure once, then build incrementally; returns the driver path."""
    out = build_dir()
    out.mkdir(parents=True, exist_ok=True)
    with open(out / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (out / "CMakeCache.txt").exists():
            steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", str(out), "--target", "perfbench",
                      "-j", str(os.cpu_count() or 1)])
        for cmd in steps:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
            if done.returncode != 0:
                # A failed configure leaves a cache behind; drop it so
                # the next attempt configures from scratch.
                (out / "CMakeCache.txt").unlink(missing_ok=True)
                raise RuntimeError("build failed: " + " ".join(cmd))
    return out / "perfbench"


def drive(binary, workload, seed, seconds, trace, smoke=False):
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if smoke:
        cmd.append("--smoke")
    done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                          text=True, timeout=RUN_TIMEOUT_S)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {done.returncode}")
    return json.loads(done.stdout)


# --- checks ------------------------------------------------------------------

def check(raw):
    """Count attempted and failed simulations; list what failed."""
    problems = []
    attempted = failed = 0
    first = {}  # point index -> digest of its first good simulation
    for n, rep in enumerate(raw["reps"]):
        if rep["error"]:
            attempted += raw["points"]
            failed += raw["points"]
            problems.append(f"rep {n} threw: {rep['error']}")
            continue
        for i, sim in enumerate(rep["sims"]):
            attempted += 1
            why = []
            if sim["violations"]:
                why.append(f"{sim['violations']:.0f} invariant violations")
            if first.setdefault(i, sim["digest"]) != sim["digest"]:
                why.append(f"digest {sim['digest']} != {first[i]}")
            if rep["traced"]:
                if raw["box"]["transfw_obs"] and not sim["profile"]["stride"]:
                    why.append("traced run has no profile")
                if not sim["profile_ok"]:
                    why.append("profile buckets do not sum to its total")
            if why:
                failed += 1
                problems.append(f"rep {n} {sim['app']}/{sim['label']}: "
                                + "; ".join(why))
    attempted += raw["reference_points"]
    done = [s for s in raw["reference"] if "error" not in s]
    failed += raw["reference_points"] - len(done)
    problems += [f"reference threw: {s['error']}"
                 for s in raw["reference"] if "error" in s]
    for sim in done:
        if sim["violations"]:
            failed += 1
            problems.append(f"reference {sim['app']}/{sim['label']}: "
                            "invariant violations")
    return attempted, failed, problems


# --- metrics -----------------------------------------------------------------

def geomean(values):
    return math.exp(sum(math.log(v) for v in values) / len(values))


def speedups(sims):
    """Baseline / Trans-FW simulated time per application."""
    cycles = {(s["app"], s["label"]): s["exec_cycles"] for s in sims}
    return {app: cycles[(app, "baseline")] / cycles[(app, "transfw")]
            for app, label in cycles if label == "transfw"
            and (app, "baseline") in cycles}


def tenth(values):
    """The 10th percentile: the fast end of a run's repetitions.

    On a shared host (a 4-vCPU Xeon VM was measured) other tenants
    thrash the last-level cache in phases of a few seconds, and a
    repetition that runs during one takes up to 1.7x longer. The median
    of a run depends on how much of it those phases covered; the fast
    tail is the program with the cache to itself, and a slower program
    moves it just the same.
    """
    values = sorted(values)
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[0]


def end_to_end(raw, untraced):
    first = untraced[0]
    sims = first["sims"]
    if raw["workload"] == "fig11-sweep":
        speedup = geomean(list(speedups(sims).values()))
    else:
        speedup = (raw["reference"][0]["exec_cycles"]
                   / sims[0]["exec_cycles"])
    fast = lambda f: tenth(f(r) for r in untraced)
    return {
        "wall_s": fast(lambda r: r["wall_s"]),
        "setup_s": fast(lambda r: r["setup_s"]),
        "sim_kips": -fast(lambda r: -sum(s["instructions"] for s in r["sims"])
                          / r["run_s"] / 1e3),
        "peak_rss_mb": raw["peak_rss_mb"],
        "sim_cycles": sum(s["exec_cycles"] for s in sims),
        "xlat_mean_cycles": first["xlat_mean"],
        "xlat_p99_cycles": first["xlat_p99"],
        "transfw_speedup": speedup,
    }


class Layers:
    """Per-layer metrics of one traced run, with their expected effect.

    Host seconds are medians over the traced repetitions, summed over a
    repetition's simulations. Counts and rates come from the metric
    registry of the first traced repetition (deterministic per seed);
    over a sweep, counts are summed and rates averaged across its points.
    """

    # Absent registry keys take their neutral value: shard.* exists only
    # when the host MMU is sharded, fabric.* only in observability builds.
    NEUTRAL = {"shard.skew.waitRatio": 1.0, "shard.skew.loadShareMax": 1.0}

    def __init__(self, raw, untraced, traced):
        self.raw, self.untraced, self.traced = raw, untraced, traced
        self.sims = traced[0]["sims"]

    def values(self, key):
        return [s["metrics"].get(key, self.NEUTRAL.get(key, 0.0))
                for s in self.sims]

    def sum(self, key):
        return sum(self.values(key))

    def mean(self, key):
        return statistics.fmean(self.values(key))

    def ratio(self, num, den):
        d = self.sum(den)
        return self.sum(num) / d if d else 0.0

    def prof(self, bucket):
        return statistics.median(
            sum(s["profile"].get(bucket, 0.0) for s in r["sims"])
            for r in self.traced)

    def med(self, reps, f):
        return statistics.median(f(r) for r in reps)

    def metrics(self):
        u, t = self.untraced, self.traced
        jobs = self.raw["jobs"]
        events = self.sum("exec.events")
        batches = [v for v, b in zip(self.values("driver.avgBatchSize"),
                                     self.values("driver.batches")) if b]
        wall_u = self.med(u, lambda r: r["wall_s"])
        wall_t = self.med(t, lambda r: r["wall_s"])
        # name -> (value, which end-to-end metric it should move, where)
        m = {
            "sim.kernel_s": (self.prof("kernel"),
                             "wall_s/sim_kips @ pod64-switch, mt-full; "
                             "little on compute-bound fig11-sweep apps"),
            "sim.lane_sync_s": (self.prof("laneSync"),
                                "wall_s/sim_kips @ pod64-switch, mt-full"),
            "sim.ns_per_event": (
                self.med(u, lambda r: r["run_s"] * 1e9
                         / sum(s["events"] for s in r["sims"])),
                "wall_s/sim_kips @ pod64-switch, mt-full"),
            "sim.events": (events, "wall_s/sim_kips @ pod64-switch, mt-full"),
            "sim.events_per_xlat": (self.ratio("exec.events", "xlat.l2Misses"),
                                    "wall_s/sim_kips @ pod64-switch, mt-full"),
            "sim.peak_backlog": (max(self.values("exec.peakEventBacklog")),
                                 "wall_s/peak_rss_mb @ pod64-switch"),
            "gpu.cu_s": (self.prof("computeUnit"),
                         "wall_s @ fig11-sweep (AES/KM/SC); "
                         "little @ pod64-switch"),
            "gpu.instructions": (self.sum("exec.instructions"),
                                 "sim_kips @ fig11-sweep"),
            "tlb.pwc_s": (self.prof("tlbPwc"), "wall_s @ mt-full"),
            "tlb.l1_hit_rate": (self.mean("tlb.l1HitRate"),
                                "xlat_mean_cycles @ mt-full"),
            "tlb.l2_hit_rate": (self.mean("tlb.l2HitRate"),
                                "xlat_mean_cycles @ mt-full"),
            "tlb.host_hit_rate": (self.mean("tlb.hostHitRate"),
                                  "xlat_mean_cycles @ mt-full"),
            "pwc.gmmu_full_miss_frac": (self.mean("pwc.gmmu.L0"),
                                        "xlat_mean_cycles @ mt-full"),
            "pwc.host_full_miss_frac": (self.mean("pwc.host.L0"),
                                        "xlat_mean_cycles @ mt-full"),
            "mmu.gmmu_s": (self.prof("gmmu"), "wall_s @ mt-full"),
            "mmu.host_mmu_s": (self.prof("hostMmu"),
                               "wall_s @ mt-full, pod64-switch"),
            "mmu.page_walk_s": (self.prof("pageWalk"), "wall_s @ mt-full"),
            "mmu.gmmu_queue_wait_cycles": (
                self.mean("queue.gmmuWaitMean"), "xlat_mean_cycles @ mt-full"),
            "mmu.host_queue_wait_cycles": (
                self.mean("queue.hostWaitMean"),
                "xlat_p99_cycles @ pod64-switch; xlat_mean_cycles @ mt-full"),
            "mmu.host_queue_overflows": (self.sum("queue.hostOverflows"),
                                         "xlat_p99_cycles @ pod64-switch"),
            "mmu.host_walks": (self.sum("walk.host"),
                               "xlat_mean_cycles @ mt-full"),
            "mmu.shard_wait_ratio": (max(self.values("shard.skew.waitRatio")),
                                     "xlat_p99_cycles @ pod64-switch"),
            "mmu.shard_load_share_max": (
                max(self.values("shard.skew.loadShareMax")),
                "xlat_p99_cycles @ pod64-switch"),
            "transfw.forwarding_s": (self.prof("forwarding"),
                                     "wall_s @ mt-full"),
            "transfw.prt_lookups": (self.sum("transfw.prtLookups"),
                                    "sim_cycles/transfw_speedup @ fig11-sweep"),
            "transfw.short_circuits": (
                self.sum("transfw.shortCircuits"),
                "sim_cycles/transfw_speedup @ fig11-sweep; "
                "no move on AES/FIR"),
            "transfw.ft_lookups": (self.sum("transfw.ftLookups"),
                                   "sim_cycles/transfw_speedup @ fig11-sweep"),
            "transfw.forwards": (self.sum("transfw.forwards"),
                                 "xlat_p99_cycles @ mt-full"),
            "transfw.forward_success_ratio": (
                self.ratio("transfw.forwardSuccess", "transfw.forwards"),
                "transfw_speedup @ fig11-sweep; xlat_p99_cycles @ mt-full"),
            "transfw.duplicate_walks": (self.sum("transfw.duplicateWalks"),
                                        "xlat_p99_cycles @ mt-full"),
            "transfw.filter_overflows": (
                self.sum("transfw.prtOverflows")
                + self.sum("transfw.ftOverflows"),
                "transfw_speedup @ fig11-sweep"),
            "interconnect.s": (self.prof("interconnect"),
                               "wall_s @ pod64-switch"),
            "interconnect.mean_util": (self.mean("fabric.meanUtilization"),
                                       "xlat_p99_cycles @ pod64-switch"),
            "interconnect.worst_wait_p99_cycles": (
                max(self.values("fabric.worstQueueWaitP99")),
                "xlat_p99_cycles @ pod64-switch"),
            "uvm.migration_s": (self.prof("migration"),
                                "wall_s @ st-uvm-rw; not pod64-switch"),
            "uvm.migrations": (self.sum("migration.count"),
                               "sim_cycles @ st-uvm-rw"),
            "uvm.replications": (self.sum("migration.replications"),
                                 "sim_cycles @ st-uvm-rw"),
            "uvm.write_invalidations": (
                self.sum("migration.writeInvalidations"),
                "sim_cycles @ st-uvm-rw"),
            "uvm.bytes_moved": (self.sum("migration.bytesMoved"),
                                "sim_cycles/wall_s @ st-uvm-rw"),
            "uvm.driver_batches": (self.sum("driver.batches"),
                                   "sim_cycles/wall_s @ st-uvm-rw"),
            "uvm.driver_batch_size": (
                statistics.fmean(batches) if batches else 0.0,
                "sim_cycles @ st-uvm-rw"),
            "system.construct_s": (self.med(u, lambda r: r["setup_s"]),
                                   "setup_s @ pod64-switch"),
            "system.teardown_s": (self.med(u, lambda r: r["teardown_s"]),
                                  "wall_s @ pod64-switch"),
            "system.sweep_efficiency": (
                self.med(u, lambda r: r["run_s"] / (jobs * r["wall_s"])),
                "wall_s @ fig11-sweep"),
            "system.memo_hits": (u[0]["memo_hits"], "wall_s @ fig11-sweep"),
            "obs.stats_s": (self.prof("stats"), "none (profiler health)"),
            "obs.profile_coverage": (
                self.med(t, lambda r: sum(s["profile"]["total_s"]
                                          for s in r["sims"]) / r["run_s"]),
                "none (profiler health)"),
            "obs.kernel_share": (
                self.med(t, lambda r: sum(s["profile"]["kernel"]
                                          for s in r["sims"])
                         / max(1e-12, sum(s["profile"]["total_s"]
                                          for s in r["sims"]))),
                "none (profiler health)"),
            "obs.trace_overhead": (wall_t / wall_u - 1.0,
                                   "none (profiler cost)"),
        }
        # Latency attribution: modeled cycles per L2-TLB miss charged to
        # each bucket (obs::AttribBucket), the causes behind
        # xlat_mean_cycles.
        for key in sorted(self.sims[0]["metrics"]):
            if key.startswith("attrib."):
                m[key + "_cycles"] = (self.ratio(key, "xlat.l2Misses"),
                                      "xlat_mean_cycles @ same workload")
        return m


# --- reporting ---------------------------------------------------------------

def workload_digest(sims):
    h = 1469598103934665603
    for s in sims:
        for c in s["digest"].encode():
            h = ((h ^ c) * 1099511628211) % (1 << 64)
    return f"{h:016x}"


def accuracy_lines(raw, untraced):
    if raw["workload"] != "fig11-sweep":
        return ["accuracy: no paper figure for this configuration; "
                "transfw_speedup is unvalidated here"]
    lines = []
    for name, sims in (("run seed %d" % raw["seed"], untraced[0]["sims"]),
                       ("held-out seed %d" % raw["held_out_seed"],
                        raw["reference"])):
        per_app = speedups(sims)
        if not per_app:
            continue
        g = geomean(list(per_app.values()))
        lines.append(
            f"accuracy ({name}): transfw_speedup {g:.4f} (+{(g-1)*100:.1f}%)"
            f" vs paper +{(PAPER_SPEEDUP-1)*100:.1f}%: error "
            f"{(g-PAPER_SPEEDUP)*100:+.1f} pp, "
            f"{(g/PAPER_SPEEDUP-1)*100:+.1f}% relative")
        lines.append("  per app: " + " ".join(
            f"{a}={v:.3f}" for a, v in per_app.items()))
    return lines


def measure(binary, spec, workload, seed, seconds, trace, smoke=False):
    """Run one workload; return (result, report lines, problems)."""
    raw = drive(binary, workload, seed, seconds, trace, smoke)
    attempted, failed, problems = check(raw)
    good = [r for r in raw["reps"] if not r["error"]]
    untraced = [r for r in good if not r["traced"]]
    traced = [r for r in good if r["traced"]]
    if not untraced or (trace and not traced):
        raise RuntimeError("no repetition completed: " + "; ".join(problems))

    box = raw["box"]
    lines = [
        f"workload {workload} seed {seed} trace {trace} "
        f"scale {raw['scale']:g} jobs {raw['jobs']}",
        f"box: nproc {box['nproc']}, {box['compiler']}, "
        f"{box['build_type']}, TRANSFW_OBS={box['transfw_obs']}",
        f"repetitions: {len(untraced)} untraced, {len(traced)} traced",
        f"digest {workload_digest(untraced[0]['sims'])}",
    ]
    lines += ["FAIL " + p for p in problems]
    lines.append(f"fail_frac {failed / attempted:.4g} "
                 f"({failed} of {attempted} simulations)")

    if trace:
        values = Layers(raw, untraced, traced).metrics()
        wanted = spec["per_layer"]
    else:
        values = {k: (v, None) for k, v in end_to_end(raw, untraced).items()}
        wanted = spec["end_to_end"]
        lines += accuracy_lines(raw, untraced)
    metrics = {}
    for entry in wanted:
        value, target = values.get(entry["name"], (None, None))
        if value is None:
            problems.append(f"metric {entry['name']} not measured")
            continue
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
        lines.append(f"{entry['name']:40s} {value:16.6g} {entry['unit']:8s}"
                     + (f" -> {target}" if target else ""))
    result = {"correct": failed == 0 and not problems,
              "attempted": attempted, "failed": failed, "metrics": metrics}
    return result, lines, problems


def smoke(binary, spec):
    ok = True
    for entry in spec["workloads"]:
        for trace in (0, 1):
            result, lines, problems = measure(binary, spec, entry["name"], 1,
                                              0, trace, smoke=True)
            wanted = spec["per_layer" if trace else "end_to_end"]
            names = {e["name"]: e["unit"] for e in wanted}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            status = "ok"
            if got != names or not result["correct"]:
                ok = False
                status = "FAIL " + "; ".join(problems)
            print(f"smoke {entry['name']} trace {trace}: "
                  f"{len(got)}/{len(names)} metrics, "
                  f"{result['attempted']} simulations: {status}")
    print("smoke: " + ("ok" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    try:
        spec = json.loads(SPEC.read_text())
        binary = build()
        if args.smoke:
            return smoke(binary, spec)
        names = [w["name"] for w in spec["workloads"]]
        if args.workload not in names:
            parser.error(f"--workload must be one of {names}")
        result, lines, _ = measure(binary, spec, args.workload, args.seed,
                                   args.seconds, args.trace)
    except (OSError, RuntimeError, ValueError, KeyError,
            subprocess.SubprocessError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    for line in lines:
        print(line)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
