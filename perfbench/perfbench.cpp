/**
 * perfbench: runs one named workload of the Trans-FW simulator for a
 * fixed host-time budget and prints one JSON document of raw
 * measurements on stdout. run.py builds this program and turns the
 * document into the named, checked metrics of BENCHMARK.json.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1 [--smoke]
 *
 * The simulator is driven only through its public API:
 * sys::MultiGpuSystem (construct, run(), destroy) for the single-
 * simulation workloads and sys::SweepRunner::run() for the figure
 * sweep. Every configuration is the library default apart from the
 * workload's own knobs and the seed, so the default serial kernel
 * (cfg.sim.lanes = 0) is what gets measured.
 *
 * --trace 0 repeats the workload with the self-profiler off
 * (cfg.obs.selfProfile = false) until S seconds have passed. --trace 1
 * alternates an untraced repetition with a traced one (profiler on at
 * its default stride), so the per-layer host times and the profiler's
 * own overhead come from one process on one box. Each repetition
 * records a digest of every simulation's deterministic metrics; a
 * digest that differs between repetitions of one seed is a failure.
 */
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <memory>
#include <string>
#include <vector>

#include "obs/histogram.hpp"
#include "sim/task_pool.hpp"
#include "system/report.hpp"
#include "transfw/transfw.hpp"

using namespace transfw;

namespace {

using Clock = std::chrono::steady_clock;

/** Worker threads of the figure sweep, clamped to the box's CPUs. */
constexpr int kSweepJobs = 4;
/** The held-out seed of the accuracy check is the run's seed + this. */
constexpr std::uint64_t kHeldOutSeedOffset = 1000;
/** Repetitions per mode even when one outlasts the time budget: the
 *  same-seed digest check needs a repeat. */
constexpr int kMinReps = 2;
/** Work scale of every workload under --smoke. */
constexpr double kSmokeScale = 0.02;

double
since(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** One simulation: an application under a configuration. */
struct Point
{
    std::string app;
    std::string label; ///< "transfw", "baseline", ...
    cfg::SystemConfig config;
};

struct Workload
{
    std::vector<Point> points;    ///< the measured simulations
    std::vector<Point> reference; ///< untimed companions (see buildWorkload)
    double scale = 1.0;
    bool sweep = false;           ///< run points through SweepRunner
};

/**
 * Build workload @p name at @p seed. The reference points complete the
 * modeled metrics outside the timed loop: the Trans-FW-off counterpart
 * of a single simulation (for transfw_speedup), or the whole sweep at
 * the held-out seed (for the accuracy line).
 */
bool
buildWorkload(const std::string &name, std::uint64_t seed, bool smoke,
              Workload &w)
{
    auto seeded = [seed](cfg::SystemConfig c, std::uint64_t offset = 0) {
        c.seed = seed + offset;
        return c;
    };
    if (name == "fig11-sweep") {
        w.sweep = true;
        w.scale = 1.0;
        for (std::uint64_t offset : {std::uint64_t{0}, kHeldOutSeedOffset}) {
            auto &dst = offset ? w.reference : w.points;
            for (const wl::AppInfo &info : wl::appTable()) {
                dst.push_back({info.abbr, "baseline",
                               seeded(sys::baselineConfig(), offset)});
                dst.push_back({info.abbr, "transfw",
                               seeded(sys::transFwConfig(), offset)});
            }
        }
    } else {
        cfg::SystemConfig fw = seeded(sys::transFwConfig());
        std::string app;
        if (name == "mt-full") {
            app = "MT";
            w.scale = 4.0;
        } else if (name == "pod64-switch") {
            app = "MT";
            w.scale = 1.0;
            fw.numGpus = 64;
            fw.peerTopology = ic::Topology::Switch;
            fw.hostShards = 4;
            fw.transFw.ftReplicated = false;
        } else if (name == "st-uvm-rw") {
            app = "ST";
            w.scale = 8.0;
            fw.faultMode = cfg::FaultMode::UvmDriver;
            fw.migrationPolicy = cfg::MigrationPolicy::ReadReplicate;
        } else {
            return false;
        }
        cfg::SystemConfig base = fw;
        base.transFw.enabled = false;
        w.points.push_back({app, "transfw", fw});
        w.reference.push_back({app, "baseline", base});
    }
    if (smoke)
        w.scale = kSmokeScale;
    return true;
}

/** FNV-1a over the sorted deterministic metrics (the ledger's set). */
std::uint64_t
digest(const stats::Registry &registry)
{
    std::uint64_t h = 1469598103934665603ULL;
    for (const auto &[key, value] : registry.values()) {
        std::string line = key + sim::strfmt("=%.17g;", value);
        for (unsigned char c : line) {
            h ^= c;
            h *= 1099511628211ULL;
        }
    }
    return h;
}

// --- JSON output -----------------------------------------------------------

std::string
num(double v)
{
    return std::isfinite(v) ? sim::strfmt("%.17g", v) : "null";
}

std::string
quoted(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20)
            out += c;
    }
    return out + "\"";
}

/** One simulation's record: identity, checks, host time, profile. */
std::string
simJson(const Point &point, const sys::SimResults &r, bool withMetrics)
{
    stats::Registry registry = sys::toRegistry(r);
    const obs::HostProfile &p = r.hostProfile;
    // Traced-run hygiene: the profile's buckets must add up to its
    // total exactly (both accumulate the same clock intervals).
    bool profileOk = std::fabs(p.bucketSum() - p.totalSeconds) <=
                     1e-9 * std::max(1.0, p.totalSeconds);
    std::string s = "{\"app\":" + quoted(point.app) +
                    ",\"label\":" + quoted(point.label) +
                    ",\"digest\":\"" +
                    sim::strfmt("%016llx", static_cast<unsigned long long>(
                                               digest(registry))) +
                    "\",\"violations\":" + num(r.obsCheckViolations) +
                    ",\"exec_cycles\":" + num(r.execTime) +
                    ",\"instructions\":" + num(r.instructions) +
                    ",\"events\":" + num(r.eventsExecuted) +
                    ",\"run_s\":" + num(r.hostWallSeconds) +
                    ",\"profile_ok\":" + (profileOk ? "true" : "false") +
                    ",\"profile\":{\"stride\":" + num(p.stride) +
                    ",\"total_s\":" + num(p.totalSeconds);
    for (std::size_t b = 0; b < obs::kNumProfBuckets; ++b)
        s += "," + quoted(obs::profBucketName(static_cast<obs::ProfBucket>(b))) +
             ":" + num(p.seconds[b]);
    s += "}";
    if (withMetrics) {
        s += ",\"metrics\":{";
        bool first = true;
        for (const auto &[key, value] : registry.values()) {
            s += (first ? "" : ",") + quoted(key) + ":" + num(value);
            first = false;
        }
        s += "}";
    }
    return s + "}";
}

// --- one repetition --------------------------------------------------------

struct Rep
{
    bool traced = false;
    double setup = 0, run = 0, teardown = 0, wall = 0;
    std::vector<sys::SimResults> results; ///< one per point
    sys::SweepRunner::Stats sweep;
    std::string error; ///< non-empty when the repetition threw
};

cfg::SystemConfig
withProfiler(cfg::SystemConfig c, bool traced)
{
    c.obs.selfProfile = traced;
    return c;
}

/** Construct, run and destroy the single simulation of @p w. */
void
runSingle(const Workload &w, Rep &rep)
{
    const Point &p = w.points.front();
    cfg::SystemConfig config = withProfiler(p.config, rep.traced);
    Clock::time_point t0 = Clock::now();
    auto workload = wl::makeApp(p.app, w.scale);
    auto system = std::make_unique<sys::MultiGpuSystem>(config, *workload);
    rep.setup = since(t0);
    Clock::time_point t1 = Clock::now();
    rep.results.push_back(system->run());
    rep.run = since(t1);
    Clock::time_point t2 = Clock::now();
    system.reset();
    workload.reset();
    rep.teardown = since(t2);
    rep.wall = since(t0);
}

std::vector<sys::RunSpec>
specsOf(const std::vector<Point> &points, double scale, bool traced)
{
    std::vector<sys::RunSpec> specs;
    for (const Point &p : points)
        specs.push_back({p.app, withProfiler(p.config, traced), scale});
    return specs;
}

/**
 * Set up every point once (workload build + construction, then
 * destruction, all serial), then run the whole sweep through a fresh
 * SweepRunner so nothing is served from an earlier repetition's memo.
 */
void
runSweep(const Workload &w, int jobs, Rep &rep)
{
    for (const Point &p : w.points) {
        cfg::SystemConfig config = withProfiler(p.config, rep.traced);
        Clock::time_point t0 = Clock::now();
        auto workload = wl::makeApp(p.app, w.scale);
        auto system =
            std::make_unique<sys::MultiGpuSystem>(config, *workload);
        rep.setup += since(t0);
        Clock::time_point t1 = Clock::now();
        system.reset();
        workload.reset();
        rep.teardown += since(t1);
    }
    sys::SweepRunner runner(jobs);
    runner.setLedgerPath("");
    std::vector<sys::RunSpec> specs = specsOf(w.points, w.scale, rep.traced);
    Clock::time_point t0 = Clock::now();
    rep.results = runner.run(specs);
    rep.wall = since(t0);
    rep.sweep = runner.stats();
    for (const sys::SimResults &r : rep.results)
        rep.run += r.hostWallSeconds;
}

std::string
repJson(const Workload &w, const Rep &rep, bool withMetrics)
{
    std::string s = sim::strfmt(
        "{\"traced\":%s,\"setup_s\":%s,\"run_s\":%s,\"teardown_s\":%s,"
        "\"wall_s\":%s,\"memo_hits\":%s,\"error\":%s",
        rep.traced ? "true" : "false", num(rep.setup).c_str(),
        num(rep.run).c_str(), num(rep.teardown).c_str(),
        num(rep.wall).c_str(), num(rep.sweep.memoHits).c_str(),
        quoted(rep.error).c_str());
    if (rep.error.empty()) {
        // Modeled translation latency over every L2-TLB miss of the
        // workload: the per-GPU histograms merged across simulations.
        obs::LogHistogram merged;
        for (const sys::SimResults &r : rep.results)
            merged.merge(r.xlatLatencyHist);
        s += ",\"xlat_mean\":" + num(merged.mean()) +
             ",\"xlat_p99\":" + num(merged.quantile(0.99)) + ",\"sims\":[";
        for (std::size_t i = 0; i < rep.results.size(); ++i)
            s += (i ? "," : "") +
                 simJson(w.points[i], rep.results[i], withMetrics);
        s += "]";
    }
    return s + "}";
}

std::string
describe(const std::exception &e)
{
    std::string what = e.what();
    return what.empty() ? "exception" : what;
}

double
peakRssMb()
{
    struct rusage usage = {};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux
}

[[noreturn]] void
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--smoke]\n",
                 argv0);
    std::exit(2);
}

} // namespace

int
main(int argc, char **argv)
{
    std::string name;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    bool smoke = false;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto next = [&]() -> const char * {
            if (++i >= argc)
                usage(argv[0]);
            return argv[i];
        };
        if (arg == "--workload")
            name = next();
        else if (arg == "--seed")
            seed = std::strtoull(next(), nullptr, 10);
        else if (arg == "--seconds")
            seconds = std::atof(next());
        else if (arg == "--trace")
            trace = std::atoi(next()) != 0;
        else if (arg == "--smoke")
            smoke = true;
        else
            usage(argv[0]);
    }
    Workload w;
    if (!buildWorkload(name, seed, smoke, w)) {
        std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                     name.c_str());
        return 2;
    }
    int nproc = static_cast<int>(sim::TaskPool::defaultThreads());
    int jobs = w.sweep ? std::min(kSweepJobs, nproc) : 1;

    // Timed loop: untraced repetitions, interleaved with traced ones
    // under --trace 1 so both see the same box conditions.
    // The loop stops before a repetition that would likely end past
    // the budget, so a run measures for about --seconds.
    std::vector<Rep> reps;
    int perMode = 0;
    Clock::time_point start = Clock::now();
    do {
        for (bool traced : {false, true}) {
            if (traced && !trace)
                continue;
            Rep rep;
            rep.traced = traced;
            try {
                if (w.sweep)
                    runSweep(w, jobs, rep);
                else
                    runSingle(w, rep);
            } catch (const std::exception &e) {
                rep.error = describe(e);
            }
            reps.push_back(std::move(rep));
        }
        ++perMode;
    } while (perMode < kMinReps ||
             since(start) * (perMode + 1) / perMode <= seconds);
    double rssMb = peakRssMb();

    std::printf("{\"workload\":%s,\"seed\":%llu,\"trace\":%s,"
                "\"smoke\":%s,\"scale\":%s,\"jobs\":%d,\"points\":%zu,"
                "\"reference_points\":%zu,\"held_out_seed\":%llu,",
                quoted(name).c_str(), static_cast<unsigned long long>(seed),
                trace ? "true" : "false", smoke ? "true" : "false",
                num(w.scale).c_str(), jobs, w.points.size(),
                trace ? std::size_t{0} : w.reference.size(),
                static_cast<unsigned long long>(seed + kHeldOutSeedOffset));
    std::printf("\"box\":{\"nproc\":%d,\"compiler\":%s,\"build_type\":%s,"
                "\"transfw_obs\":%d},",
                nproc, quoted(PERFBENCH_COMPILER).c_str(),
                quoted(PERFBENCH_BUILD_TYPE).c_str(), TRANSFW_OBS ? 1 : 0);
    std::printf("\"peak_rss_mb\":%s,\"reps\":[", num(rssMb).c_str());
    bool seenUntraced = false, seenTraced = false;
    for (std::size_t i = 0; i < reps.size(); ++i) {
        bool &seen = reps[i].traced ? seenTraced : seenUntraced;
        std::printf("%s%s", i ? "," : "",
                    repJson(w, reps[i], !seen && reps[i].error.empty())
                        .c_str());
        seen = seen || reps[i].error.empty();
    }
    reps.clear();

    // Untimed companions, after the peak-RSS reading so they do not
    // inflate it. Only the end-to-end run needs them.
    std::printf("],\"reference\":[");
    if (!trace) {
        std::vector<sys::SimResults> results;
        std::string error;
        try {
            sys::SweepRunner runner(jobs);
            runner.setLedgerPath("");
            results = runner.run(specsOf(w.reference, w.scale, false));
        } catch (const std::exception &e) {
            error = describe(e);
        }
        for (std::size_t i = 0; i < results.size(); ++i)
            std::printf("%s%s", i ? "," : "",
                        simJson(w.reference[i], results[i], false).c_str());
        if (!error.empty())
            std::printf("%s{\"error\":%s}", results.empty() ? "" : ",",
                        quoted(error).c_str());
    }
    std::printf("]}\n");
    return 0;
}
