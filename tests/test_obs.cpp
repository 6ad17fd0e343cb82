#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdint>
#include <map>
#include <numeric>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "transfw/transfw.hpp"

using namespace transfw;

// ---------------------------------------------------------------------------
// LogHistogram: percentiles against a sorted-vector oracle.
// ---------------------------------------------------------------------------

namespace {

double
oracleQuantile(std::vector<double> sorted, double q)
{
    // Same convention the histogram documents: the value at rank
    // ceil(q * n), 1-based.
    std::sort(sorted.begin(), sorted.end());
    std::size_t n = sorted.size();
    std::size_t rank = static_cast<std::size_t>(std::ceil(q * n));
    if (rank == 0)
        rank = 1;
    if (rank > n)
        rank = n;
    return sorted[rank - 1];
}

void
checkQuantiles(const obs::LogHistogram &hist, const std::vector<double> &samples)
{
    for (double q : {0.50, 0.90, 0.95, 0.99, 0.999}) {
        double oracle = oracleQuantile(samples, q);
        double got = hist.quantile(q);
        // One log bucket of relative error, plus one for integer
        // truncation of small values.
        double tol = oracle / obs::LogHistogram::kSubBuckets + 1.0;
        EXPECT_NEAR(got, oracle, tol) << "q=" << q;
    }
}

} // namespace

TEST(LogHistogram, Empty)
{
    obs::LogHistogram hist;
    EXPECT_EQ(hist.count(), 0u);
    EXPECT_EQ(hist.quantile(0.5), 0.0);
    EXPECT_EQ(hist.mean(), 0.0);
    EXPECT_EQ(hist.minimum(), 0u);
    EXPECT_EQ(hist.maximum(), 0u);
}

TEST(LogHistogram, SmallValuesExact)
{
    // Values below kSubBuckets land in 1:1 buckets: quantiles exact.
    obs::LogHistogram hist;
    for (int i = 1; i <= 20; ++i)
        hist.record(i);
    EXPECT_EQ(hist.quantile(0.50), 10.0);
    EXPECT_EQ(hist.quantile(0.05), 1.0);
    EXPECT_EQ(hist.quantile(1.00), 20.0);
    EXPECT_EQ(hist.minimum(), 1u);
    EXPECT_EQ(hist.maximum(), 20u);
}

TEST(LogHistogram, UniformOracle)
{
    obs::LogHistogram hist;
    std::mt19937_64 rng(7);
    std::uniform_real_distribution<double> dist(1.0, 100000.0);
    std::vector<double> samples;
    for (int i = 0; i < 20000; ++i) {
        double x = std::floor(dist(rng));
        samples.push_back(x);
        hist.record(x);
    }
    EXPECT_EQ(hist.count(), samples.size());
    checkQuantiles(hist, samples);
}

TEST(LogHistogram, LogNormalOracle)
{
    // Heavy-tailed latencies: the shape percentile metrics exist for.
    obs::LogHistogram hist;
    std::mt19937_64 rng(11);
    std::lognormal_distribution<double> dist(6.0, 1.5);
    std::vector<double> samples;
    for (int i = 0; i < 20000; ++i) {
        double x = std::floor(dist(rng)) + 1.0;
        samples.push_back(x);
        hist.record(x);
    }
    checkQuantiles(hist, samples);
    EXPECT_NEAR(hist.mean(),
                std::accumulate(samples.begin(), samples.end(), 0.0) /
                    samples.size(),
                1e-6);
}

TEST(LogHistogram, MergeMatchesCombinedRecording)
{
    obs::LogHistogram a, b, combined;
    std::mt19937_64 rng(3);
    std::uniform_int_distribution<std::uint64_t> dist(0, 1u << 20);
    for (int i = 0; i < 5000; ++i) {
        double x = static_cast<double>(dist(rng));
        (i % 2 ? a : b).record(x);
        combined.record(x);
    }
    a.merge(b);
    EXPECT_EQ(a.count(), combined.count());
    EXPECT_EQ(a.minimum(), combined.minimum());
    EXPECT_EQ(a.maximum(), combined.maximum());
    EXPECT_DOUBLE_EQ(a.sum(), combined.sum());
    for (double q : {0.5, 0.9, 0.99})
        EXPECT_DOUBLE_EQ(a.quantile(q), combined.quantile(q));
}

TEST(LogHistogram, BucketBoundsCoverValues)
{
    // Every recorded value must land in a bucket whose [low, high)
    // range contains it.
    for (std::uint64_t v :
         {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{31},
          std::uint64_t{32}, std::uint64_t{33}, std::uint64_t{1000},
          std::uint64_t{1} << 40, (std::uint64_t{1} << 40) + 12345}) {
        obs::LogHistogram hist;
        hist.record(static_cast<double>(v));
        for (std::size_t i = 0; i < hist.buckets(); ++i) {
            if (hist.bucketCount(i)) {
                EXPECT_GE(v, obs::LogHistogram::bucketLow(i));
                EXPECT_LT(v, obs::LogHistogram::bucketHigh(i));
            }
        }
    }
}

TEST(LogHistogram, NegativeClampsToZero)
{
    obs::LogHistogram hist;
    hist.record(-5.0);
    EXPECT_EQ(hist.count(), 1u);
    EXPECT_EQ(hist.quantile(1.0), 0.0);
    EXPECT_EQ(hist.sum(), 0.0);
}

// ---------------------------------------------------------------------------
// SpanRecorder: enable/disable, capacity, Chrome trace export.
// ---------------------------------------------------------------------------

TEST(SpanRecorder, DisabledRecordsNothing)
{
    obs::SpanRecorder rec;
    EXPECT_FALSE(rec.enabled());
    rec.record("x", 0, 1, 10, 20);
    EXPECT_TRUE(rec.spans().empty());
}

// Span recording is compiled out entirely under -DTRANSFW_OBS=OFF;
// only the tests that need recorded spans are guarded.
#if TRANSFW_OBS
TEST(SpanRecorder, EnabledRecordsAndClears)
{
    obs::SpanRecorder rec;
    rec.setEnabled(true);
    rec.record("gmmu.walk", 2, 7, 100, 600, 0x42, 500.0);
    ASSERT_EQ(rec.spans().size(), 1u);
    const obs::Span &s = rec.spans()[0];
    EXPECT_STREQ(s.name, "gmmu.walk");
    EXPECT_EQ(s.pid, 2u);
    EXPECT_EQ(s.tid, 7u);
    EXPECT_EQ(s.start, 100u);
    EXPECT_EQ(s.end, 600u);
    EXPECT_EQ(s.vpn, 0x42u);
    EXPECT_DOUBLE_EQ(s.arg, 500.0);
    rec.clear();
    EXPECT_TRUE(rec.spans().empty());
    EXPECT_EQ(rec.dropped(), 0u);
}

TEST(SpanRecorder, CapacityDropsAndCounts)
{
    obs::SpanRecorder rec;
    rec.setEnabled(true);
    rec.setCapacity(3);
    for (int i = 0; i < 10; ++i)
        rec.record("s", 0, static_cast<std::uint64_t>(i), i, i + 1);
    // Three real spans plus one synthetic "obs.dropped" marker that
    // spans the lost region and carries the drop count in its arg.
    ASSERT_EQ(rec.spans().size(), 4u);
    EXPECT_EQ(rec.dropped(), 7u);
    const obs::Span &d = rec.spans().back();
    EXPECT_STREQ(d.name, "obs.dropped");
    EXPECT_EQ(d.pid, obs::SpanRecorder::kObsPid);
    EXPECT_EQ(d.start, 3u);  // first dropped span's start
    EXPECT_EQ(d.end, 10u);   // last dropped span's end
    EXPECT_DOUBLE_EQ(d.arg, 7.0);

    rec.clear();
    EXPECT_TRUE(rec.spans().empty());
    EXPECT_EQ(rec.dropped(), 0u);
    // The synthetic marker must re-arm after clear().
    for (int i = 0; i < 5; ++i)
        rec.record("s", 0, static_cast<std::uint64_t>(i), i, i + 1);
    ASSERT_EQ(rec.spans().size(), 4u);
    EXPECT_STREQ(rec.spans().back().name, "obs.dropped");
    EXPECT_DOUBLE_EQ(rec.spans().back().arg, 2.0);
}
#endif // TRANSFW_OBS

namespace {

/** Count occurrences of a substring. */
std::size_t
countOccurrences(const std::string &hay, const std::string &needle)
{
    std::size_t n = 0;
    for (std::size_t pos = hay.find(needle); pos != std::string::npos;
         pos = hay.find(needle, pos + needle.size()))
        ++n;
    return n;
}

/**
 * Minimal JSON well-formedness check: balanced braces/brackets outside
 * strings, no trailing comma before a closer. Enough to catch the
 * classic exporter bugs (stray commas, unterminated strings) without a
 * JSON library in the test image.
 */
void
expectWellFormedJson(const std::string &text)
{
    std::vector<char> stack;
    bool inString = false, escaped = false;
    char lastMeaningful = '\0';
    for (char c : text) {
        if (inString) {
            if (escaped)
                escaped = false;
            else if (c == '\\')
                escaped = true;
            else if (c == '"') {
                inString = false;
                lastMeaningful = '"';
            }
            continue;
        }
        switch (c) {
        case '"': inString = true; break;
        case '{': case '[': stack.push_back(c); break;
        case '}':
            ASSERT_FALSE(stack.empty());
            ASSERT_EQ(stack.back(), '{');
            ASSERT_NE(lastMeaningful, ',') << "trailing comma before }";
            stack.pop_back();
            break;
        case ']':
            ASSERT_FALSE(stack.empty());
            ASSERT_EQ(stack.back(), '[');
            ASSERT_NE(lastMeaningful, ',') << "trailing comma before ]";
            stack.pop_back();
            break;
        default: break;
        }
        if (!std::isspace(static_cast<unsigned char>(c)))
            lastMeaningful = c;
    }
    EXPECT_FALSE(inString) << "unterminated string";
    EXPECT_TRUE(stack.empty()) << "unbalanced braces/brackets";
}

} // namespace

#if TRANSFW_OBS
TEST(SpanRecorder, ChromeTraceJsonParsesBack)
{
    obs::SpanRecorder rec;
    rec.setEnabled(true);
    rec.record("xlat", 0, 1, 0, 100, 0x10, 100.0);
    rec.record("gmmu.queue", 0, 1, 0, 20, 0x10);
    rec.record("gmmu.walk", 0, 1, 20, 100, 0x10);
    rec.record("driver.batch", obs::SpanRecorder::kHostPid, 0, 5, 50);

    std::ostringstream os;
    rec.writeChromeTrace(os);
    std::string json = os.str();

    expectWellFormedJson(json);
    // Four "X" complete events.
    EXPECT_EQ(countOccurrences(json, "\"ph\":\"X\""), 4u);
    // Metadata names each pid track: gpu0 and the host driver.
    EXPECT_EQ(countOccurrences(json, "\"ph\":\"M\""), 2u);
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("\"process_name\""), std::string::npos);
    EXPECT_NE(json.find("\"host\""), std::string::npos);
    EXPECT_NE(json.find("\"gpu0\""), std::string::npos);
    // Durations are end - start.
    EXPECT_NE(json.find("\"dur\":80"), std::string::npos);   // gmmu.walk
    EXPECT_NE(json.find("\"dur\":100"), std::string::npos);  // xlat
    // The self-check arg rides along.
    EXPECT_NE(json.find("\"args\""), std::string::npos);
}
#endif // TRANSFW_OBS

// ---------------------------------------------------------------------------
// MetricRegistry.
// ---------------------------------------------------------------------------

TEST(MetricRegistry, GaugesAreLive)
{
    obs::MetricRegistry reg;
    int counter = 0;
    reg.registerGauge("a.b.count",
                      [&counter] { return static_cast<double>(counter); });
    EXPECT_TRUE(reg.has("a.b.count"));
    EXPECT_EQ(reg.value("a.b.count"), 0.0);
    counter = 42;
    EXPECT_EQ(reg.value("a.b.count"), 42.0);
}

TEST(MetricRegistry, ScalarsAndNames)
{
    obs::MetricRegistry reg;
    reg.setScalar("z.last", 3.5);
    reg.registerGauge("a.first", [] { return 1.0; });
    EXPECT_FALSE(reg.has("missing"));
    EXPECT_EQ(reg.value("z.last"), 3.5);
    std::vector<std::string> names = reg.names();
    ASSERT_EQ(names.size(), 2u);
    EXPECT_EQ(names[0], "a.first");
    EXPECT_EQ(names[1], "z.last");
}

TEST(MetricRegistry, HistogramExpandsToLeaves)
{
    obs::MetricRegistry reg;
    obs::LogHistogram hist;
    for (int i = 1; i <= 100; ++i)
        hist.record(i);
    reg.registerHistogram("gpu0.xlat", &hist);
    std::string json = reg.toJson();
    expectWellFormedJson(json);
    EXPECT_NE(json.find("\"gpu0.xlat.count\""), std::string::npos);
    EXPECT_NE(json.find("\"gpu0.xlat.mean\""), std::string::npos);
    EXPECT_NE(json.find("\"gpu0.xlat.p50\""), std::string::npos);
    EXPECT_NE(json.find("\"gpu0.xlat.p999\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// IntervalSampler: tick alignment in a live simulation.
// ---------------------------------------------------------------------------

TEST(IntervalSampler, RowsAlignToInterval)
{
    // The system's event loop records a row every sampleInterval ticks,
    // after every event at or before the row's tick and before any
    // later one.
    wl::SyntheticSpec spec;
    spec.name = "sampler";
    spec.numCtas = 8;
    spec.memOpsPerCta = 20;
    spec.regions = {{.name = "own", .pages = 32, .weight = 1.0, .reuse = 2}};
    wl::SyntheticWorkload workload(spec);
    cfg::SystemConfig config = sys::baselineConfig();
    config.numGpus = 2;
    config.cusPerGpu = 2;
    config.obs.sampleInterval = 250;
    sys::MultiGpuSystem system(config, workload);

    obs::IntervalSampler &sampler = system.obs().sampler;
    double depth = 0.0;
    sampler.addColumn("depth", [&depth] { return depth; });
    const std::size_t col = sampler.columns() - 1;
    // Host activity out to tick 1000, beside the workload's own.
    for (sim::Tick t = 100; t <= 1000; t += 100)
        system.eventq().scheduleAt(t, [&depth] { depth += 1.0; });
    sys::SimResults r = system.run();

    ASSERT_GE(sampler.rows(), 2u);
    for (std::size_t row = 0; row < sampler.rows(); ++row) {
        EXPECT_EQ(sampler.rowTick(row), 250u * (row + 1)) << "row " << row;
        EXPECT_LE(sampler.rowTick(row), r.execTime);
    }
    // Probes see the simulation state at the sample tick.
    EXPECT_EQ(sampler.cell(0, col), 2.0); // tick 250: events 100, 200
    EXPECT_EQ(sampler.cell(1, col), 5.0); // tick 500: events 100..500
}

TEST(IntervalSampler, CsvAndJsonShapes)
{
    obs::IntervalSampler sampler;
    obs::MetricRegistry reg;
    reg.registerGauge("q.depth", [] { return 2.0; });
    sampler.addRegistryColumn(reg, "q.depth");
    for (sim::Tick t : {0, 10, 20})
        sampler.recordRow(t);

    std::ostringstream csv;
    sampler.writeCsv(csv);
    std::istringstream lines(csv.str());
    std::string header;
    std::getline(lines, header);
    EXPECT_EQ(header, "tick,q.depth");
    std::string row;
    std::size_t rows = 0;
    while (std::getline(lines, row)) {
        ++rows;
        EXPECT_NE(row.find(",2"), std::string::npos);
    }
    EXPECT_EQ(rows, 3u);
    EXPECT_EQ(rows, sampler.rows());

    std::ostringstream jsonOs;
    sampler.writeJson(jsonOs);
    expectWellFormedJson(jsonOs.str());
    EXPECT_NE(jsonOs.str().find("\"q.depth\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// End-to-end: full-system run with observability on.
// ---------------------------------------------------------------------------

namespace {

wl::SyntheticSpec
tinySpec()
{
    wl::SyntheticSpec spec;
    spec.name = "obs-e2e";
    spec.numCtas = 16;
    spec.memOpsPerCta = 30;
    spec.computePerOp = 2;
    spec.regions = {
        {.name = "hot", .pages = 32, .pattern = wl::Pattern::Random,
         .shareDegree = 2, .weight = 0.4, .writeFrac = 0.2, .reuse = 2},
        {.name = "own", .pages = 96, .weight = 0.6, .reuse = 2},
    };
    return spec;
}

cfg::SystemConfig
obsConfig()
{
    cfg::SystemConfig config = sys::baselineConfig();
    config.numGpus = 2;
    config.cusPerGpu = 4;
    config.wavefrontSlotsPerCu = 2;
    config.obs.spans = true;
    config.obs.sampleInterval = 2000;
    return config;
}

} // namespace

#if TRANSFW_OBS
TEST(ObsEndToEnd, XlatSpanDurationMatchesBreakdownSum)
{
    // Acceptance criterion: the per-request breakdown sum (carried in
    // the "xlat" span's arg) equals the end-to-end measured latency
    // (the span's duration) within one tick. Baseline config: the
    // serial translation path accounts every cycle exactly once.
    wl::SyntheticWorkload workload(tinySpec());
    sys::MultiGpuSystem system(obsConfig(), workload);
    system.run();

    const obs::SpanRecorder &rec = system.obs().spans;
    EXPECT_EQ(rec.dropped(), 0u);
    std::size_t xlatSpans = 0;
    for (const obs::Span &s : rec.spans()) {
        if (std::string(s.name) != "xlat")
            continue;
        ++xlatSpans;
        ASSERT_GE(s.arg, 0.0) << "xlat span missing breakdown total";
        double dur = static_cast<double>(s.end - s.start);
        EXPECT_NEAR(dur, s.arg, 1.0)
            << "request " << s.tid << " on gpu " << s.pid << " vpn 0x"
            << std::hex << s.vpn;
    }
    EXPECT_GT(xlatSpans, 0u);
}

TEST(ObsEndToEnd, PhaseSpansNestInsideRootSpan)
{
    // Every recorded phase of request (pid, tid) must fit inside that
    // request's "xlat" root span (requests are serial per wavefront
    // slot, but ids are unique per request so there is exactly one
    // root per (pid, tid) epoch here).
    wl::SyntheticWorkload workload(tinySpec());
    sys::MultiGpuSystem system(obsConfig(), workload);
    system.run();

    const std::vector<obs::Span> &spans = system.obs().spans.spans();
    std::map<std::pair<std::uint32_t, std::uint64_t>,
             std::vector<const obs::Span *>>
        byRequest;
    for (const obs::Span &s : spans)
        byRequest[{s.pid, s.tid}].push_back(&s);

    std::size_t checkedChildren = 0;
    for (const auto &[key, group] : byRequest) {
        if (key.first == obs::SpanRecorder::kHostPid)
            continue; // driver batch lanes have no xlat root
        const obs::Span *root = nullptr;
        for (const obs::Span *s : group)
            if (std::string(s->name) == "xlat")
                root = s;
        if (!root)
            continue;
        for (const obs::Span *s : group) {
            if (s == root)
                continue;
            EXPECT_LE(s->end, root->end)
                << s->name << " overruns xlat for tid " << key.second;
            EXPECT_GE(s->start, root->start)
                << s->name << " precedes xlat for tid " << key.second;
            EXPECT_LE(s->start, s->end) << s->name << " is negative";
            ++checkedChildren;
        }
    }
    EXPECT_GT(checkedChildren, 0u);
}
#endif // TRANSFW_OBS

TEST(ObsEndToEnd, MetricsRegistryCoversComponents)
{
    wl::SyntheticWorkload workload(tinySpec());
    cfg::SystemConfig config = obsConfig();
    sys::MultiGpuSystem system(config, workload);
    sys::SimResults r = system.run();

    const obs::MetricRegistry &reg = system.obs().metrics;
    // Hierarchical keys from every layer of the translation path.
    for (const char *name :
         {"gpu0.accesses", "gpu0.gmmu.localWalks", "gpu0.gmmu.pwc.hitRate",
          "gpu0.l2tlb.hitRate", "gpu1.gmmu.queueDepth", "host.mmu.faults",
          "host.mmu.queueAboveTrigger", "host.mmu.tlb.hitRate",
          "host.migration.migrations", "sim.farFaults", "sim.tick"}) {
        EXPECT_TRUE(reg.has(name)) << name;
    }
    // Gauges agree with the collected results.
    EXPECT_EQ(reg.value("sim.farFaults"), static_cast<double>(r.farFaults));
    EXPECT_EQ(reg.value("sim.tick"), static_cast<double>(r.execTime));
    double accesses =
        reg.value("gpu0.accesses") + reg.value("gpu1.accesses");
    EXPECT_EQ(accesses, static_cast<double>(r.pageAccesses));

    std::string json = reg.toJson();
    expectWellFormedJson(json);
    EXPECT_NE(json.find("\"gpu0.xlat.p99\""), std::string::npos);
}

TEST(ObsEndToEnd, SamplerTicksAlignAndTrackQueue)
{
    wl::SyntheticWorkload workload(tinySpec());
    cfg::SystemConfig config = obsConfig();
    sys::MultiGpuSystem system(config, workload);
    sys::SimResults r = system.run();

    const obs::IntervalSampler &sampler = system.obs().sampler;
    ASSERT_GT(sampler.rows(), 1u);
    ASSERT_GT(sampler.columns(), 0u);
    for (std::size_t row = 0; row < sampler.rows(); ++row) {
        EXPECT_EQ(sampler.rowTick(row) % config.obs.sampleInterval, 0u);
        EXPECT_LE(sampler.rowTick(row), r.execTime);
    }
    // Columns include the headline occupancy/health probes.
    std::vector<std::string> cols;
    for (std::size_t c = 0; c < sampler.columns(); ++c)
        cols.push_back(sampler.columnName(c));
    for (const char *want :
         {"host.mmu.queueDepth", "host.mmu.queueAboveTrigger",
          "gpu0.gmmu.queueDepth", "gpu0.l2tlb.hitRate"}) {
        EXPECT_NE(std::find(cols.begin(), cols.end(), want), cols.end())
            << want;
    }
    // Hit rates stay within [0, 1] in every sample.
    for (std::size_t c = 0; c < sampler.columns(); ++c) {
        if (cols[c].find("hitRate") == std::string::npos &&
            cols[c].find("loadFactor") == std::string::npos)
            continue;
        for (std::size_t row = 0; row < sampler.rows(); ++row) {
            EXPECT_GE(sampler.cell(row, c), 0.0);
            EXPECT_LE(sampler.cell(row, c), 1.0);
        }
    }
}

TEST(ObsEndToEnd, TransFwModeRecordsForwardingSpans)
{
    // Under Trans-FW, the registry exposes PRT/FT load and the trace
    // (possibly empty with spans compiled out) still exports cleanly.
    wl::SyntheticWorkload workload(tinySpec());
    cfg::SystemConfig config = obsConfig();
    cfg::SystemConfig fw = sys::transFwConfig();
    config.transFw = fw.transFw;
    sys::MultiGpuSystem system(config, workload);
    system.run();

    EXPECT_TRUE(system.obs().metrics.has("host.ft.loadFactor"));
    EXPECT_TRUE(system.obs().metrics.has("gpu0.prt.loadFactor"));
    EXPECT_TRUE(system.obs().metrics.has("host.mmu.forwards"));

    std::ostringstream os;
    system.obs().spans.writeChromeTrace(os);
    expectWellFormedJson(os.str());
}

TEST(ObsEndToEnd, DisabledByDefaultCostsNothing)
{
    wl::SyntheticWorkload workload(tinySpec());
    cfg::SystemConfig config = obsConfig();
    config.obs.spans = false;
    config.obs.sampleInterval = 0;
    sys::MultiGpuSystem system(config, workload);
    system.run();
    EXPECT_TRUE(system.obs().spans.spans().empty());
    EXPECT_EQ(system.obs().sampler.rows(), 0u);
    // The registry still answers (gauges are free), and results are
    // identical to an instrumented run.
    EXPECT_TRUE(system.obs().metrics.has("sim.tick"));

    cfg::SystemConfig instrumented = obsConfig();
    sys::MultiGpuSystem system2(instrumented, workload);
    sys::SimResults a = system2.run();
    sys::MultiGpuSystem system3(config, workload);
    sys::SimResults b = system3.run();
    EXPECT_EQ(a.execTime, b.execTime);
    EXPECT_EQ(a.farFaults, b.farFaults);
}

TEST(ObsEndToEnd, PercentilesInResults)
{
    wl::SyntheticWorkload workload(tinySpec());
    sys::SimResults r = sys::runWorkload(workload, obsConfig());
    ASSERT_GT(r.xlatLatencyHist.count(), 0u);
    double p50 = r.xlatLatencyHist.quantile(0.50);
    double p99 = r.xlatLatencyHist.quantile(0.99);
    EXPECT_GT(p50, 0.0);
    EXPECT_GE(p99, p50);
    // The mean sits between the histogram extremes and tracks the
    // Distribution-based average already reported.
    EXPECT_NEAR(r.xlatLatencyHist.mean(), r.avgXlatLatency,
                std::max(1.0, 0.01 * r.avgXlatLatency));
}
