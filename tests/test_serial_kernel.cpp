/**
 * The event kernel's canonical order: at each tick the host's events
 * run first, then GPU 0 .. N-1's in index order. Every config here runs
 * twice and must agree bit-for-bit with itself, pass the attribution
 * watchdog, and reproduce pinned (execTime, eventsExecuted, farFaults)
 * triples. The pins were recorded before the lane-parallel kernel was
 * replaced, and kept when the per-GPU queues became one queue ordered
 * by (tick, owner, seq), so they also prove both changes kept the
 * simulated machine unchanged.
 */
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "transfw/transfw.hpp"

using namespace transfw;

namespace {

/** Sharing-heavy workload: faults, migrations and remote traffic on
 *  every GPU. */
wl::SyntheticSpec
pinSpec(const char *name, int ctas = 48)
{
    wl::SyntheticSpec spec;
    spec.name = name;
    spec.numCtas = ctas;
    spec.memOpsPerCta = 30;
    spec.computePerOp = 2;
    spec.regions = {
        {.name = "hot", .pages = 48, .pattern = wl::Pattern::Random,
         .shareDegree = 64, .weight = 0.5, .writeFrac = 0.4, .reuse = 2},
        {.name = "own", .pages = 192, .weight = 0.5, .reuse = 2},
    };
    return spec;
}

struct Pin
{
    sim::Tick execTime;
    std::uint64_t events;
    std::uint64_t farFaults;
};

/** Every deterministic SimResults field must match bit-for-bit. Wall
 *  clock fields (hostWallSeconds, hostEventsPerSec, hostProfile) are
 *  the only ones allowed to differ between runs. */
void
expectIdentical(const sys::SimResults &a, const sys::SimResults &b)
{
    EXPECT_EQ(a.execTime, b.execTime);
    EXPECT_EQ(a.eventsExecuted, b.eventsExecuted);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.memOps, b.memOps);
    EXPECT_EQ(a.pageAccesses, b.pageAccesses);
    EXPECT_EQ(a.l2TlbMisses, b.l2TlbMisses);
    EXPECT_EQ(a.farFaults, b.farFaults);

    EXPECT_EQ(a.xlat.gmmuQueue, b.xlat.gmmuQueue);
    EXPECT_EQ(a.xlat.gmmuMem, b.xlat.gmmuMem);
    EXPECT_EQ(a.xlat.hostQueue, b.xlat.hostQueue);
    EXPECT_EQ(a.xlat.hostMem, b.xlat.hostMem);
    EXPECT_EQ(a.xlat.migration, b.xlat.migration);
    EXPECT_EQ(a.xlat.network, b.xlat.network);
    EXPECT_EQ(a.xlat.other, b.xlat.other);
    EXPECT_EQ(a.avgXlatLatency, b.avgXlatLatency);
    EXPECT_EQ(a.xlatLatencyHist.count(), b.xlatLatencyHist.count());
    EXPECT_EQ(a.xlatLatencyHist.quantile(0.99),
              b.xlatLatencyHist.quantile(0.99));

    EXPECT_EQ(a.l1HitRate, b.l1HitRate);
    EXPECT_EQ(a.l2HitRate, b.l2HitRate);
    EXPECT_EQ(a.hostTlbHitRate, b.hostTlbHitRate);
    EXPECT_EQ(a.gmmuQueueWaitMean, b.gmmuQueueWaitMean);
    EXPECT_EQ(a.hostQueueWaitMean, b.hostQueueWaitMean);
    EXPECT_EQ(a.gmmuQueueOverflows, b.gmmuQueueOverflows);
    EXPECT_EQ(a.hostQueueOverflows, b.hostQueueOverflows);

    for (std::size_t i = 0; i < a.sharingAccesses.buckets(); ++i)
        EXPECT_EQ(a.sharingAccesses.bucket(i),
                  b.sharingAccesses.bucket(i));
    EXPECT_EQ(a.sharedPageReads, b.sharedPageReads);
    EXPECT_EQ(a.sharedPageWrites, b.sharedPageWrites);

    EXPECT_EQ(a.shortCircuits, b.shortCircuits);
    EXPECT_EQ(a.prtLookups, b.prtLookups);
    EXPECT_EQ(a.prtHits, b.prtHits);
    EXPECT_EQ(a.ftLookups, b.ftLookups);
    EXPECT_EQ(a.ftHits, b.ftHits);
    EXPECT_EQ(a.forwards, b.forwards);
    EXPECT_EQ(a.forwardSuccess, b.forwardSuccess);
    EXPECT_EQ(a.forwardFail, b.forwardFail);
    EXPECT_EQ(a.duplicateWalks, b.duplicateWalks);
    EXPECT_EQ(a.removedFromQueue, b.removedFromQueue);

    EXPECT_EQ(a.gmmuWalkMemAccesses, b.gmmuWalkMemAccesses);
    EXPECT_EQ(a.gmmuRemoteMemAccesses, b.gmmuRemoteMemAccesses);
    EXPECT_EQ(a.hostWalks, b.hostWalks);
    EXPECT_EQ(a.hostWalkMemAccesses, b.hostWalkMemAccesses);
    EXPECT_EQ(a.hostRoutedFaults, b.hostRoutedFaults);
    EXPECT_EQ(a.hostShardWalks, b.hostShardWalks);

    EXPECT_EQ(a.migrations, b.migrations);
    EXPECT_EQ(a.replications, b.replications);
    EXPECT_EQ(a.writeInvalidations, b.writeInvalidations);
    EXPECT_EQ(a.remoteMappings, b.remoteMappings);
    EXPECT_EQ(a.counterMigrations, b.counterMigrations);
    EXPECT_EQ(a.bytesMoved, b.bytesMoved);
    EXPECT_EQ(a.driverBatches, b.driverBatches);
    EXPECT_EQ(a.driverAvgBatchSize, b.driverAvgBatchSize);

#if TRANSFW_OBS
    for (int f = 0; f < static_cast<int>(obs::LatField::kCount); ++f) {
        EXPECT_EQ(
            a.attribution.fieldTotal(static_cast<obs::LatField>(f)),
            b.attribution.fieldTotal(static_cast<obs::LatField>(f)))
            << "attribution field " << f;
    }
    EXPECT_EQ(a.attribution.requests, b.attribution.requests);
    EXPECT_EQ(a.obsCheckedRequests, b.obsCheckedRequests);
#endif
    EXPECT_EQ(a.peakEventBacklog, b.peakEventBacklog);
}

/** Run twice: self-identical, watchdog-clean, and on the pins. */
void
expectPinned(const sys::SimResults &first, const sys::SimResults &second,
             const Pin &pin)
{
    expectIdentical(first, second);
    EXPECT_EQ(first.obsCheckViolations, 0u);
    EXPECT_EQ(first.execTime, pin.execTime);
    EXPECT_EQ(first.eventsExecuted, pin.events);
    EXPECT_EQ(first.farFaults, pin.farFaults);
    EXPECT_GT(first.farFaults, 0u);
}

void
expectPinned(const wl::SyntheticSpec &spec, const cfg::SystemConfig &config,
             const Pin &pin)
{
    wl::SyntheticWorkload workload(spec);
    expectPinned(sys::runWorkload(workload, config),
                 sys::runWorkload(workload, config), pin);
}

struct MatrixCase
{
    cfg::MigrationPolicy policy;
    cfg::FaultMode mode;
    bool transfw;
    Pin pin;
};

} // namespace

/** The full (policy × fault mode × Trans-FW) matrix. */
class SerialMatrix : public ::testing::TestWithParam<MatrixCase>
{};

TEST_P(SerialMatrix, DeterministicAndPinned)
{
    const MatrixCase &c = GetParam();
    cfg::SystemConfig config = sys::baselineConfig();
    config.cusPerGpu = 6;
    config.migrationPolicy = c.policy;
    config.faultMode = c.mode;
    config.transFw.enabled = c.transfw;
    expectPinned(pinSpec("matrix"), config, c.pin);
}

INSTANTIATE_TEST_SUITE_P(
    AllConfigs, SerialMatrix,
    ::testing::Values(
        MatrixCase{cfg::MigrationPolicy::OnTouch, cfg::FaultMode::HostMmu,
                   false, {13840, 7129, 230}},
        MatrixCase{cfg::MigrationPolicy::OnTouch, cfg::FaultMode::HostMmu,
                   true, {10923, 7074, 225}},
        MatrixCase{cfg::MigrationPolicy::OnTouch, cfg::FaultMode::UvmDriver,
                   false, {19011, 7830, 297}},
        MatrixCase{cfg::MigrationPolicy::OnTouch, cfg::FaultMode::UvmDriver,
                   true, {12570, 8059, 254}},
        MatrixCase{cfg::MigrationPolicy::ReadReplicate,
                   cfg::FaultMode::HostMmu, false, {14187, 7585, 299}},
        MatrixCase{cfg::MigrationPolicy::ReadReplicate,
                   cfg::FaultMode::HostMmu, true, {11915, 7652, 297}},
        MatrixCase{cfg::MigrationPolicy::ReadReplicate,
                   cfg::FaultMode::UvmDriver, false, {17631, 8078, 350}},
        MatrixCase{cfg::MigrationPolicy::ReadReplicate,
                   cfg::FaultMode::UvmDriver, true, {20294, 8958, 325}},
        MatrixCase{cfg::MigrationPolicy::RemoteMap, cfg::FaultMode::HostMmu,
                   false, {14774, 6717, 149}},
        MatrixCase{cfg::MigrationPolicy::RemoteMap, cfg::FaultMode::HostMmu,
                   true, {13082, 6794, 149}},
        MatrixCase{cfg::MigrationPolicy::RemoteMap,
                   cfg::FaultMode::UvmDriver, false, {16632, 6815, 147}},
        MatrixCase{cfg::MigrationPolicy::RemoteMap,
                   cfg::FaultMode::UvmDriver, true, {15686, 7359, 149}}),
    [](const ::testing::TestParamInfo<MatrixCase> &info) {
        const MatrixCase &c = info.param;
        std::string name;
        switch (c.policy) {
        case cfg::MigrationPolicy::OnTouch: name = "OnTouch"; break;
        case cfg::MigrationPolicy::ReadReplicate:
            name = "ReadReplicate";
            break;
        case cfg::MigrationPolicy::RemoteMap: name = "RemoteMap"; break;
        }
        name += c.mode == cfg::FaultMode::HostMmu ? "_HostMmu" : "_UvmDriver";
        name += c.transfw ? "_TransFw" : "_Baseline";
        return name;
    });

/** 1-tick links: GPU-to-host traffic arrives 3 ticks after it is sent,
 *  the tightest the kernel's same-tick invariant allows. */
TEST(SerialKernel, OneTickLinksPinned)
{
    cfg::SystemConfig config = sys::baselineConfig();
    config.numGpus = 4;
    config.cusPerGpu = 4;
    config.hostLink.latency = 1;
    config.peerLink.latency = 1;
    config.transFw.enabled = true;
    expectPinned(pinSpec("stress", 32), config, {8124, 5181, 184});
}

/** Ring topology routes peer traffic hop by hop on the host queue. */
TEST(SerialKernel, RingTopologyPinned)
{
    cfg::SystemConfig config = sys::baselineConfig();
    config.peerTopology = ic::Topology::Ring;
    config.transFw.enabled = true;
    expectPinned(pinSpec("ring"), config, {11139, 7124, 222});
}

/** Least-TLB probes sibling L2 TLBs from inside a GPU event; the
 *  canonical order fixes which sibling fills such a probe can see. */
TEST(SerialKernel, LeastTlbPinned)
{
    cfg::SystemConfig config = sys::baselineConfig();
    config.leastTlb.enabled = true;
    expectPinned(pinSpec("least"), config, {14350, 7681, 240});
}

/** Asymmetric link latencies: a 1-tick uplink under slow peers, and a
 *  slow uplink under 1-tick peers. */
TEST(SerialKernel, AsymmetricLinkLatenciesPinned)
{
    struct Case
    {
        sim::Tick host;
        sim::Tick peer;
        Pin pin;
    };
    for (const Case &c : {Case{1, 200, {9593, 5067, 169}},
                          Case{200, 1, {11235, 5092, 174}}}) {
        cfg::SystemConfig config = sys::baselineConfig();
        config.numGpus = 4;
        config.cusPerGpu = 4;
        config.hostLink.latency = c.host;
        config.peerLink.latency = c.peer;
        config.transFw.enabled = true;
        SCOPED_TRACE("host=" + std::to_string(c.host) +
                     " peer=" + std::to_string(c.peer));
        expectPinned(pinSpec("asym", 32), config, c.pin);
    }
}

/** An 8-GPU pod on a ring. */
TEST(SerialKernel, EightGpuPodPinned)
{
    cfg::SystemConfig config = sys::baselineConfig();
    config.numGpus = 8;
    config.cusPerGpu = 2;
    config.peerTopology = ic::Topology::Ring;
    config.transFw.enabled = true;
    expectPinned(pinSpec("pod8", 64), config, {15782, 10265, 361});
}

/** 16 GPUs on a ring with the host MMU sharded 4 ways: the shard
 *  crossbar runs on the host queue. */
TEST(SerialKernel, ShardedRingPodPinned)
{
    cfg::SystemConfig config = sys::transFwConfig();
    config.numGpus = 16;
    config.cusPerGpu = 4;
    config.peerTopology = ic::Topology::Ring;
    config.hostShards = 4;
    sys::SimResults first = sys::runApp("MT", config, 0.05);
    expectPinned(first, sys::runApp("MT", config, 0.05),
                 {15130, 45910, 2512});
    EXPECT_GT(first.hostRoutedFaults, 0u);
}

/** Link latencies drawn once at random (mt19937, seed 987654321),
 *  including the 1-tick edge, Trans-FW on and off. */
TEST(SerialKernel, RandomizedLatenciesPinned)
{
    struct Case
    {
        sim::Tick host;
        sim::Tick peer;
        bool transfw;
        Pin pin;
    };
    for (const Case &c : {Case{44, 25, true, {8854, 3971, 135}},
                          Case{86, 1, false, {12435, 4006, 144}},
                          Case{183, 45, true, {12183, 3955, 133}},
                          Case{1, 64, false, {10929, 3986, 142}}}) {
        cfg::SystemConfig config = sys::baselineConfig();
        config.numGpus = 4;
        config.cusPerGpu = 4;
        config.hostLink.latency = c.host;
        config.peerLink.latency = c.peer;
        config.transFw.enabled = c.transfw;
        SCOPED_TRACE("host=" + std::to_string(c.host) +
                     " peer=" + std::to_string(c.peer));
        expectPinned(pinSpec("soak", 24), config, c.pin);
    }
}

/** The tie rule: at one tick the host's events run first, then the
 *  GPUs' in index order, whatever order the events were scheduled
 *  in. */
TEST(SerialKernel, HostFirstThenGpusInIndexOrder)
{
    wl::SyntheticWorkload workload(pinSpec("ties", 8));
    cfg::SystemConfig config = sys::baselineConfig();
    config.numGpus = 4;
    config.cusPerGpu = 2;
    sys::MultiGpuSystem system(config, workload);

    constexpr sim::Tick kTie = 50;
    std::vector<int> order; // -1 = host
    for (int g : {3, 1, 0, 2})
        system.eventq().scheduleAt(
            kTie, [&order, g] { order.push_back(g); }, sim::gpuOwner(g));
    system.eventq().scheduleAt(kTie, [&order] { order.push_back(-1); });
    system.run();
    EXPECT_EQ(order, (std::vector<int>{-1, 0, 1, 2, 3}));
}

/** A host event can hand work to idle GPUs: work at the host's own
 *  tick runs in that tick, after the host, and later work runs on
 *  time. The late tick is past the end of the workload, so both GPUs
 *  are idle when the host event fires. */
TEST(SerialKernel, HostEventWakesIdleGpuQueues)
{
    wl::SyntheticWorkload workload(pinSpec("wake", 8));
    cfg::SystemConfig config = sys::baselineConfig();
    config.numGpus = 4;
    config.cusPerGpu = 2;
    sys::MultiGpuSystem system(config, workload);

    constexpr sim::Tick kLate = 1'000'000;
    std::vector<std::pair<int, sim::Tick>> ran; // (GPU, tick), -1 = host
    sim::EventQueue &eq = system.eventq();
    eq.scheduleAt(kLate, [&eq, &ran] {
        eq.scheduleAt(
            kLate + 7, [&eq, &ran] { ran.emplace_back(1, eq.now()); },
            sim::gpuOwner(1));
        eq.scheduleAt(
            kLate, [&eq, &ran] { ran.emplace_back(2, eq.now()); },
            sim::gpuOwner(2));
        ran.emplace_back(-1, eq.now());
    });
    sys::SimResults r = system.run();
    EXPECT_EQ(ran, (std::vector<std::pair<int, sim::Tick>>{
                       {-1, kLate}, {2, kLate}, {1, kLate + 7}}));
    EXPECT_EQ(r.execTime, kLate + 7);
}

/** GPU-to-host work one tick later is legal: it runs at that tick,
 *  ahead of the GPU events of the same tick. */
TEST(SerialKernel, GpuToHostWorkOnTheNextTickRunsHostFirst)
{
    wl::SyntheticWorkload workload(pinSpec("next-tick", 8));
    cfg::SystemConfig config = sys::baselineConfig();
    config.numGpus = 2;
    config.cusPerGpu = 2;
    sys::MultiGpuSystem system(config, workload);

    constexpr sim::Tick kLate = 1'000'000;
    std::vector<std::pair<int, sim::Tick>> ran; // (GPU, tick), -1 = host
    sim::EventQueue &eq = system.eventq();
    eq.scheduleAt(
        kLate + 1, [&eq, &ran] { ran.emplace_back(0, eq.now()); },
        sim::gpuOwner(0));
    eq.scheduleAt(
        kLate,
        [&eq, &ran] {
            ran.emplace_back(1, eq.now());
            eq.scheduleAt(kLate + 1, [&eq, &ran] {
                ran.emplace_back(-1, eq.now());
            });
        },
        sim::gpuOwner(1));
    sys::SimResults r = system.run();
    EXPECT_EQ(ran, (std::vector<std::pair<int, sim::Tick>>{
                       {1, kLate}, {-1, kLate + 1}, {0, kLate + 1}}));
    EXPECT_EQ(r.execTime, kLate + 1);
}

/** A GPU event that puts host work at its own tick breaks the
 *  host-first rule; the kernel panics instead of running it late. */
TEST(SerialKernelDeathTest, SameTickHostWorkFromGpuPanics)
{
    wl::SyntheticWorkload workload(pinSpec("same-tick", 8));
    cfg::SystemConfig config = sys::baselineConfig();
    config.numGpus = 2;
    config.cusPerGpu = 2;
    EXPECT_DEATH(
        {
            sys::MultiGpuSystem system(config, workload);
            system.eventq().scheduleAt(
                40,
                [&system] { system.eventq().scheduleAt(40, [] {}); },
                sim::gpuOwner(1));
            system.run();
        },
        "same tick");
}

/** Likewise for a GPU event that puts work for a lower-indexed GPU at
 *  its own tick: that GPU's events at the tick may already have run. */
TEST(SerialKernelDeathTest, SameTickLowerGpuWorkPanics)
{
    wl::SyntheticWorkload workload(pinSpec("same-tick-gpu", 8));
    cfg::SystemConfig config = sys::baselineConfig();
    config.numGpus = 3;
    config.cusPerGpu = 2;
    EXPECT_DEATH(
        {
            sys::MultiGpuSystem system(config, workload);
            sim::EventQueue &eq = system.eventq();
            eq.scheduleAt(
                40,
                [&eq] { eq.scheduleAt(40, [] {}, sim::gpuOwner(1)); },
                sim::gpuOwner(2));
            system.run();
        },
        "same tick");
}
