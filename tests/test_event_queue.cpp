#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "sim/event_queue.hpp"

using namespace transfw;

TEST(EventQueue, RunsInTimeOrder)
{
    sim::EventQueue eq;
    std::vector<int> order;
    eq.schedule(30, [&] { order.push_back(3); });
    eq.schedule(10, [&] { order.push_back(1); });
    eq.schedule(20, [&] { order.push_back(2); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.now(), 30u);
}

TEST(EventQueue, SameTickFifoOrder)
{
    sim::EventQueue eq;
    std::vector<int> order;
    for (int i = 0; i < 10; ++i)
        eq.schedule(5, [&order, i] { order.push_back(i); });
    eq.run();
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventQueue, ReentrantScheduling)
{
    sim::EventQueue eq;
    int fired = 0;
    eq.schedule(1, [&] {
        ++fired;
        eq.schedule(1, [&] {
            ++fired;
            eq.schedule(1, [&] { ++fired; });
        });
    });
    eq.run();
    EXPECT_EQ(fired, 3);
    EXPECT_EQ(eq.now(), 3u);
}

TEST(EventQueue, RunUntilStopsEarly)
{
    sim::EventQueue eq;
    int fired = 0;
    eq.schedule(10, [&] { ++fired; });
    eq.schedule(20, [&] { ++fired; });
    EXPECT_EQ(eq.run(15), 1u);
    EXPECT_EQ(fired, 1);
    EXPECT_FALSE(eq.empty());
    eq.run();
    EXPECT_EQ(fired, 2);
}

TEST(EventQueue, FarEventsBeyondBucketWindow)
{
    // Delays past the bucket window take the fallback-heap path; the
    // (tick, insertion) order contract must hold across both levels.
    sim::EventQueue eq;
    std::vector<int> order;
    eq.schedule(5000, [&] { order.push_back(3); });
    eq.schedule(2000, [&] { order.push_back(2); });
    eq.schedule(3, [&] { order.push_back(1); });
    eq.schedule(5000, [&] { order.push_back(4); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
    EXPECT_EQ(eq.now(), 5000u);
}

TEST(EventQueue, FarAndNearEventsAtSameTickKeepFifoOrder)
{
    // Schedule tick 1500 first from afar (heap), then walk time close
    // enough that a second event at 1500 lands in a bucket: the heap
    // entry was inserted first and must fire first.
    sim::EventQueue eq;
    std::vector<int> order;
    eq.schedule(1500, [&] { order.push_back(1); });
    eq.schedule(600, [&] {
        // now = 600: tick 1500 is within the window now.
        eq.scheduleAt(1500, [&] { order.push_back(2); });
    });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(EventQueue, LongChainCrossesWindowRepeatedly)
{
    // A self-rescheduling chain whose hops straddle the window exercises
    // bucket wrap-around and heap migration many times.
    sim::EventQueue eq;
    std::uint64_t fired = 0;
    std::function<void()> hop = [&] {
        if (++fired < 500)
            eq.schedule(fired % 3 == 0 ? 1700 : 37, hop);
    };
    eq.schedule(0, hop);
    EXPECT_EQ(eq.run(), 500u);
    EXPECT_EQ(fired, 500u);
    EXPECT_TRUE(eq.empty());
}

TEST(EventQueue, MoveOnlyCallback)
{
    // std::function required copyable callables; the event kernel must
    // accept move-only ones (e.g. capturing a unique_ptr).
    sim::EventQueue eq;
    int fired = 0;
    auto payload = std::make_unique<int>(41);
    eq.schedule(1, [&fired, p = std::move(payload)] { fired = *p + 1; });
    eq.run();
    EXPECT_EQ(fired, 42);
}

TEST(EventQueue, RunOneAcrossWindowBoundary)
{
    sim::EventQueue eq;
    std::vector<int> order;
    eq.schedule(2, [&] { order.push_back(1); });
    eq.schedule(4000, [&] { order.push_back(2); });
    EXPECT_TRUE(eq.runOne());
    EXPECT_EQ(eq.now(), 2u);
    EXPECT_TRUE(eq.runOne());
    EXPECT_EQ(eq.now(), 4000u);
    EXPECT_FALSE(eq.runOne());
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(EventQueue, NextTickForgetsTickDrainedOfItsLastStrongEvent)
{
    // A queue that runs dry and later receives new work must report
    // the new work's tick, not the tick whose bucket it just emptied.
    sim::EventQueue eq;
    eq.scheduleAt(5, [] {});
    EXPECT_EQ(eq.runTick(eq.nextTick()), 1u);
    EXPECT_EQ(eq.pending(), 0u);
    eq.scheduleAt(9, [] {});
    EXPECT_EQ(eq.nextTick(), 9u);
}

TEST(EventQueue, SameTickRunsInOwnerOrder)
{
    sim::EventQueue eq;
    std::vector<sim::Owner> order;
    for (sim::Owner o : {2u, 1u, 0u})
        eq.scheduleAt(5, [&order, o] { order.push_back(o); }, o);
    eq.run();
    EXPECT_EQ(order, (std::vector<sim::Owner>{0, 1, 2}));
}

TEST(EventQueue, FarEntryMergesIntoBucketByOwnerThenSeq)
{
    // Tick 1500 is first scheduled from afar (heap) for owner 2, then
    // from inside the window (bucket) for owners 1 and 2: owner 1 runs
    // first; between the two owner-2 events the far one, scheduled
    // earlier, runs first.
    sim::EventQueue eq;
    std::vector<int> order;
    eq.scheduleAt(1500, [&] { order.push_back(2); }, 2);
    eq.scheduleAt(600, [&] {
        eq.scheduleAt(1500, [&] { order.push_back(3); }, 2);
        eq.scheduleAt(1500, [&] { order.push_back(1); }, 1);
    });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, HigherOwnerWorkAtOwnTickRunsWithinThatTick)
{
    sim::EventQueue eq;
    std::vector<std::pair<sim::Owner, sim::Tick>> ran;
    eq.scheduleAt(7, [&] {
        ran.emplace_back(1, eq.now());
        eq.scheduleAt(7, [&] { ran.emplace_back(2, eq.now()); }, 2);
    }, 1);
    eq.scheduleAt(8, [&] { ran.emplace_back(0, eq.now()); }, 0);
    EXPECT_EQ(eq.runTick(eq.nextTick()), 2u);
    EXPECT_EQ(eq.nextTick(), 8u);
    eq.run();
    EXPECT_EQ(ran, (std::vector<std::pair<sim::Owner, sim::Tick>>{
                       {1, 7}, {2, 7}, {0, 8}}));
}

TEST(EventQueue, PeakPendingIsMaxQueuedAtOnce)
{
    sim::EventQueue eq;
    // Three queued; each swaps itself for a later event as it runs, so
    // the count never exceeds three.
    for (sim::Tick t : {1, 2, 3})
        eq.scheduleAt(t, [&eq] {
            eq.schedule(10, [] {});
        });
    EXPECT_EQ(eq.peakPending(), 3u);
    eq.run();
    EXPECT_EQ(eq.peakPending(), 3u);
    EXPECT_EQ(eq.pending(), 0u);

    // A burst far in the future raises it; draining does not lower it.
    for (int i = 0; i < 5; ++i)
        eq.schedule(5000, [] {}, static_cast<sim::Owner>(i));
    EXPECT_EQ(eq.peakPending(), 5u);
    eq.run();
    EXPECT_EQ(eq.peakPending(), 5u);
}
