#ifndef TRANSFW_SIM_EVENT_QUEUE_HPP
#define TRANSFW_SIM_EVENT_QUEUE_HPP

#include <array>
#include <cstdint>
#include <vector>

#include "sim/event_fn.hpp"
#include "sim/ticks.hpp"

// Observability master switch. Canonically set by the build system
// (TRANSFW_OBS=0 compiles instrumentation out); defaulting it here
// keeps sim/ independent of the obs/ headers that also guard on it.
#ifndef TRANSFW_OBS
#define TRANSFW_OBS 1
#endif

namespace transfw::sim {

/**
 * Who an event belongs to: the host side (host MMU / UVM driver,
 * migration, central page table, routing) is owner 0 and GPU g is
 * owner g + 1. Same-tick events run in owner order.
 */
using Owner = std::uint32_t;

constexpr Owner kHostOwner = 0;

constexpr Owner
gpuOwner(int gpu)
{
    return static_cast<Owner>(gpu) + 1;
}

/**
 * Discrete-event simulation kernel.
 *
 * Components schedule callbacks at absolute or relative ticks, each
 * stamped with an Owner; run() drains events in (tick, owner, seq)
 * order, where seq is the insertion order. Execution is therefore fully
 * deterministic: at one tick the host's events run first, then GPU 0's,
 * GPU 1's, and so on, and one owner's events at a tick run in the order
 * they were scheduled. An event may schedule work at its own tick for
 * its own or a higher owner (it runs later in the same tick); work for
 * a lower owner at the running tick would run out of order, so
 * scheduling it panics.
 *
 * Internally the queue is two-level, in the spirit of calendar/ladder
 * queues: events within kWindow ticks of now() land in a ring of
 * per-tick buckets kept sorted by (owner, seq), and only far-future
 * events pay for a binary heap. A bucket insert walks back from the
 * tail past entries of higher owners, so the common insert (the
 * highest owner so far at that tick) is an append. A bitmap over the
 * ring makes "next non-empty tick" a handful of word scans. Combined
 * with the small-buffer-optimised EventFn callback, the schedule → fire
 * round trip on the common path touches no allocator at steady state
 * (bucket vectors retain their capacity).
 *
 * Far entries join the bucket of their tick, with the same sorted
 * insert, just before that tick drains. An entry only sits in the heap
 * if it was scheduled ≥ kWindow ticks ahead, i.e. before every bucket
 * insertion for the same tick, so among one owner's events it keeps
 * its place ahead of them.
 */
class EventQueue
{
  public:
    using Callback = EventFn;

    /** Near-future window covered by the bucket ring (power of two). */
    static constexpr std::size_t kWindow = 1024;

#if TRANSFW_OBS
    /**
     * Observer of event-dispatch boundaries (the obs::SelfProfiler).
     * beginDispatch() fires immediately before a callback is invoked
     * and endDispatch() immediately after; both run on the hot path,
     * so implementations must keep the common case to a few
     * instructions. Compiled out entirely under TRANSFW_OBS=0.
     */
    class DispatchHook
    {
      public:
        virtual ~DispatchHook() = default;
        virtual void beginDispatch() = 0;
        virtual void endDispatch() = 0;
    };

    /** Install (or clear, with nullptr) the dispatch observer. */
    void setDispatchHook(DispatchHook *hook) { hook_ = hook; }
#endif

    /**
     * High-water mark of queued events over the queue's lifetime. A
     * pure function of the event schedule, so deterministic — it lands
     * in the ledger's metrics section, not the wall section.
     */
    std::size_t peakPending() const { return peak_; }

    /** Current simulation time. */
    Tick now() const { return now_; }

    /** Schedule @p cb for @p owner to fire @p delay ticks from now. */
    void
    schedule(Tick delay, Callback cb, Owner owner = kHostOwner)
    {
        scheduleAt(now_ + delay, std::move(cb), owner);
    }

    /**
     * Schedule @p cb for @p owner at absolute tick @p when. Scheduling
     * in the past, or at the running tick for an owner below the
     * running event's, is an invariant violation (panics).
     */
    void scheduleAt(Tick when, Callback cb, Owner owner = kHostOwner);

    /** True when no events remain. */
    bool empty() const { return size_ == 0; }

    /** Number of queued events. */
    std::size_t pending() const { return size_; }

    /**
     * Execute events until the queue drains or the next event lies past
     * @p until. @return the number of events executed.
     */
    std::uint64_t run(Tick until = kMaxTick);

    /** Execute exactly one event if available. @return true if one ran. */
    bool runOne();

    /** Earliest pending tick; kMaxTick when nothing is queued. */
    Tick nextTick() const;

    /**
     * Advance to tick @p when, which must be nextTick(), and execute
     * every event at it in (owner, seq) order, including events a
     * callback schedules at @p when. @return the number of events
     * executed.
     */
    std::uint64_t
    runTick(Tick when)
    {
        now_ = when;
        return drainTick(when);
    }

  private:
    /** Near event parked in a bucket: its tick is the bucket's tick. */
    struct Entry
    {
        Owner owner;
        std::uint64_t seq;
        Callback cb;

        bool
        before(const Entry &o) const
        {
            return owner != o.owner ? owner < o.owner : seq < o.seq;
        }
    };

    /** Far event in the fallback heap. */
    struct FarEntry
    {
        Tick when;
        Entry e;
    };

    /**
     * One tick's events, sorted by (owner, seq) and consumed
     * front-to-back via @p head (so runOne() can leave a tick
     * half-drained); the vector keeps its capacity across reuse.
     */
    struct Bucket
    {
        std::vector<Entry> entries;
        std::size_t head = 0;

        bool drained() const { return head >= entries.size(); }
    };

    struct FarLater
    {
        bool
        operator()(const FarEntry &a, const FarEntry &b) const
        {
            if (a.when != b.when)
                return a.when > b.when;
            return a.e.seq > b.e.seq;
        }
    };

    /** Sorted insert of @p e into @p when's bucket, never past its head. */
    void insert(Tick when, Entry e);
    /** Move the heap's entries for tick @p when into its bucket. */
    void admitFar(Tick when);
    /** Execute all events at tick @p when (== now_) in order. */
    std::uint64_t drainTick(Tick when);
    /** Execute @p e (counters first, mirroring the pop-then-run order). */
    void fire(Entry &e);
    void resetBucket(std::size_t idx);

    std::size_t bucketIndex(Tick when) const
    {
        return static_cast<std::size_t>(when % kWindow);
    }

    Tick now_ = 0;
    std::uint64_t nextSeq_ = 0;
    /** Owner of the event being executed (host between events). */
    Owner running_ = kHostOwner;
    std::size_t size_ = 0; ///< queued events
    std::size_t peak_ = 0; ///< lifetime high-water mark of size_
#if TRANSFW_OBS
    DispatchHook *hook_ = nullptr;
#endif
    std::array<Bucket, kWindow> buckets_;
    /** Bit i set ⇔ buckets_[i] has undrained entries. */
    std::array<std::uint64_t, kWindow / 64> liveBits_{};
    std::vector<FarEntry> far_; ///< min-heap via std::push/pop_heap
};

} // namespace transfw::sim

#endif // TRANSFW_SIM_EVENT_QUEUE_HPP
