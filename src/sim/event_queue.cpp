#include "sim/event_queue.hpp"

#include <algorithm>

#include "sim/logging.hpp"

namespace transfw::sim {

void
EventQueue::scheduleAt(Tick when, Callback cb, Owner owner)
{
    if (when < now_)
        panic(strfmt("event scheduled in the past: %llu < %llu",
                     static_cast<unsigned long long>(when),
                     static_cast<unsigned long long>(now_)));
    if (when == now_ && owner < running_)
        panic(strfmt("owner %u scheduled work for owner %u at tick %llu, "
                     "the same tick it runs at; work for a lower owner "
                     "must arrive a tick later (GPU-to-host traffic "
                     "must cross a link)",
                     running_, owner,
                     static_cast<unsigned long long>(when)));
    ++size_;
    if (size_ > peak_)
        peak_ = size_;
    Entry e{owner, nextSeq_++, std::move(cb)};
    if (when - now_ < kWindow) {
        insert(when, std::move(e));
        return;
    }
    far_.push_back(FarEntry{when, std::move(e)});
    std::push_heap(far_.begin(), far_.end(), FarLater{});
}

void
EventQueue::insert(Tick when, Entry e)
{
    std::size_t idx = bucketIndex(when);
    Bucket &b = buckets_[idx];
    std::size_t pos = b.entries.size();
    while (pos > b.head && e.before(b.entries[pos - 1]))
        --pos;
    b.entries.insert(b.entries.begin() + static_cast<std::ptrdiff_t>(pos),
                     std::move(e));
    liveBits_[idx / 64] |= std::uint64_t{1} << (idx % 64);
}

void
EventQueue::admitFar(Tick when)
{
    while (!far_.empty() && far_.front().when == when) {
        std::pop_heap(far_.begin(), far_.end(), FarLater{});
        Entry e = std::move(far_.back().e);
        far_.pop_back();
        insert(when, std::move(e));
    }
}

namespace {

/**
 * First set bit in @p bits within [lo, hi), or kLimit when none.
 * @p bits spans kLimit bits across 64-bit words.
 */
template <std::size_t kWords>
std::size_t
firstLiveSlot(const std::array<std::uint64_t, kWords> &bits,
              std::size_t lo, std::size_t hi, std::size_t none)
{
    if (lo >= hi)
        return none;
    std::size_t w = lo / 64;
    std::uint64_t word = bits[w] & (~std::uint64_t{0} << (lo % 64));
    while (true) {
        if (word) {
            std::size_t idx =
                w * 64 + static_cast<std::size_t>(__builtin_ctzll(word));
            return idx < hi ? idx : none;
        }
        ++w;
        if (w * 64 >= hi)
            return none;
        word = bits[w];
    }
}

} // namespace

Tick
EventQueue::nextTick() const
{
    Tick next = far_.empty() ? kMaxTick : far_.front().when;
    // The ring covers ticks [now_, now_ + kWindow): slot
    // (start + d) % kWindow holds tick now_ + d, so the first live
    // slot in circular order starting at now_'s own slot is the
    // earliest bucketed tick.
    std::size_t start = bucketIndex(now_);
    std::size_t idx = firstLiveSlot(liveBits_, start, kWindow, kWindow);
    std::size_t dist;
    if (idx < kWindow) {
        dist = idx - start;
    } else {
        idx = firstLiveSlot(liveBits_, 0, start, kWindow);
        dist = idx < kWindow ? idx + kWindow - start : kWindow;
    }
    if (dist < kWindow) {
        Tick t = now_ + dist;
        if (t < next)
            next = t;
    }
    return next;
}

std::uint64_t
EventQueue::run(Tick until)
{
    std::uint64_t executed = 0;
    while (size_ > 0) {
        Tick t = nextTick();
        if (t > until)
            break;
        now_ = t;
        executed += drainTick(t);
    }
    return executed;
}

std::uint64_t
EventQueue::drainTick(Tick when)
{
    admitFar(when);
    std::size_t idx = bucketIndex(when);
    Bucket &b = buckets_[idx];
    std::uint64_t executed = 0;
    // Callbacks may insert same-tick events into this very bucket (a
    // zero-delay reschedule), growing the vector mid-drain: move each
    // entry out before invoking and re-check the bounds every step.
    while (!b.drained()) {
        Entry e = std::move(b.entries[b.head++]);
        fire(e);
        ++executed;
    }
    // A stale live bit would make nextTick() report this tick again
    // once new work arrives.
    resetBucket(idx);
    running_ = kHostOwner;
    return executed;
}

bool
EventQueue::runOne()
{
    if (size_ == 0)
        return false;
    Tick t = nextTick();
    now_ = t;
    admitFar(t);
    std::size_t idx = bucketIndex(t);
    Bucket &b = buckets_[idx];
    Entry e = std::move(b.entries[b.head++]);
    // Recycle the bucket before invoking: the callback may schedule a
    // new event at this same tick, which must land in a fresh bucket,
    // not be wiped by a post-hoc reset.
    if (b.drained())
        resetBucket(idx);
    fire(e);
    running_ = kHostOwner;
    return true;
}

void
EventQueue::fire(Entry &e)
{
    // The count drops before the callback runs so pending() observed
    // from inside an event excludes the event itself.
    --size_;
    running_ = e.owner;
#if TRANSFW_OBS
    if (hook_) {
        hook_->beginDispatch();
        e.cb();
        hook_->endDispatch();
        return;
    }
#endif
    e.cb();
}

void
EventQueue::resetBucket(std::size_t idx)
{
    Bucket &b = buckets_[idx];
    if (b.head == 0 && b.entries.empty())
        return;
    b.entries.clear(); // keeps capacity for the next tick landing here
    b.head = 0;
    liveBits_[idx / 64] &= ~(std::uint64_t{1} << (idx % 64));
}

} // namespace transfw::sim
