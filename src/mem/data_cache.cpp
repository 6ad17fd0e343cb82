#include "mem/data_cache.hpp"

namespace transfw::mem {

DataCache::DataCache(sim::EventQueue &eq, std::string name,
                     const DataCacheConfig &config, FetchFn fetch_below,
                     sim::Owner owner)
    : SimObject(eq, std::move(name), owner), config_(config),
      fetchBelow_(std::move(fetch_below)),
      tags_(config.sizeBytes / config.lineBytes, config.ways)
{}

void
DataCache::access(PhysAddr addr, bool write, Callback done)
{
    ++accesses_;
    PhysAddr line = lineOf(addr);

    schedule(config_.hitLatency, [this, line, write,
                                  done = std::move(done)]() mutable {
        if (Line *hit = tags_.lookup(line)) {
            ++hits_;
            hit->dirty |= write;
            done();
            return;
        }
        // Miss: coalesce with any outstanding fetch of this line.
        bool primary = mshr_.allocate(
            line, std::make_pair(write, std::move(done)));
        if (!primary)
            return;
        fetchBelow_(line * config_.lineBytes, [this, line]() {
            auto evicted = tags_.insert(line, Line{});
            if (evicted && evicted->second.dirty) {
                // Dirty victim: write it back below (fire and forget —
                // the requester does not wait on the writeback).
                ++writebacks_;
                fetchBelow_(evicted->first * config_.lineBytes, [] {});
            }
            Line *installed = tags_.lookup(line);
            for (auto &waiter : mshr_.release(line)) {
                if (installed)
                    installed->dirty |= waiter.first;
                waiter.second();
            }
        });
    });
}

} // namespace transfw::mem
