#ifndef TRANSFW_MEM_DATA_CACHE_HPP
#define TRANSFW_MEM_DATA_CACHE_HPP

#include <functional>
#include <string>

#include "cache/mshr.hpp"
#include "cache/set_assoc.hpp"
#include "mem/address.hpp"
#include "sim/sim_object.hpp"

namespace transfw::mem {

/** Geometry/latency of one data cache level (Table II rows). */
struct DataCacheConfig
{
    std::size_t sizeBytes = 16 << 10; ///< L1 vector: 16 KB
    std::size_t ways = 4;
    std::size_t lineBytes = 64;
    sim::Tick hitLatency = 1;
};

/**
 * A non-blocking, write-back, write-allocate data cache. Misses
 * coalesce in an MSHR and fetch the line from the level below via the
 * @ref fetchBelow callback; dirty victims add a write-back access to
 * the level below (timing only — the simulator does not track data
 * contents). Used for the per-CU L1 vector caches and the per-GPU
 * shared L2 of the detailed memory model.
 */
class DataCache : public sim::SimObject
{
  public:
    using Callback = std::function<void()>;
    /** Fetch @p line_addr from the level below; cb on completion. */
    using FetchFn = std::function<void(PhysAddr, Callback)>;

    DataCache(sim::EventQueue &eq, std::string name,
              const DataCacheConfig &config, FetchFn fetch_below,
              sim::Owner owner = sim::kHostOwner);

    /** Access @p addr; @p done fires when the data is available. */
    void access(PhysAddr addr, bool write, Callback done);

    /** Drop every line (e.g., after a page migrates away). */
    void invalidateAll() { tags_.invalidateAll(); }

    std::uint64_t accesses() const { return accesses_; }
    std::uint64_t hits() const { return hits_; }
    std::uint64_t writebacks() const { return writebacks_; }
    double
    hitRate() const
    {
        return accesses_ ? static_cast<double>(hits_) / accesses_ : 0.0;
    }

  private:
    struct Line
    {
        bool dirty = false;
    };

    PhysAddr lineOf(PhysAddr addr) const
    {
        return addr / config_.lineBytes;
    }

    DataCacheConfig config_;
    FetchFn fetchBelow_;
    cache::SetAssoc<Line> tags_;
    cache::Mshr<std::pair<bool, Callback>> mshr_;
    std::uint64_t accesses_ = 0;
    std::uint64_t hits_ = 0;
    std::uint64_t writebacks_ = 0;
};

} // namespace transfw::mem

#endif // TRANSFW_MEM_DATA_CACHE_HPP
