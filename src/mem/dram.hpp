#ifndef TRANSFW_MEM_DRAM_HPP
#define TRANSFW_MEM_DRAM_HPP

#include <cstdint>
#include <vector>

#include "mem/address.hpp"
#include "sim/sim_object.hpp"
#include "stats/stats.hpp"

namespace transfw::mem {

/** Timing parameters of one device DRAM (GDDR-class, simplified). */
struct DramConfig
{
    /** Total banks across all channels (GDDR/HBM-class GPU memory has
     *  8-32 channels x 8-16 banks; the bank count is what bounds
     *  row-conflict throughput here). */
    int banks = 256;
    sim::Tick rowHitLatency = 40;   ///< CAS only
    sim::Tick rowMissLatency = 100; ///< precharge + activate + CAS
    sim::Tick dataBeat = 4;         ///< per-access bank occupancy
    unsigned rowShift = 11;         ///< 2 KB rows
};

/**
 * Banked DRAM with open-row policy: each bank remembers its open row;
 * an access to the same row pays the CAS-only latency, a different row
 * pays precharge+activate+CAS, and accesses to a busy bank queue
 * behind it. This is the device-memory model behind the detailed
 * memory hierarchy (cfg::MemModel::Hierarchy); the default Simple
 * model charges the flat Table II 100-cycle latency instead.
 */
class Dram : public sim::SimObject
{
  public:
    Dram(sim::EventQueue &eq, std::string name, const DramConfig &config,
         sim::Owner owner = sim::kHostOwner);

    /** Issue an access; @p done fires when the data is returned. */
    void access(PhysAddr addr, sim::EventQueue::Callback done);

    std::uint64_t accesses() const { return accesses_; }
    std::uint64_t rowHits() const { return rowHits_; }
    double
    rowHitRate() const
    {
        return accesses_ ? static_cast<double>(rowHits_) / accesses_
                         : 0.0;
    }

  private:
    struct Bank
    {
        std::uint64_t openRow = ~0ULL;
        sim::Tick busyUntil = 0;
    };

    DramConfig config_;
    std::vector<Bank> banks_;
    std::uint64_t accesses_ = 0;
    std::uint64_t rowHits_ = 0;
};

} // namespace transfw::mem

#endif // TRANSFW_MEM_DRAM_HPP
