#include "mem/dram.hpp"

namespace transfw::mem {

Dram::Dram(sim::EventQueue &eq, std::string name,
           const DramConfig &config, sim::Owner owner)
    : SimObject(eq, std::move(name), owner), config_(config),
      banks_(static_cast<std::size_t>(config.banks))
{}

void
Dram::access(PhysAddr addr, sim::EventQueue::Callback done)
{
    ++accesses_;
    std::uint64_t row = addr >> config_.rowShift;
    Bank &bank = banks_[row % banks_.size()];

    sim::Tick start = std::max(curTick(), bank.busyUntil);
    sim::Tick latency;
    sim::Tick occupancy;
    if (bank.openRow == row) {
        ++rowHits_;
        latency = config_.rowHitLatency;
        // Row hits pipeline: the bank is only held for the data burst.
        occupancy = config_.dataBeat;
    } else {
        latency = config_.rowMissLatency;
        // Precharge + activate block the bank until the burst completes.
        occupancy = config_.rowMissLatency + config_.dataBeat;
        bank.openRow = row;
    }
    bank.busyUntil = start + occupancy;
    scheduleAt(start + latency + config_.dataBeat, std::move(done));
}

} // namespace transfw::mem
