#include "mem/mem_hierarchy.hpp"

#include "sim/logging.hpp"

namespace transfw::mem {

GpuMemoryHierarchy::GpuMemoryHierarchy(sim::EventQueue &eq,
                                       const std::string &name,
                                       const MemHierarchyConfig &config,
                                       int num_cus, sim::Owner owner)
    : dram_(eq, name + ".dram", config.dram, owner),
      l2_(
          eq, name + ".l2", config.l2,
          [this](PhysAddr addr, DataCache::Callback cb) {
              dram_.access(addr, std::move(cb));
          },
          owner)
{
    for (int cu = 0; cu < num_cus; ++cu) {
        l1s_.push_back(std::make_unique<DataCache>(
            eq, sim::strfmt("%s.cu%d.l1v", name.c_str(), cu),
            config.l1Vector,
            [this](PhysAddr addr, DataCache::Callback cb) {
                // L1 refills (and writebacks) are reads/writes at L2.
                l2_.access(addr, false, std::move(cb));
            },
            owner));
    }
}

void
GpuMemoryHierarchy::access(int cu, PhysAddr addr, bool write,
                           DataCache::Callback done)
{
    l1s_[static_cast<std::size_t>(cu)]->access(addr, write,
                                               std::move(done));
}

double
GpuMemoryHierarchy::l1HitRate() const
{
    std::uint64_t accesses = 0, hits = 0;
    for (const auto &l1 : l1s_) {
        accesses += l1->accesses();
        hits += l1->hits();
    }
    return accesses ? static_cast<double>(hits) / accesses : 0.0;
}

} // namespace transfw::mem
