#ifndef TRANSFW_MEM_MEM_HIERARCHY_HPP
#define TRANSFW_MEM_MEM_HIERARCHY_HPP

#include <memory>
#include <vector>

#include "mem/data_cache.hpp"
#include "mem/dram.hpp"

namespace transfw::mem {

/** The detailed per-GPU data-memory model (Table II cache rows). */
struct MemHierarchyConfig
{
    DataCacheConfig l1Vector{16 << 10, 4, 64, 1};  ///< 16 KB, 4-way
    DataCacheConfig l2{256 << 10, 16, 64, 10};     ///< 256 KB, 16-way
    DramConfig dram{};
};

/**
 * One GPU's data-side memory system: per-CU L1 vector caches in front
 * of a shared L2 in front of banked DRAM. Only data accesses travel
 * through it (PT-walk accesses keep the flat Table II 100-cycle cost
 * so the translation-path calibration is independent of the data-side
 * model); enable via cfg::MemModel::Hierarchy.
 */
class GpuMemoryHierarchy
{
  public:
    GpuMemoryHierarchy(sim::EventQueue &eq, const std::string &name,
                       const MemHierarchyConfig &config, int num_cus,
                       sim::Owner owner = sim::kHostOwner);

    /** Data access from CU @p cu; @p done fires at data return. */
    void access(int cu, PhysAddr addr, bool write,
                DataCache::Callback done);

    const DataCache &l1(int cu) const
    {
        return *l1s_[static_cast<std::size_t>(cu)];
    }
    const DataCache &l2() const { return l2_; }
    const Dram &dram() const { return dram_; }

    /** Aggregate L1 hit rate across CUs. */
    double l1HitRate() const;

  private:
    Dram dram_;
    DataCache l2_;
    std::vector<std::unique_ptr<DataCache>> l1s_;
};

} // namespace transfw::mem

#endif // TRANSFW_MEM_MEM_HIERARCHY_HPP
