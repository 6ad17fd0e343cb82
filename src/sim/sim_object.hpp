#ifndef TRANSFW_SIM_SIM_OBJECT_HPP
#define TRANSFW_SIM_SIM_OBJECT_HPP

#include <string>
#include <utility>

#include "sim/event_queue.hpp"

namespace transfw::sim {

/**
 * Base class for every timed simulation component. Provides a
 * hierarchical name (for logging/stats), access to the shared event
 * queue, and the Owner every event it schedules is stamped with (the
 * host, or the GPU the component belongs to).
 */
class SimObject
{
  public:
    SimObject(EventQueue &eq, std::string name, Owner owner = kHostOwner)
        : eq_(&eq), name_(std::move(name)), owner_(owner)
    {}

    virtual ~SimObject() = default;

    SimObject(const SimObject &) = delete;
    SimObject &operator=(const SimObject &) = delete;

    const std::string &name() const { return name_; }
    EventQueue &eventq() { return *eq_; }
    Tick curTick() const { return eq_->now(); }
    Owner owner() const { return owner_; }

  protected:
    /** Schedule a member callback @p delay ticks in the future. */
    void
    schedule(Tick delay, EventQueue::Callback cb)
    {
        eq_->schedule(delay, std::move(cb), owner_);
    }

    /** Schedule a member callback at absolute tick @p when. */
    void
    scheduleAt(Tick when, EventQueue::Callback cb)
    {
        eq_->scheduleAt(when, std::move(cb), owner_);
    }

  private:
    EventQueue *eq_;
    std::string name_;
    Owner owner_;
};

} // namespace transfw::sim

#endif // TRANSFW_SIM_SIM_OBJECT_HPP
