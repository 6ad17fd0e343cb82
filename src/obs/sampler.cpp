#include "obs/sampler.hpp"

#include "obs/json.hpp"
#include "obs/metrics.hpp"

namespace transfw::obs {

void
IntervalSampler::addColumn(std::string name, Probe probe)
{
    columns_.push_back(Column{std::move(name), std::move(probe)});
}

void
IntervalSampler::addRegistryColumn(const MetricRegistry &registry,
                                   const std::string &name)
{
    addColumn(name, [&registry, name]() { return registry.value(name); });
}

void
IntervalSampler::recordRow(sim::Tick tick)
{
    ProfScope prof(profiler_, ProfBucket::Stats);
    ticks_.push_back(tick);
    for (const Column &col : columns_)
        values_.push_back(col.probe());
}

void
IntervalSampler::writeCsv(std::ostream &os) const
{
    os << "tick";
    for (const Column &col : columns_)
        os << ',' << col.name;
    os << '\n';
    for (std::size_t row = 0; row < ticks_.size(); ++row) {
        os << ticks_[row];
        for (std::size_t col = 0; col < columns_.size(); ++col) {
            os << ',';
            jsonNumber(os, cell(row, col));
        }
        os << '\n';
    }
}

void
IntervalSampler::writeJson(std::ostream &os) const
{
    os << "{\"columns\":[\"tick\"";
    for (const Column &col : columns_) {
        os << ',';
        jsonEscape(os, col.name);
    }
    os << "],\"rows\":[";
    for (std::size_t row = 0; row < ticks_.size(); ++row) {
        if (row)
            os << ',';
        os << "\n[" << ticks_[row];
        for (std::size_t col = 0; col < columns_.size(); ++col) {
            os << ',';
            jsonNumber(os, cell(row, col));
        }
        os << ']';
    }
    os << "\n]}\n";
}

void
IntervalSampler::clear()
{
    ticks_.clear();
    values_.clear();
}

} // namespace transfw::obs
