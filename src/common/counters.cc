#include "common/counters.hh"

#include <sstream>

#include "common/logging.hh"

namespace memories
{

CounterBank::Handle
CounterBank::add(std::string_view name)
{
    for (std::size_t i = 0; i < names_.size(); ++i) {
        if (names_[i] == name)
            return static_cast<Handle>(i);
    }
    names_.emplace_back(name);
    counters_.emplace_back();
    return static_cast<Handle>(names_.size() - 1);
}

bool
CounterBank::has(std::string_view name) const
{
    for (const auto &n : names_) {
        if (n == name)
            return true;
    }
    return false;
}

CounterBank::Handle
CounterBank::handle(std::string_view name) const
{
    for (std::size_t i = 0; i < names_.size(); ++i) {
        if (names_[i] == name)
            return static_cast<Handle>(i);
    }
    fatal("no counter named '", std::string(name), "'");
}

std::uint64_t
CounterBank::valueByName(std::string_view name) const
{
    return counters_[handle(name)].value();
}

void
CounterBank::clearAll()
{
    for (auto &c : counters_)
        c.clear();
}

std::vector<CounterSample>
CounterBank::snapshot() const
{
    std::vector<CounterSample> samples;
    samples.reserve(counters_.size());
    snapshot([&](const CounterSample &s) { samples.push_back(s); });
    return samples;
}

void
CounterBank::saveState(ckpt::Sink &sink) const
{
    sink.u64(counters_.size());
    snapshot([&](const CounterSample &s) { sink.u64(s.value); });
}

void
CounterBank::loadState(ckpt::Source &source)
{
    const std::uint64_t count = source.u64();
    if (count != counters_.size()) {
        fatal(source.context(), ": holds ", count,
              " counters but this bank has ", counters_.size());
    }
    for (std::size_t i = 0; i < counters_.size(); ++i) {
        const std::uint64_t v = source.u64();
        if (v > Counter40::mask) {
            fatal(source.context(), ": counter '", names_[i],
                  "' value ", v, " exceeds the 40-bit width");
        }
        counters_[i].clear();
        counters_[i].add(v);
    }
}

std::string
CounterBank::dump() const
{
    std::ostringstream os;
    snapshot([&](const CounterSample &s) {
        os << s.name << ' ' << s.value << '\n';
    });
    return os.str();
}

} // namespace memories
