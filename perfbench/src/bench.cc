#include "bench.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <new>

namespace perfbench
{

namespace
{
// Bytes allocated by this thread through the replaced operator new.
thread_local std::uint64_t tlsAllocated = 0;
} // namespace

std::uint64_t
threadAllocatedBytes()
{
    return tlsAllocated;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double
percentile(std::vector<double> v, double pct)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const auto rank = static_cast<std::size_t>(
        std::ceil(pct / 100.0 * static_cast<double>(v.size())));
    return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double
fastestShareMedian(std::vector<double> v, bool higher_is_faster,
                   double share)
{
    if (higher_is_faster)
        std::sort(v.begin(), v.end(), std::greater<>());
    else
        std::sort(v.begin(), v.end());
    v.resize(std::min(v.size(), std::max<std::size_t>(
                                    1, static_cast<std::size_t>(std::ceil(
                                           share * v.size())))));
    return median(std::move(v));
}

double
FeedLatencies::percentileOverRepetitions(double pct) const
{
    std::vector<double> per;
    for (const auto &rep : reps_)
        per.push_back(percentile(rep, pct));
    return fasterHalfMedian(std::move(per), false);
}

std::size_t
FeedLatencies::samples() const
{
    std::size_t n = 0;
    for (const auto &rep : reps_)
        n += rep.size();
    return n;
}

std::string
describeSamples(const std::string &name, const std::vector<double> &v,
                const std::string &unit)
{
    char line[200];
    std::snprintf(line, sizeof line,
                  ": n=%zu q1 %.6g median %.6g q3 %.6g ", v.size(),
                  percentile(v, 25), median(v), percentile(v, 75));
    return name + line + unit;
}

double
peakRssMiB()
{
    std::ifstream status("/proc/self/status");
    std::string key;
    while (status >> key) {
        if (key == "VmHWM:") {
            double kib = 0;
            status >> kib;
            return kib / 1024.0;
        }
        status.ignore(1 << 16, '\n');
    }
    return 0;
}

void
RepeatCheck::add(Counts counts, bool traced,
                 std::vector<std::string> &problems)
{
    const std::size_t r = seen_++;
    if (r == 0) {
        first_ = std::move(counts);
        return;
    }
    if (counts == first_)
        return;
    std::string where = "a key set";
    for (const auto &[name, value] : first_) {
        const auto it = counts.find(name);
        if (it == counts.end() || it->second != value) {
            where = name;
            break;
        }
    }
    problems.push_back(
        "repetition " + std::to_string(r) +
        (traced ? " (traced)" : " (untraced)") +
        " is not byte-identical to repetition 0 (first difference: " +
        where + ")");
}

void
describeBoard(const memories::ies::BoardConfig &config,
              const std::string &prefix, std::vector<std::string> &lines)
{
    lines.push_back(prefix + ".buffer_entries: " +
                    std::to_string(config.bufferEntries));
    lines.push_back(prefix + ".sdram_throughput_percent: " +
                    std::to_string(config.sdramThroughputPercent));
    for (std::size_t i = 0; i < config.nodes.size(); ++i) {
        const auto &n = config.nodes[i];
        std::string cpus;
        for (const auto cpu : n.cpus) {
            if (!cpus.empty())
                cpus += ',';
            cpus += std::to_string(cpu);
        }
        lines.push_back(prefix + ".node" + std::to_string(i) + ": " +
                        n.cache.describe() + ", " + n.protocol.name() +
                        ", cpus " + cpus + ", machine " +
                        std::to_string(n.targetMachine) +
                        ", set sampling shift " +
                        std::to_string(n.setSamplingShift));
    }
}

} // namespace perfbench

// Counting replacements for the global allocation functions: the
// board's construction-time allocation is cache.directory_bytes.
void *
operator new(std::size_t size)
{
    perfbench::tlsAllocated += size;
    if (void *p = std::malloc(size ? size : 1))
        return p;
    throw std::bad_alloc();
}

void *
operator new(std::size_t size, std::align_val_t align)
{
    perfbench::tlsAllocated += size;
    void *p = nullptr;
    const auto a = std::max(static_cast<std::size_t>(align), sizeof(void *));
    if (posix_memalign(&p, a, size ? size : 1) == 0)
        return p;
    throw std::bad_alloc();
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
