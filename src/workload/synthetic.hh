/**
 * @file
 * Elementary synthetic workloads: uniform and Zipf streams.
 *
 * These are building blocks for tests and microbenchmarks, and the
 * larger workload models compose the same primitives internally.
 */

#ifndef MEMORIES_WORKLOAD_SYNTHETIC_HH
#define MEMORIES_WORKLOAD_SYNTHETIC_HH

#include <vector>

#include "common/random.hh"
#include "workload/workload.hh"

namespace memories::workload
{

/** Uniform random references over a fixed footprint. */
class UniformWorkload : public Workload
{
  public:
    UniformWorkload(unsigned threads, std::uint64_t footprint_bytes,
                    double write_frac, std::uint64_t seed = 1);

    MemRef next(unsigned tid) override;
    unsigned threads() const override { return nThreads_; }
    std::uint64_t footprintBytes() const override { return footprint_; }
    const std::string &name() const override { return name_; }
    double refsPerInstruction() const override { return 0.35; }

  private:
    std::string name_ = "uniform";
    unsigned nThreads_;
    std::uint64_t footprint_;
    double writeFrac_;
    std::vector<Rng> rngs_;
};

/** Zipf-skewed references over a pool of fixed-size blocks. */
class ZipfWorkload : public Workload
{
  public:
    ZipfWorkload(unsigned threads, std::uint64_t blocks,
                 std::uint64_t block_bytes, double theta,
                 double write_frac, std::uint64_t seed = 1);

    MemRef next(unsigned tid) override;
    unsigned threads() const override { return nThreads_; }
    std::uint64_t footprintBytes() const override
    {
        return blocks_ * blockBytes_;
    }
    const std::string &name() const override { return name_; }
    double refsPerInstruction() const override { return 0.35; }

  private:
    std::string name_ = "zipf";
    unsigned nThreads_;
    std::uint64_t blocks_;
    std::uint64_t blockBytes_;
    double writeFrac_;
    ZipfSampler zipf_;
    std::vector<Rng> rngs_;
};

} // namespace memories::workload

#endif // MEMORIES_WORKLOAD_SYNTHETIC_HH
