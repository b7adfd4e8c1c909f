/**
 * @file
 * Deterministic pseudo-random sources for workload generation.
 *
 * Workload generators must be reproducible run-to-run (the board's case
 * studies depend on comparing configurations over identical reference
 * streams), so everything here is seeded explicitly and never touches
 * global state.
 */

#ifndef MEMORIES_COMMON_RANDOM_HH
#define MEMORIES_COMMON_RANDOM_HH

#include <array>
#include <cstdint>
#include <vector>

namespace memories
{

/**
 * xoshiro256** generator: fast, high-quality, 64-bit output.
 * Reference: Blackman & Vigna, "Scrambled Linear Pseudorandom Number
 * Generators".
 */
class Rng
{
  public:
    /** Seed via SplitMix64 expansion so any 64-bit seed is acceptable. */
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull);

    /** Next raw 64-bit value. */
    std::uint64_t next();

    /** Uniform integer in [0, bound); bound must be nonzero. */
    std::uint64_t nextBounded(std::uint64_t bound);

    /** Uniform double in [0, 1). */
    double nextDouble();

    /** Bernoulli draw with probability @p p of returning true. */
    bool nextBool(double p);

    /**
     * Raw engine state, for checkpointing: restoring the four words
     * resumes the stream at exactly the draw where state() was taken.
     */
    std::array<std::uint64_t, 4> state() const
    {
        return {s_[0], s_[1], s_[2], s_[3]};
    }

    /** Restore a state captured by state(); rejects the all-zero
     *  state (the one invalid xoshiro256** state). */
    void setState(const std::array<std::uint64_t, 4> &s);

  private:
    std::uint64_t s_[4];
};

/**
 * Zipf-distributed sampler over ranks 0..n-1 with skew @p theta.
 *
 * Uses the Gray et al. "A (practically) perfect Zipfian generator"
 * rejection-inversion free method: precomputes zeta(n, theta) and inverts
 * the CDF analytically, so setup is O(1) beyond two zeta sums and each
 * sample is O(1). Rank 0 is the hottest item — OLTP page pools rely on
 * that ordering.
 */
class ZipfSampler
{
  public:
    /**
     * @param n      Number of items (must be >= 1).
     * @param theta  Skew in [0, 1); 0 degenerates to uniform, values
     *               around 0.8-0.99 model OLTP page popularity.
     */
    ZipfSampler(std::uint64_t n, double theta);

    /** Draw a rank in [0, n). */
    std::uint64_t sample(Rng &rng) const;

    std::uint64_t items() const { return n_; }
    double theta() const { return theta_; }

  private:
    static double zeta(std::uint64_t n, double theta);

    std::uint64_t n_;
    double theta_;
    double alpha_;
    double zetan_;
    double eta_;
    /** 1 + 0.5^theta: uz below it (and at least 1) draws rank 1. */
    double rankOneBound_;
};

} // namespace memories

#endif // MEMORIES_COMMON_RANDOM_HH
