#include "workload/synthetic.hh"

#include "common/logging.hh"

namespace memories::workload
{

namespace
{

std::vector<Rng>
makeThreadRngs(unsigned threads, std::uint64_t seed)
{
    std::vector<Rng> rngs;
    rngs.reserve(threads);
    for (unsigned t = 0; t < threads; ++t)
        rngs.emplace_back(seed * 0x9e37u + t * 0xb5297a4du + 1);
    return rngs;
}

} // namespace

UniformWorkload::UniformWorkload(unsigned threads,
                                 std::uint64_t footprint_bytes,
                                 double write_frac, std::uint64_t seed)
    : nThreads_(threads), footprint_(footprint_bytes),
      writeFrac_(write_frac), rngs_(makeThreadRngs(threads, seed))
{
    if (threads == 0)
        fatal("workload needs at least one thread");
    if (footprint_bytes == 0)
        fatal("workload footprint must be nonzero");
}

MemRef
UniformWorkload::next(unsigned tid)
{
    Rng &rng = rngs_[tid];
    MemRef ref;
    ref.addr = workloadBaseAddr + rng.nextBounded(footprint_);
    ref.write = rng.nextBool(writeFrac_);
    return ref;
}

ZipfWorkload::ZipfWorkload(unsigned threads, std::uint64_t blocks,
                           std::uint64_t block_bytes, double theta,
                           double write_frac, std::uint64_t seed)
    : nThreads_(threads), blocks_(blocks), blockBytes_(block_bytes),
      writeFrac_(write_frac), zipf_(blocks, theta),
      rngs_(makeThreadRngs(threads, seed))
{
    if (threads == 0)
        fatal("workload needs at least one thread");
    if (block_bytes == 0)
        fatal("block size must be nonzero");
}

MemRef
ZipfWorkload::next(unsigned tid)
{
    Rng &rng = rngs_[tid];
    const std::uint64_t block = zipf_.sample(rng);
    MemRef ref;
    ref.addr = workloadBaseAddr + block * blockBytes_ +
               rng.nextBounded(blockBytes_);
    ref.write = rng.nextBool(writeFrac_);
    return ref;
}

} // namespace memories::workload
