#include "cache/tagstore.hh"

#include <algorithm>
#include <array>

#include "common/bitops.hh"
#include "common/logging.hh"

namespace memories::cache
{

namespace
{

/** Per-set seed offset (golden-gamma; decorrelates adjacent sets). */
constexpr std::uint64_t setSeedGamma = 0x9E3779B97F4A7C15ull;

/** Packed tag|state word helpers: (line << 8) | state. */
constexpr std::uint64_t
packTag(std::uint64_t line, LineStateRaw state)
{
    return (line << 8) | state;
}

constexpr std::uint64_t
tagOf(std::uint64_t word)
{
    return word >> 8;
}

constexpr LineStateRaw
stateOf(std::uint64_t word)
{
    return static_cast<LineStateRaw>(word & 0xff);
}

} // namespace

TagStore::TagStore(const CacheConfig &config, std::uint64_t seed)
    : config_(config),
      lineSize_(config.lineSize),
      lineShift_(log2i(config.lineSize)),
      numSets_(config.numSets()),
      setMask_(numSets_ - 1),
      assoc_(config.assoc),
      stride_(2 * config.assoc),
      slab_(numSets_ * stride_ + 8, 0)
{
    if (!isPowerOf2(numSets_))
        MEMORIES_PANIC("TagStore built from unvalidated config");
    // Align the frame view so a power-of-two set block never straddles
    // an extra cache line (a 4-way block is exactly one 64B line).
    auto base = reinterpret_cast<std::uintptr_t>(slab_.data());
    const std::uintptr_t aligned = (base + 63) & ~std::uintptr_t{63};
    frames_ = slab_.data() + (aligned - base) / sizeof(std::uint64_t);

    if (config.policy == ReplacementPolicy::TreePLRU) {
        if (!isPowerOf2(assoc_))
            fatal("TreePLRU requires power-of-two associativity, got ",
                  assoc_);
        plruBits_.assign(numSets_, 0);
    }
    if (config.policy == ReplacementPolicy::Random) {
        rngs_.reserve(numSets_);
        for (std::uint64_t s = 0; s < numSets_; ++s)
            rngs_.emplace_back(seed + s * setSeedGamma);
    }
}

void
TagStore::plruTouch(std::uint64_t set, unsigned way)
{
    // Walk root->leaf along the touched way, pointing every node bit
    // away from it (0 = victim path goes left, 1 = right).
    std::uint8_t bits = plruBits_[set];
    unsigned node = 1;
    for (unsigned span = assoc_ / 2; span >= 1; span /= 2) {
        const unsigned dir = (way / span) & 1u ? 1u : 0u;
        if (dir)
            bits &= static_cast<std::uint8_t>(~(1u << node));
        else
            bits |= static_cast<std::uint8_t>(1u << node);
        node = 2 * node + dir;
        if (span == 1)
            break;
    }
    plruBits_[set] = bits;
}

unsigned
TagStore::plruVictim(std::uint64_t set) const
{
    const std::uint8_t bits = plruBits_[set];
    unsigned node = 1;
    unsigned way = 0;
    for (unsigned span = assoc_ / 2; span >= 1; span /= 2) {
        const unsigned dir = (bits >> node) & 1u;
        way += dir * span;
        node = 2 * node + dir;
        if (span == 1)
            break;
    }
    return way;
}

LookupResult
TagStore::lookup(Addr addr)
{
    const std::uint64_t line = addr >> lineShift_;
    const std::uint64_t set = setIndex(line);
    std::uint64_t *block = setBlock(set);
    for (unsigned w = 0; w < assoc_; ++w) {
        const std::uint64_t ts = block[w];
        if (tagOf(ts) == line && stateOf(ts) != invalidState) {
            // LRU touch; FIFO keeps its insertion stamp. The per-set
            // stamp (max + 1) preserves the within-set recency order a
            // global tick would produce.
            if (config_.policy == ReplacementPolicy::LRU)
                block[assoc_ + w] = maxStamp(block) + 1;
            else if (config_.policy == ReplacementPolicy::TreePLRU &&
                     assoc_ > 1)
                plruTouch(set, w);
            return LookupResult{true, w, stateOf(ts)};
        }
    }
    return LookupResult{};
}

LookupResult
TagStore::probe(Addr addr) const
{
    const std::uint64_t line = addr >> lineShift_;
    const std::uint64_t *block = setBlock(setIndex(line));
    for (unsigned w = 0; w < assoc_; ++w) {
        const std::uint64_t ts = block[w];
        if (tagOf(ts) == line && stateOf(ts) != invalidState)
            return LookupResult{true, w, stateOf(ts)};
    }
    return LookupResult{};
}

unsigned
TagStore::victimWay(std::uint64_t set)
{
    const std::uint64_t *block = setBlock(set);
    // An invalid frame is always the first choice.
    for (unsigned w = 0; w < assoc_; ++w) {
        if (stateOf(block[w]) == invalidState)
            return w;
    }
    switch (config_.policy) {
      case ReplacementPolicy::LRU:
      case ReplacementPolicy::FIFO: {
        unsigned victim = 0;
        std::uint64_t oldest = block[assoc_];
        for (unsigned w = 1; w < assoc_; ++w) {
            if (block[assoc_ + w] < oldest) {
                oldest = block[assoc_ + w];
                victim = w;
            }
        }
        return victim;
      }
      case ReplacementPolicy::Random:
        return static_cast<unsigned>(rngs_[set].nextBounded(assoc_));
      case ReplacementPolicy::TreePLRU:
        return assoc_ == 1 ? 0 : plruVictim(set);
    }
    MEMORIES_PANIC("unreachable replacement policy");
}

Eviction
TagStore::allocate(Addr addr, LineStateRaw state)
{
    if (state == invalidState)
        MEMORIES_PANIC("allocate with Invalid state");

    const std::uint64_t line = addr >> lineShift_;
    if (line >> 56)
        MEMORIES_PANIC("line address exceeds the 56-bit packed tag");
    const std::uint64_t set = setIndex(line);
    const unsigned way = victimWay(set);
    std::uint64_t *block = setBlock(set);
    const std::uint64_t old = block[way];

    Eviction ev;
    if (stateOf(old) != invalidState) {
        ev.valid = true;
        ev.lineAddr = tagOf(old) << lineShift_;
        ev.state = stateOf(old);
    }

    const std::uint64_t stamp = maxStamp(block) + 1;
    block[way] = packTag(line, state);
    block[assoc_ + way] = stamp;
    if (config_.policy == ReplacementPolicy::TreePLRU && assoc_ > 1)
        plruTouch(set, way);
    return ev;
}

void
TagStore::setState(Addr addr, LineStateRaw state)
{
    if (state == invalidState) {
        if (!invalidate(addr))
            MEMORIES_PANIC("setState(Invalid) on non-resident line");
        return;
    }
    const std::uint64_t line = addr >> lineShift_;
    std::uint64_t *block = setBlock(setIndex(line));
    for (unsigned w = 0; w < assoc_; ++w) {
        const std::uint64_t ts = block[w];
        if (tagOf(ts) == line && stateOf(ts) != invalidState) {
            block[w] = packTag(line, state);
            return;
        }
    }
    MEMORIES_PANIC("setState on non-resident line");
}

bool
TagStore::invalidate(Addr addr)
{
    const std::uint64_t line = addr >> lineShift_;
    std::uint64_t *block = setBlock(setIndex(line));
    for (unsigned w = 0; w < assoc_; ++w) {
        const std::uint64_t ts = block[w];
        if (tagOf(ts) == line && stateOf(ts) != invalidState) {
            // Clearing the state byte invalidates; the stale tag bits
            // can never match (lookups require state != 0).
            block[w] = ts & ~std::uint64_t{0xff};
            return true;
        }
    }
    return false;
}

std::uint64_t
TagStore::occupancy() const
{
    std::uint64_t count = 0;
    for (std::uint64_t s = 0; s < numSets_; ++s) {
        const std::uint64_t *block = setBlock(s);
        for (unsigned w = 0; w < assoc_; ++w)
            count += stateOf(block[w]) != invalidState;
    }
    return count;
}

void
TagStore::forEachValid(
    const std::function<void(Addr, LineStateRaw)> &fn) const
{
    for (std::uint64_t s = 0; s < numSets_; ++s) {
        const std::uint64_t *block = setBlock(s);
        for (unsigned w = 0; w < assoc_; ++w) {
            const std::uint64_t ts = block[w];
            if (stateOf(ts) != invalidState)
                fn(tagOf(ts) << lineShift_, stateOf(ts));
        }
    }
}

void
TagStore::reset()
{
    std::fill(slab_.begin(), slab_.end(), 0);
    std::fill(plruBits_.begin(), plruBits_.end(), 0);
}

void
TagStore::saveState(ckpt::Sink &sink) const
{
    // Frame words (tag|state and recency stamps interleaved per set)
    // straight from the aligned view; slab padding is not serialized.
    const std::uint64_t words = numSets_ * stride_;
    sink.u64(words);
    for (std::uint64_t i = 0; i < words; ++i)
        sink.u64(frames_[i]);

    sink.u64(plruBits_.size());
    for (std::uint8_t b : plruBits_)
        sink.u8(b);

    sink.u64(rngs_.size());
    for (const Rng &rng : rngs_) {
        for (std::uint64_t w : rng.state())
            sink.u64(w);
    }
}

void
TagStore::loadState(ckpt::Source &source)
{
    const std::uint64_t words = source.u64();
    if (words != numSets_ * stride_) {
        fatal(source.context(), ": directory holds ", words,
              " frame words but this geometry needs ", numSets_ * stride_);
    }
    for (std::uint64_t i = 0; i < words; ++i)
        frames_[i] = source.u64();
    // Tag|state words must fit the 56-bit packed tag discipline; the
    // stamp words are unconstrained.
    for (std::uint64_t s = 0; s < numSets_; ++s) {
        for (unsigned w = 0; w < assoc_; ++w) {
            const std::uint64_t ts = setBlock(s)[w];
            if (stateOf(ts) != invalidState && setIndex(tagOf(ts)) != s) {
                fatal(source.context(), ": line 0x", tagOf(ts),
                      " stored in set ", s, " does not map there");
            }
        }
    }

    const std::uint64_t plruCount = source.u64();
    if (plruCount != plruBits_.size()) {
        fatal(source.context(), ": ", plruCount,
              " PLRU entries but this store has ", plruBits_.size());
    }
    for (std::uint8_t &bits : plruBits_)
        bits = source.u8();

    const std::uint64_t rngCount = source.u64();
    if (rngCount != rngs_.size()) {
        fatal(source.context(), ": ", rngCount,
              " replacement RNG streams but this store has ", rngs_.size());
    }
    for (std::size_t i = 0; i < rngs_.size(); ++i) {
        std::array<std::uint64_t, 4> state{};
        std::uint64_t ored = 0;
        for (std::uint64_t &w : state) {
            w = source.u64();
            ored |= w;
        }
        if (ored == 0) {
            fatal(source.context(), ": set ", i,
                  " RNG stream is the invalid all-zero state");
        }
        rngs_[i].setState(state);
    }
}

} // namespace memories::cache
