/**
 * @file
 * Set-associative tag/state store.
 *
 * This is the software equivalent of the board's SDRAM tag directory:
 * it holds, per line frame, the line address tag, an opaque 8-bit
 * protocol state (0 is Invalid by convention across the project), and
 * replacement metadata. No data is stored — MemorIES only tracks tags
 * and states, which is what lets 1GB of SDRAM describe an 8GB cache.
 *
 * The hot path (lookup/fill) is deliberately branch-light: the whole
 * "real-time" property of the tool rests on this path being cheap.
 *
 * Layout: frames are stored per *set* in one contiguous slab, so one
 * lookup touches one block instead of three parallel arrays. Each set
 * occupies 2*assoc consecutive 64-bit words:
 *
 *   words [0, assoc)        tag|state, packed (line << 8) | state
 *   words [assoc, 2*assoc)  LRU/FIFO recency stamps
 *
 * A 4-way set is exactly one 64-byte cache line (the slab is 64-byte
 * aligned), and the packed tag compare is a branchless shift-and-
 * compare over consecutive words — SIMD-ready, and friendly to
 * software prefetch (prefetch()).
 *
 * All mutable state is confined to the touched set: recency stamps are
 * per-set (stamp = set max + 1 — the relative order within a set, which
 * is all victim selection ever reads, matches a global tick exactly),
 * and the Random policy draws from a per-set Rng, so disjoint sets
 * share no mutable state; occupancy() is computed by scan for the same
 * reason.
 */

#ifndef MEMORIES_CACHE_TAGSTORE_HH
#define MEMORIES_CACHE_TAGSTORE_HH

#include <cstdint>
#include <functional>
#include <vector>

#include "cache/config.hh"
#include "checkpoint/codec.hh"
#include "common/random.hh"
#include "common/types.hh"

namespace memories::cache
{

/** Opaque line state; 0 always means Invalid. */
using LineStateRaw = std::uint8_t;

/** State value meaning "frame empty". */
inline constexpr LineStateRaw invalidState = 0;

/** Result of looking up an address. */
struct LookupResult
{
    bool hit = false;
    /** Way within the set (valid only on hit). */
    unsigned way = 0;
    /** State of the hit line (invalidState on miss). */
    LineStateRaw state = invalidState;
};

/** What allocate() displaced, if anything. */
struct Eviction
{
    bool valid = false;
    Addr lineAddr = 0;        //!< line-aligned byte address of the victim
    LineStateRaw state = invalidState;
};

/** Set-associative tag+state array with pluggable replacement. */
class TagStore
{
  public:
    /**
     * Build a tag store for @p config (which the caller has validated
     * against the appropriate bounds).
     * @param seed Seed for the Random replacement policy (each set
     *        derives its own stream from it).
     */
    explicit TagStore(const CacheConfig &config, std::uint64_t seed = 1);

    /**
     * Movable but not copyable: frames_ points into slab_, so a copy
     * would share the source's frames. A move takes the slab whole.
     */
    TagStore(const TagStore &) = delete;
    TagStore &operator=(const TagStore &) = delete;
    TagStore(TagStore &&) = default;
    TagStore &operator=(TagStore &&) = default;

    /** Line-aligned address of @p addr under this geometry. */
    Addr lineAlign(Addr addr) const { return addr & ~(lineSize_ - 1); }

    /** Look up @p addr and update replacement metadata on hit. */
    LookupResult lookup(Addr addr);

    /** Look up without touching replacement metadata (snoop path). */
    LookupResult probe(Addr addr) const;

    /**
     * Install @p addr with @p state, evicting a victim if the set is
     * full. The returned Eviction describes the displaced line (its
     * valid flag is false when an empty frame was used).
     */
    Eviction allocate(Addr addr, LineStateRaw state);

    /** Set the state of a resident line; panics if @p addr misses. */
    void setState(Addr addr, LineStateRaw state);

    /** Invalidate @p addr if resident. @return true when it was. */
    bool invalidate(Addr addr);

    /**
     * Way-addressed variants for the batch hot path: a preceding
     * lookup()/probe() already found @p addr at @p way, so skip the
     * tag walk and write the frame directly.
     */
    void setStateAt(Addr addr, unsigned way, LineStateRaw state)
    {
        const std::uint64_t line = addr >> lineShift_;
        setBlock(setIndex(line))[way] = (line << 8) | state;
    }
    void invalidateAt(Addr addr, unsigned way)
    {
        std::uint64_t *frame = setBlock(setIndex(addr >> lineShift_)) + way;
        *frame &= ~std::uint64_t{0xff};
    }

    /** Number of valid frames currently held (computed by scan). */
    std::uint64_t occupancy() const;

    /**
     * Pull the set block holding @p addr towards the cache ahead of a
     * lookup (batch hot path: issue a handful of these before walking
     * the batch so the tag loads overlap).
     */
    void prefetch(Addr addr) const
    {
        __builtin_prefetch(
            frames_ + setIndex(addr >> lineShift_) * stride_);
    }

    /** Visit every valid line as (lineAddr, state). */
    void forEachValid(
        const std::function<void(Addr, LineStateRaw)> &fn) const;

    /** Drop every line (console reset). */
    void reset();

    /**
     * StateCodec: append the full directory state — every set's packed
     * tag|state words *and* relative recency stamps, the Tree-PLRU bit
     * array, and the Random policy's per-set RNG streams — to @p sink.
     * Restoring reproduces victim selection exactly, which a tag-only
     * export cannot (see docs/FORMATS.md section 7).
     */
    void saveState(ckpt::Sink &sink) const;

    /**
     * StateCodec: load a saveState() payload straight into this store.
     * fatal() when it does not fit this geometry, a line sits in a set
     * it does not map to, or an RNG stream is all zero. A throw can
     * leave the store half-loaded, so a restore loads into a freshly
     * built store and keeps it only once everything loaded
     * (MemoriesBoard::loadState).
     */
    void loadState(ckpt::Source &source);

    const CacheConfig &config() const { return config_; }

  private:
    std::uint64_t setIndex(Addr line_addr) const
    {
        return line_addr & setMask_;
    }

    /** First word of the block for set @p set. */
    std::uint64_t *setBlock(std::uint64_t set)
    {
        return frames_ + set * stride_;
    }
    const std::uint64_t *setBlock(std::uint64_t set) const
    {
        return frames_ + set * stride_;
    }

    /** Largest recency stamp in @p block (valid or stale). */
    std::uint64_t maxStamp(const std::uint64_t *block) const
    {
        std::uint64_t m = block[assoc_];
        for (unsigned w = 1; w < assoc_; ++w) {
            if (block[assoc_ + w] > m)
                m = block[assoc_ + w];
        }
        return m;
    }

    unsigned victimWay(std::uint64_t set);

    void plruTouch(std::uint64_t set, unsigned way);
    unsigned plruVictim(std::uint64_t set) const;

    CacheConfig config_;
    std::uint64_t lineSize_;
    unsigned lineShift_;
    std::uint64_t numSets_;
    std::uint64_t setMask_;
    unsigned assoc_;
    unsigned stride_; //!< words per set block (2 * assoc)

    /** Backing storage; frames_ is its 64-byte-aligned view. */
    std::vector<std::uint64_t> slab_;
    std::uint64_t *frames_ = nullptr;

    /** Tree-PLRU bits, one byte per set (assoc-1 bits used). */
    std::vector<std::uint8_t> plruBits_;
    /** Random-policy victim streams, one per set. */
    std::vector<Rng> rngs_;
};

} // namespace memories::cache

#endif // MEMORIES_CACHE_TAGSTORE_HH
