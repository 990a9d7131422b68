#ifndef MORPHEUS_CACHE_SET_ASSOC_CACHE_HPP_
#define MORPHEUS_CACHE_SET_ASSOC_CACHE_HPP_

#include <cstdint>
#include <optional>
#include <vector>

#include "cache/replacement.hpp"
#include "sim/types.hpp"

namespace morpheus {

/**
 * A functional set-associative cache tag/data model.
 *
 * Holds tags, valid/dirty bits, replacement state, and a per-line data
 * *version* instead of actual bytes: versions are the simulator's
 * functional-correctness currency (the DRAM backing store is the root of
 * truth, and property tests assert read-your-writes through the full
 * hierarchy). Timing is the owner's job: this class only answers hit/miss
 * and performs state transitions.
 *
 * Used for the per-SM L1 caches and the conventional LLC banks, so every
 * simulated access scans a set here. Storage is struct-of-arrays: a hit
 * scan reads only the dense tag array (8 bytes per way, validity folded
 * into the tag), and versions and dirty bits sit in parallel arrays.
 */
class SetAssocCache
{
  public:
    /** Outcome of a lookup. */
    struct LookupResult
    {
        bool hit = false;
        std::uint64_t version = 0;  ///< data version, valid when hit
    };

    /** Description of an eviction caused by a fill. */
    struct Eviction
    {
        LineAddr line = 0;
        bool dirty = false;
        std::uint64_t version = 0;
    };

    /**
     * @param sets number of sets (power of two not required).
     * @param ways associativity.
     * @param repl replacement policy.
     * @param hashed_index when true, the set index is computed from a
     *        hashed line address (LLC-style interleaving); when false the
     *        low line-address bits are used (L1-style).
     */
    SetAssocCache(std::uint32_t sets, std::uint32_t ways,
                  ReplacementKind repl = ReplacementKind::kLru, bool hashed_index = false);

    /** Capacity in bytes. */
    std::uint64_t capacity_bytes() const
    {
        return static_cast<std::uint64_t>(sets_) * ways_ * kLineBytes;
    }

    std::uint32_t sets() const { return sets_; }
    std::uint32_t ways() const { return ways_; }

    /** Set index for @p line (exposed for bank interleaving tests). */
    std::uint32_t set_index(LineAddr line) const;

    /** Non-destructive presence check (no replacement-state update). */
    bool probe(LineAddr line) const;

    /**
     * Read lookup. On hit, updates replacement state and returns the
     * version. On miss, no state changes (fetch-on-fill).
     */
    LookupResult read(LineAddr line);

    /**
     * Write lookup (write-back caches). On hit, marks the line dirty with
     * @p version. On miss, nothing changes (the owner decides
     * write-allocate policy and calls fill()).
     */
    LookupResult write(LineAddr line, std::uint64_t version);

    /**
     * Inserts @p line with @p version, evicting a victim if the set is
     * full. @p dirty marks the inserted line dirty (write-allocate).
     * @return the eviction, if a valid victim was displaced.
     */
    std::optional<Eviction> fill(LineAddr line, std::uint64_t version, bool dirty);

    /** Drops @p line if present; returns its eviction record. */
    std::optional<Eviction> invalidate(LineAddr line);

    /** Writes every dirty line back via @p sink and clears the cache. */
    template <typename Sink>
    void
    flush(Sink &&sink)
    {
        for (std::size_t i = 0; i < tags_.size(); ++i) {
            if ((tags_[i] & kValidBit) && dirty_[i])
                sink(tags_[i] & ~kValidBit, versions_[i]);
            tags_[i] &= ~kValidBit;
            dirty_[i] = 0;
        }
    }

    /** @name Statistics (monotonic counters). */
    ///@{
    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }
    std::uint64_t fills() const { return fills_; }
    std::uint64_t evictions() const { return evictions_; }
    std::uint64_t writebacks() const { return writebacks_; }
    ///@}

    /** Checkpoint state: tags, replacement state, and counters. Geometry
     *  (sets/ways/indexing) is configuration and must already match. */
    template <class A>
    void
    state(A &ar)
    {
        // One (line, valid, dirty, version) record per way, in way order.
        std::vector<WayRecord> ways(tags_.size());
        for (std::size_t i = 0; i < ways.size(); ++i)
            ways[i] = WayRecord{tags_[i] & ~kValidBit, (tags_[i] & kValidBit) != 0,
                                dirty_[i] != 0, versions_[i]};
        ar.objs(ways);
        if constexpr (!A::kIsWriter) {
            for (std::size_t i = 0; i < ways.size(); ++i) {
                tags_[i] = ways[i].line | (ways[i].valid ? kValidBit : 0);
                dirty_[i] = ways[i].dirty;
                versions_[i] = ways[i].version;
            }
        }
        ar.objs(repl_);
        ar.field(hits_);
        ar.field(misses_);
        ar.field(fills_);
        ar.field(evictions_);
        ar.field(writebacks_);
    }

  private:
    /**
     * Tag of a valid way: its line with this bit set. Invalidation clears
     * the bit and keeps the stale line, which state() still reports. No
     * real line address reaches bit 63 (lines are byte addresses / 128).
     */
    static constexpr std::uint64_t kValidBit = std::uint64_t{1} << 63;

    /** Checkpoint view of one way. */
    struct WayRecord
    {
        LineAddr line = 0;
        bool valid = false;
        bool dirty = false;
        std::uint64_t version = 0;

        template <class A>
        void
        state(A &ar)
        {
            ar.field(line);
            ar.field(valid);
            ar.field(dirty);
            ar.field(version);
        }
    };

    /** Index of @p set's way 0 in the per-way arrays. */
    std::size_t base_of(std::uint32_t set) const
    {
        return static_cast<std::size_t>(set) * ways_;
    }

    /** Finds the way holding @p line in @p set, or -1. */
    int find_way(std::uint32_t set, LineAddr line) const;

    std::uint32_t sets_;
    std::uint32_t ways_;
    bool hashed_index_;
    /** Power-of-two set counts index by mask, others by modulo. */
    bool pow2_sets_;
    /** Per-way state, set-major. A hit scan touches only tags_. */
    std::vector<std::uint64_t> tags_;
    std::vector<std::uint64_t> versions_;
    std::vector<std::uint8_t> dirty_;
    std::vector<ReplacementState> repl_;

    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
    std::uint64_t fills_ = 0;
    std::uint64_t evictions_ = 0;
    std::uint64_t writebacks_ = 0;
};

} // namespace morpheus

#endif // MORPHEUS_CACHE_SET_ASSOC_CACHE_HPP_
