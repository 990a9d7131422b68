#include <gtest/gtest.h>

#include <optional>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "cache/set_assoc_cache.hpp"
#include "sim/rng.hpp"

using namespace morpheus;

TEST(SetAssocCache, ColdMissesThenHits)
{
    SetAssocCache cache(4, 2);
    EXPECT_FALSE(cache.read(10).hit);
    cache.fill(10, 7, false);
    const auto r = cache.read(10);
    EXPECT_TRUE(r.hit);
    EXPECT_EQ(r.version, 7u);
    EXPECT_EQ(cache.hits(), 1u);
    EXPECT_EQ(cache.misses(), 1u);
}

TEST(SetAssocCache, CapacityBytes)
{
    SetAssocCache cache(256, 16);
    EXPECT_EQ(cache.capacity_bytes(), 256u * 16 * kLineBytes);
}

TEST(SetAssocCache, LruEvictionWithinSet)
{
    SetAssocCache cache(1, 2);  // one set, two ways
    cache.fill(1, 1, false);
    cache.fill(2, 2, false);
    cache.read(1);  // line 2 becomes LRU
    const auto ev = cache.fill(3, 3, false);
    ASSERT_TRUE(ev.has_value());
    EXPECT_EQ(ev->line, 2u);
    EXPECT_TRUE(cache.probe(1));
    EXPECT_TRUE(cache.probe(3));
    EXPECT_FALSE(cache.probe(2));
}

TEST(SetAssocCache, DirtyEvictionReportsWriteback)
{
    SetAssocCache cache(1, 1);
    cache.fill(5, 10, false);
    cache.write(5, 11);
    const auto ev = cache.fill(6, 1, false);
    ASSERT_TRUE(ev.has_value());
    EXPECT_TRUE(ev->dirty);
    EXPECT_EQ(ev->version, 11u);
    EXPECT_EQ(cache.writebacks(), 1u);
}

TEST(SetAssocCache, CleanEvictionIsSilent)
{
    SetAssocCache cache(1, 1);
    cache.fill(5, 10, false);
    const auto ev = cache.fill(6, 1, false);
    ASSERT_TRUE(ev.has_value());
    EXPECT_FALSE(ev->dirty);
}

TEST(SetAssocCache, WriteMissDoesNotAllocate)
{
    SetAssocCache cache(4, 2);
    EXPECT_FALSE(cache.write(9, 1).hit);
    EXPECT_FALSE(cache.probe(9));
}

TEST(SetAssocCache, RefillOfPresentLineMergesState)
{
    SetAssocCache cache(1, 2);
    cache.fill(1, 5, false);
    cache.write(1, 9);
    const auto ev = cache.fill(1, 7, false);  // raced refill with older version
    EXPECT_FALSE(ev.has_value());
    const auto r = cache.read(1);
    EXPECT_EQ(r.version, 9u);  // keeps the newer version and dirtiness
}

TEST(SetAssocCache, InvalidateDropsLine)
{
    SetAssocCache cache(2, 2);
    cache.fill(3, 1, true);
    const auto ev = cache.invalidate(3);
    ASSERT_TRUE(ev.has_value());
    EXPECT_TRUE(ev->dirty);
    EXPECT_FALSE(cache.probe(3));
    EXPECT_FALSE(cache.invalidate(3).has_value());
}

TEST(SetAssocCache, FlushWritesBackAllDirtyLines)
{
    SetAssocCache cache(4, 4);
    cache.fill(1, 1, true);
    cache.fill(2, 2, false);
    cache.fill(3, 3, true);
    std::unordered_map<LineAddr, std::uint64_t> sink;
    cache.flush([&](LineAddr line, std::uint64_t version) { sink[line] = version; });
    EXPECT_EQ(sink.size(), 2u);
    EXPECT_EQ(sink[1], 1u);
    EXPECT_EQ(sink[3], 3u);
    EXPECT_FALSE(cache.probe(2));
}

TEST(SetAssocCache, HashedIndexSpreadsConflictingLowBits)
{
    // Lines that share low bits collide in a low-bit-indexed cache but
    // spread under hashed indexing.
    SetAssocCache plain(16, 1, ReplacementKind::kLru, false);
    SetAssocCache hashed(16, 1, ReplacementKind::kLru, true);
    int plain_same = 0;
    int hashed_same = 0;
    for (LineAddr l = 0; l < 32; ++l) {
        plain_same += plain.set_index(l * 16) == plain.set_index(0);
        hashed_same += hashed.set_index(l * 16) == hashed.set_index(0);
    }
    EXPECT_EQ(plain_same, 32);
    EXPECT_LT(hashed_same, 8);
}

/** Property: steady-state hit rate tracks capacity/footprint. */
class CacheHitRate : public ::testing::TestWithParam<std::uint32_t>
{
};

TEST_P(CacheHitRate, UniformRandomHitRateTracksCapacityRatio)
{
    const std::uint32_t footprint_lines = GetParam();
    SetAssocCache cache(64, 8, ReplacementKind::kLru, true);  // 512 lines
    Rng rng(footprint_lines);
    std::uint64_t hits = 0;
    constexpr int kWarmup = 20'000;
    constexpr int kMeasure = 60'000;
    for (int i = 0; i < kWarmup + kMeasure; ++i) {
        const LineAddr line = rng.next_below(footprint_lines);
        const auto r = cache.read(line);
        if (!r.hit)
            cache.fill(line, 1, false);
        else if (i >= kWarmup)
            ++hits;
    }
    const double measured = static_cast<double>(hits) / kMeasure;
    const double expected =
        std::min(1.0, 512.0 / static_cast<double>(footprint_lines));
    EXPECT_NEAR(measured, expected, 0.12) << "footprint=" << footprint_lines;
}

INSTANTIATE_TEST_SUITE_P(Footprints, CacheHitRate,
                         ::testing::Values(256u, 1024u, 2048u, 4096u));

namespace {

/**
 * Reference model: SetAssocCache written the plain way, as an array of
 * Line records (one struct per way, validity as a flag, modulo set
 * indexing). The oracle test below holds the struct-of-arrays class to
 * this model's results and contents.
 */
class RefCache
{
  public:
    RefCache(std::uint32_t sets, std::uint32_t ways, ReplacementKind repl, bool hashed)
        : sets_(sets), ways_(ways), hashed_(hashed), lines_(std::size_t{sets} * ways)
    {
        for (std::uint32_t s = 0; s < sets; ++s)
            repl_.emplace_back(ways, repl);
    }

    std::uint32_t
    set_index(LineAddr line) const
    {
        return static_cast<std::uint32_t>((hashed_ ? mix64(line) : line) % sets_);
    }

    bool probe(LineAddr line) const { return find_way(set_index(line), line) >= 0; }

    SetAssocCache::LookupResult
    read(LineAddr line)
    {
        const std::uint32_t set = set_index(line);
        const int way = find_way(set, line);
        if (way < 0) {
            ++misses_;
            return {};
        }
        ++hits_;
        repl_[set].touch(static_cast<std::uint32_t>(way));
        return {true, at(set, way).version};
    }

    SetAssocCache::LookupResult
    write(LineAddr line, std::uint64_t version)
    {
        const std::uint32_t set = set_index(line);
        const int way = find_way(set, line);
        if (way < 0) {
            ++misses_;
            return {};
        }
        ++hits_;
        at(set, way).dirty = true;
        at(set, way).version = version;
        repl_[set].touch(static_cast<std::uint32_t>(way));
        return {true, version};
    }

    std::optional<SetAssocCache::Eviction>
    fill(LineAddr line, std::uint64_t version, bool dirty)
    {
        const std::uint32_t set = set_index(line);
        ++fills_;
        if (int way = find_way(set, line); way >= 0) {
            Line &ln = at(set, way);
            ln.version = std::max(ln.version, version);
            ln.dirty = ln.dirty || dirty;
            repl_[set].touch(static_cast<std::uint32_t>(way));
            return std::nullopt;
        }
        int target = -1;
        for (std::uint32_t w = 0; w < ways_ && target < 0; ++w) {
            if (!at(set, static_cast<int>(w)).valid)
                target = static_cast<int>(w);
        }
        std::optional<SetAssocCache::Eviction> evicted;
        if (target < 0) {
            target = static_cast<int>(repl_[set].victim());
            const Line &victim = at(set, target);
            evicted = SetAssocCache::Eviction{victim.line, victim.dirty, victim.version};
            ++evictions_;
            if (victim.dirty)
                ++writebacks_;
        }
        at(set, target) = Line{line, true, dirty, version};
        repl_[set].insert(static_cast<std::uint32_t>(target));
        return evicted;
    }

    std::optional<SetAssocCache::Eviction>
    invalidate(LineAddr line)
    {
        const std::uint32_t set = set_index(line);
        const int way = find_way(set, line);
        if (way < 0)
            return std::nullopt;
        Line &ln = at(set, way);
        const SetAssocCache::Eviction ev{ln.line, ln.dirty, ln.version};
        ln.valid = false;
        ln.dirty = false;
        return ev;
    }

    template <typename Sink>
    void
    flush(Sink &&sink)
    {
        for (Line &ln : lines_) {
            if (ln.valid && ln.dirty)
                sink(ln.line, ln.version);
            ln.valid = false;
            ln.dirty = false;
        }
    }

    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }
    std::uint64_t fills() const { return fills_; }
    std::uint64_t evictions() const { return evictions_; }
    std::uint64_t writebacks() const { return writebacks_; }

  private:
    struct Line
    {
        LineAddr line = 0;
        bool valid = false;
        bool dirty = false;
        std::uint64_t version = 0;
    };

    Line &at(std::uint32_t set, int way) { return lines_[std::size_t{set} * ways_ + way]; }
    const Line &at(std::uint32_t set, int way) const
    {
        return lines_[std::size_t{set} * ways_ + way];
    }

    int
    find_way(std::uint32_t set, LineAddr line) const
    {
        for (std::uint32_t w = 0; w < ways_; ++w) {
            const Line &ln = at(set, static_cast<int>(w));
            if (ln.valid && ln.line == line)
                return static_cast<int>(w);
        }
        return -1;
    }

    std::uint32_t sets_;
    std::uint32_t ways_;
    bool hashed_;
    std::vector<Line> lines_;
    std::vector<ReplacementState> repl_;
    std::uint64_t hits_ = 0, misses_ = 0, fills_ = 0, evictions_ = 0, writebacks_ = 0;
};

bool
same(const std::optional<SetAssocCache::Eviction> &a,
     const std::optional<SetAssocCache::Eviction> &b)
{
    if (a.has_value() != b.has_value())
        return false;
    return !a || std::tie(a->line, a->dirty, a->version) == std::tie(b->line, b->dirty, b->version);
}

struct Geometry
{
    std::uint32_t sets;
    std::uint32_t ways;
    bool hashed;
    ReplacementKind repl;
};

} // namespace

class SetAssocOracle : public ::testing::TestWithParam<Geometry>
{
};

TEST_P(SetAssocOracle, MatchesArrayOfLinesModel)
{
    const Geometry g = GetParam();
    SetAssocCache cache(g.sets, g.ways, g.repl, g.hashed);
    RefCache ref(g.sets, g.ways, g.repl, g.hashed);
    // Footprint of twice the capacity: a mix of hits, misses and evictions.
    const std::uint64_t footprint = 2ull * g.sets * g.ways;
    const auto same_contents = [&](int op) {
        for (std::uint64_t i = 0; i < footprint; ++i)
            ASSERT_EQ(cache.probe(i * 3 + 1), ref.probe(i * 3 + 1))
                << "op " << op << " line " << i * 3 + 1;
    };
    Rng rng(g.sets * 131 + g.ways);
    std::uint64_t version = 0;
    for (int op = 0; op < 30'000; ++op) {
        const LineAddr line = rng.next_below(footprint) * 3 + 1;
        ASSERT_EQ(cache.set_index(line), ref.set_index(line));
        const std::uint64_t kind = rng.next_below(100);
        if (kind < 40) {
            const auto a = cache.read(line);
            const auto b = ref.read(line);
            ASSERT_EQ(a.hit, b.hit) << "op " << op;
            ASSERT_EQ(a.version, b.version) << "op " << op;
        } else if (kind < 60) {
            ++version;
            const auto a = cache.write(line, version);
            const auto b = ref.write(line, version);
            ASSERT_EQ(a.hit, b.hit) << "op " << op;
            ASSERT_EQ(a.version, b.version) << "op " << op;
        } else if (kind < 88) {
            const bool dirty = rng.next_below(4) == 0;
            const std::uint64_t v = rng.next_below(version + 1);
            ASSERT_TRUE(same(cache.fill(line, v, dirty), ref.fill(line, v, dirty))) << "op " << op;
        } else if (kind < 97) {
            ASSERT_TRUE(same(cache.invalidate(line), ref.invalidate(line))) << "op " << op;
        } else if (kind < 99) {
            ASSERT_EQ(cache.probe(line), ref.probe(line)) << "op " << op;
        } else if (rng.next_below(20) == 0) {
            std::vector<std::pair<LineAddr, std::uint64_t>> got, want;
            cache.flush([&](LineAddr l, std::uint64_t v) { got.emplace_back(l, v); });
            ref.flush([&](LineAddr l, std::uint64_t v) { want.emplace_back(l, v); });
            ASSERT_EQ(got, want) << "op " << op;
        }
        if (op % 1000 == 0) {
            ASSERT_NO_FATAL_FAILURE(same_contents(op));
        }
    }
    EXPECT_EQ(cache.hits(), ref.hits());
    EXPECT_EQ(cache.misses(), ref.misses());
    EXPECT_EQ(cache.fills(), ref.fills());
    EXPECT_EQ(cache.evictions(), ref.evictions());
    EXPECT_EQ(cache.writebacks(), ref.writebacks());
    EXPECT_GT(cache.evictions(), 0u);
    same_contents(30'000);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, SetAssocOracle,
    ::testing::Values(Geometry{64, 8, false, ReplacementKind::kLru},
                      Geometry{64, 16, true, ReplacementKind::kLru},
                      Geometry{48, 8, false, ReplacementKind::kLru},   // non-power-of-two
                      Geometry{40, 16, true, ReplacementKind::kLru},   // non-power-of-two
                      Geometry{1, 4, false, ReplacementKind::kLru},
                      Geometry{24, 4, true, ReplacementKind::kFifo},
                      Geometry{16, 32, false, ReplacementKind::kLru})); // stamp-based LRU
