#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <deque>
#include <map>
#include <new>
#include <vector>

#include "cache/mshr.hpp"
#include "sim/rng.hpp"
#include "sim/state_io.hpp"

using namespace morpheus;

// Counts every global operator new in this test binary, so a test can
// assert that a stretch of MshrTable work allocates nothing. The deletes
// stay out of line so the compiler pairs each free() with this malloc().
namespace {
std::atomic<std::uint64_t> g_news{0};
} // namespace

void *
operator new(std::size_t n)
{
    g_news.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t n)
{
    return ::operator new(n);
}

[[gnu::noinline]] void
operator delete(void *p) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete[](void *p) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

TEST(Mshr, FirstMissIsPrimary)
{
    MshrTable mshrs(4);
    bool primary = mshrs.allocate_or_merge(10, [](Cycle, std::uint64_t) {});
    EXPECT_TRUE(primary);
    EXPECT_TRUE(mshrs.has(10));
    EXPECT_EQ(mshrs.outstanding(), 1u);
}

TEST(Mshr, SecondMissMerges)
{
    MshrTable mshrs(4);
    mshrs.allocate_or_merge(10, [](Cycle, std::uint64_t) {});
    bool primary = mshrs.allocate_or_merge(10, [](Cycle, std::uint64_t) {});
    EXPECT_FALSE(primary);
    EXPECT_EQ(mshrs.outstanding(), 1u);
    EXPECT_EQ(mshrs.merged(), 1u);
}

TEST(Mshr, ReleaseReturnsAllWaitersInOrder)
{
    MshrTable mshrs;
    std::vector<int> order;
    mshrs.allocate_or_merge(7, [&](Cycle, std::uint64_t) { order.push_back(1); });
    mshrs.allocate_or_merge(7, [&](Cycle, std::uint64_t) { order.push_back(2); });
    mshrs.allocate_or_merge(7, [&](Cycle, std::uint64_t) { order.push_back(3); });
    auto waiters = mshrs.release(7);
    EXPECT_EQ(waiters.size(), 3u);
    for (auto &w : waiters)
        w(0, 0);
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_FALSE(mshrs.has(7));
}

TEST(Mshr, FullBlocksNewLinesButNotMerges)
{
    MshrTable mshrs(2);
    mshrs.allocate_or_merge(1, [](Cycle, std::uint64_t) {});
    mshrs.allocate_or_merge(2, [](Cycle, std::uint64_t) {});
    EXPECT_TRUE(mshrs.full());
    // Existing lines can still merge while full.
    EXPECT_TRUE(mshrs.has(1));
    EXPECT_FALSE(mshrs.allocate_or_merge(1, [](Cycle, std::uint64_t) {}));
    EXPECT_TRUE(mshrs.full());
    EXPECT_EQ(mshrs.merged(), 1u);
    EXPECT_EQ(mshrs.release(1).size(), 2u);
    EXPECT_FALSE(mshrs.full());
}

TEST(Mshr, ReleaseOfUnknownLineIsEmpty)
{
    MshrTable mshrs;
    EXPECT_TRUE(mshrs.release(99).empty());
}

TEST(Mshr, PeakOccupancyTracked)
{
    MshrTable mshrs;
    mshrs.allocate_or_merge(1, [](Cycle, std::uint64_t) {});
    mshrs.allocate_or_merge(2, [](Cycle, std::uint64_t) {});
    mshrs.release(1);
    mshrs.release(2);
    EXPECT_EQ(mshrs.peak_occupancy(), 2u);
    EXPECT_EQ(mshrs.outstanding(), 0u);
}

TEST(Mshr, WakeOrderIsFifoPerLineAcrossInterleavedMisses)
{
    MshrTable mshrs;
    std::vector<int> order;
    for (int i = 0; i < 12; ++i)
        mshrs.allocate_or_merge(static_cast<LineAddr>(i % 3),
                                [&order, i](Cycle, std::uint64_t) { order.push_back(i); });
    for (LineAddr line : {LineAddr{1}, LineAddr{0}, LineAddr{2}}) {
        for (auto &w : mshrs.release(line))
            w(0, 0);
    }
    EXPECT_EQ(order, (std::vector<int>{1, 4, 7, 10, 0, 3, 6, 9, 2, 5, 8, 11}));
    EXPECT_EQ(mshrs.outstanding(), 0u);
}

TEST(Mshr, WaiterMayAllocateOnTheSameTableDuringRelease)
{
    // The first waiter opens 200 new entries with merges (growing both
    // the entry table and the waiter slab) while release() is still
    // walking line 5's waiters; one of them re-misses line 5 itself.
    MshrTable mshrs;
    std::vector<int> woken;
    for (int i = 0; i < 4; ++i) {
        mshrs.allocate_or_merge(5, [&mshrs, &woken, i](Cycle, std::uint64_t v) {
            woken.push_back(i);
            if (i != 0)
                return;
            for (LineAddr line = 100; line < 300; ++line) {
                EXPECT_TRUE(mshrs.allocate_or_merge(line, [](Cycle, std::uint64_t) {}));
                EXPECT_FALSE(mshrs.allocate_or_merge(line, [](Cycle, std::uint64_t) {}));
            }
            EXPECT_TRUE(mshrs.allocate_or_merge(5, [&woken, v](Cycle, std::uint64_t) {
                woken.push_back(static_cast<int>(v));
            }));
        });
    }
    for (auto &w : mshrs.release(5))
        w(0, 77);
    EXPECT_EQ(woken, (std::vector<int>{0, 1, 2, 3}));
    EXPECT_EQ(mshrs.outstanding(), 201u);
    for (auto &w : mshrs.release(5))
        w(0, 0);
    EXPECT_EQ(woken.back(), 77);
    for (LineAddr line = 100; line < 300; ++line)
        EXPECT_EQ(mshrs.release(line).size(), 2u);
    EXPECT_EQ(mshrs.outstanding(), 0u);
}

/** Lines whose hashes share their low 10 bits, so they collide on the
 *  same home slot at every table capacity up to 1024. */
std::vector<LineAddr>
colliding_lines(std::size_t n)
{
    std::vector<LineAddr> lines;
    for (LineAddr line = 1; lines.size() < n; ++line) {
        if ((mix64(line) & 1023) == 0)
            lines.push_back(line);
    }
    return lines;
}

TEST(Mshr, RandomizedAgainstMapModel)
{
    // Half the pool collides on one home slot (long probe runs, deletes
    // from their middle); the rest spreads. Up to ~300 lines outstanding
    // forces several doublings.
    std::vector<LineAddr> pool = colliding_lines(48);
    Rng rng(2024);
    while (pool.size() < 400)
        pool.push_back(rng.next_below(1u << 20) + (1u << 24));

    MshrTable mshrs;
    std::map<LineAddr, std::deque<int>> model;
    std::uint64_t allocated = 0, merged = 0;
    std::size_t peak = 0;
    std::vector<int> woken;
    int next_id = 0;
    for (int op = 0; op < 20'000; ++op) {
        const LineAddr line = pool[rng.next_below(pool.size())];
        const std::uint64_t kind = rng.next_below(10);
        if (kind < 6 && model.size() < 300) {
            const int id = next_id++;
            const bool primary = mshrs.allocate_or_merge(
                line, [&woken, id](Cycle, std::uint64_t) { woken.push_back(id); });
            const bool model_primary = model.find(line) == model.end();
            model[line].push_back(id);
            ASSERT_EQ(primary, model_primary) << "op " << op;
            if (model_primary)
                ++allocated;
            else
                ++merged;
            peak = std::max(peak, model.size());
        } else if (kind < 9) {
            woken.clear();
            auto waiters = mshrs.release(line);
            const auto it = model.find(line);
            const std::size_t expected = it == model.end() ? 0 : it->second.size();
            ASSERT_EQ(waiters.size(), expected) << "op " << op;
            for (auto &w : waiters)
                w(0, 0);
            if (it != model.end()) {
                ASSERT_EQ(woken, std::vector<int>(it->second.begin(), it->second.end()));
                model.erase(it);
            }
        } else {
            ASSERT_EQ(mshrs.has(line), model.count(line) != 0) << "op " << op;
        }
        ASSERT_EQ(mshrs.outstanding(), model.size());
    }
    for (LineAddr line : pool)
        ASSERT_EQ(mshrs.has(line), model.count(line) != 0);
    EXPECT_EQ(mshrs.allocated(), allocated);
    EXPECT_EQ(mshrs.merged(), merged);
    EXPECT_EQ(mshrs.peak_occupancy(), peak);

    // The checkpoint digest stream: count, then (line, waiters) in line
    // order, then the counters.
    StateWriter got;
    mshrs.state(got);
    StateWriter want;
    want.shadow(model.size());
    for (const auto &[line, waiters] : model) {
        want.shadow(line);
        want.shadow(waiters.size());
    }
    want.field(allocated);
    want.field(merged);
    want.field(static_cast<std::uint64_t>(peak));
    EXPECT_EQ(got.bytes(), want.bytes());
}

TEST(Mshr, SteadyStateAllocatesNothing)
{
    // L1-shaped traffic: 16 lines in flight with merges, a 16-byte
    // capture per waiter (stored inline by std::function).
    MshrTable mshrs(32);
    Rng rng(5);
    std::vector<LineAddr> ring(16, 0);
    std::uint64_t woken = 0;
    const std::uint64_t tag = 3;
    auto cycle = [&](std::uint64_t i) {
        const std::size_t slot = i % ring.size();
        if (i >= ring.size()) {
            for (auto &w : mshrs.release(ring[slot]))
                w(static_cast<Cycle>(i), 1);
        }
        const LineAddr line = rng.next_below(64);
        if (mshrs.has(line) || !mshrs.full())
            mshrs.allocate_or_merge(line, [&woken, tag](Cycle, std::uint64_t v) {
                woken += v + tag;
            });
        ring[slot] = line;
    };
    for (std::uint64_t i = 0; i < 1000; ++i)
        cycle(i);
    const std::uint64_t before = g_news.load();
    for (std::uint64_t i = 1000; i < 101'000; ++i)
        cycle(i);
    EXPECT_EQ(g_news.load() - before, 0u);
    EXPECT_GT(woken, 0u);
    EXPECT_GT(mshrs.merged(), 0u);
}
