#include "layer_probes.hpp"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <stdexcept>
#include <vector>

#include "cache/bdi.hpp"
#include "cache/mshr.hpp"
#include "cache/set_assoc_cache.hpp"
#include "gpu/gpu_system.hpp"
#include "morpheus/extended_llc_kernel.hpp"
#include "morpheus/hit_miss_predictor.hpp"
#include "serve/result_cache.hpp"
#include "sim/event_queue.hpp"
#include "sim/rng.hpp"
#include "workloads/block_data.hpp"

namespace perfbench {
namespace {

using namespace morpheus;
using Clock = std::chrono::steady_clock;

/** Each probe is timed this many times; the median is reported. */
constexpr int kRepetitions = 3;

template <typename T>
inline void
do_not_optimize(const T &value)
{
    asm volatile("" : : "g"(value) : "memory");
}

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** ns per call of @p op over @p iters calls, after an untimed warm-up. */
template <typename Op>
double
ns_per_op(std::uint64_t iters, Op &&op)
{
    for (std::uint64_t i = 0; i < iters / 16 + 1; ++i)
        op(i);
    const auto begin = Clock::now();
    for (std::uint64_t i = 0; i < iters; ++i)
        op(i);
    const std::chrono::duration<double, std::nano> ns = Clock::now() - begin;
    return ns.count() / static_cast<double>(iters);
}

/** Median over kRepetitions of @p probe(), which builds fresh state each time. */
template <typename Probe>
double
repeated(Probe &&probe)
{
    std::vector<double> samples;
    for (int r = 0; r < kRepetitions; ++r)
        samples.push_back(probe());
    return median(samples);
}

double
probe_schedule_pop()
{
    EventQueue eq;
    std::uint64_t counter = 0;
    const double ns = ns_per_op(2'000'000, [&](std::uint64_t i) {
        eq.schedule_in(static_cast<Cycle>(i * 7 % 23), [&counter] { ++counter; });
        eq.step();
    });
    do_not_optimize(counter);
    return ns;
}

double
probe_mshr_alloc_release()
{
    // An L1-sized table kept 16 entries deep: every op allocates (or
    // merges onto) one line and, once the window is full, releases the
    // oldest outstanding line and wakes its waiters.
    constexpr std::size_t kWindow = 16;
    MshrTable mshrs(32);
    Rng rng(21);
    std::vector<LineAddr> ring(kWindow, 0);
    std::uint64_t woken = 0;
    const double ns = ns_per_op(1'000'000, [&](std::uint64_t i) {
        const std::size_t slot = i % kWindow;
        if (i >= kWindow) {
            for (auto &w : mshrs.release(ring[slot]))
                w(static_cast<Cycle>(i), 0);
        }
        const LineAddr line = rng.next_below(64);
        if (mshrs.has(line) || !mshrs.full())
            mshrs.allocate_or_merge(line, [&woken](Cycle, std::uint64_t) { ++woken; });
        ring[slot] = line;
    });
    do_not_optimize(woken);
    return ns;
}

double
probe_set_access()
{
    SetAssocCache cache(512, 16, ReplacementKind::kLru, true);
    Rng rng(11);
    return ns_per_op(1'000'000, [&](std::uint64_t) {
        const LineAddr line = rng.next_below(16384);
        if (!cache.read(line).hit)
            cache.fill(line, 1, false);
    });
}

double
probe_bdi_encode()
{
    const BlockDataProfile profile{0.5, 0.4, 43};
    std::vector<Block> blocks;
    for (std::uint64_t i = 0; i < 256; ++i)
        blocks.push_back(synthesize_block(profile, i));
    std::vector<std::uint8_t> encoded;
    return ns_per_op(1'000'000, [&](std::uint64_t i) {
        do_not_optimize(bdi_encode(blocks[i & 255], encoded));
    });
}

double
probe_predictor_access()
{
    DualBloomPredictor pred(32);
    Rng rng(7);
    return ns_per_op(1'000'000, [&](std::uint64_t) {
        do_not_optimize(pred.access_and_predict(rng.next_below(4096)));
    });
}

double
probe_ext_set_lookup()
{
    ExtSet set(48 * kLineBytes, true, 10'000);
    std::vector<ExtSet::Evicted> evicted;
    Rng rng(13);
    Cycle now = 0;
    return ns_per_op(500'000, [&](std::uint64_t) {
        const LineAddr line = rng.next_below(256);
        std::uint64_t version = 0;
        CompLevel level = CompLevel::kLow;
        if (!set.touch_read(++now, line, version, level)) {
            evicted.clear();
            set.insert(now, line, 1, false, CompLevel::kLow, evicted);
        }
    });
}

/** µs per ResultCache::store and per ResultCache::lookup, each over
 *  @p entries fresh keys in an emptied directory. */
std::pair<double, double>
probe_result_cache(const std::string &dir, std::uint64_t entries)
{
    std::filesystem::remove_all(dir);
    ResultCache cache(dir);
    if (!cache.ok())
        throw std::runtime_error("result-cache probe: " + cache.error());
    RunResult r;
    r.workload = "probe";
    r.cycles = 49'689;
    r.instructions = 989'821;
    r.ipc = 19.92;

    auto begin = Clock::now();
    for (std::uint64_t k = 0; k < entries; ++k) {
        if (!cache.store(mix64(k), r))
            throw std::runtime_error("result-cache probe: store failed");
    }
    const std::chrono::duration<double, std::micro> store_us = Clock::now() - begin;

    RunResult out;
    begin = Clock::now();
    for (std::uint64_t k = 0; k < entries; ++k) {
        if (!cache.lookup(mix64(k), out))
            throw std::runtime_error("result-cache probe: lookup missed a stored key");
    }
    const std::chrono::duration<double, std::micro> lookup_us = Clock::now() - begin;
    std::filesystem::remove_all(dir);
    const double n = static_cast<double>(entries);
    return {lookup_us.count() / n, store_us.count() / n};
}

} // namespace

std::vector<ProbeResult>
run_layer_probes(const std::string &scratch_dir)
{
    std::vector<ProbeResult> out;
    out.push_back({"sim.schedule_pop_ns", "ns", repeated(probe_schedule_pop)});
    out.push_back({"cache.mshr_alloc_release_ns", "ns", repeated(probe_mshr_alloc_release)});
    out.push_back({"cache.set_access_ns", "ns", repeated(probe_set_access)});
    out.push_back({"cache.bdi_encode_ns", "ns", repeated(probe_bdi_encode)});
    out.push_back({"morpheus.predictor_access_ns", "ns", repeated(probe_predictor_access)});
    out.push_back({"morpheus.ext_set_lookup_ns", "ns", repeated(probe_ext_set_lookup)});

    std::vector<double> lookup_us, store_us;
    for (int r = 0; r < kRepetitions; ++r) {
        const auto [lookup, store] = probe_result_cache(scratch_dir, 500);
        lookup_us.push_back(lookup);
        store_us.push_back(store);
    }
    out.push_back({"serve.cache_lookup_us", "us", median(lookup_us)});
    out.push_back({"serve.cache_store_us", "us", median(store_us)});
    return out;
}

} // namespace perfbench
