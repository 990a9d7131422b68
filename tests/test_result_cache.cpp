/**
 * @file
 * The content-addressed result cache (serve/result_cache.hpp,
 * docs/CACHE_FORMAT.md): key stability and sensitivity, bit-exact
 * round-trips, sweep integration across worker counts, and crash
 * safety — a writer killed mid-sweep leaves only valid-or-absent
 * entries, and a restart refills the gap with identical results.
 */
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "harness/report.hpp"
#include "harness/sweep_engine.hpp"
#include "serve/result_cache.hpp"

using namespace morpheus;

namespace {

WorkloadParams
tiny_app(const char *name)
{
    WorkloadParams p;
    p.name = name;
    p.pattern = PatternKind::kPrivateLoop;
    p.alu_per_mem = 4;
    p.shared_ws_bytes = 1 << 20;
    p.per_warp_ws_bytes = 4 * 1024;
    p.warps_per_sm = 8;
    p.total_mem_instrs = 8'000;
    return p;
}

void
queue_jobs(SweepEngine &engine)
{
    for (std::uint32_t i = 0; i < 4; ++i) {
        SystemSetup setup;
        setup.compute_sms = 4 + 2 * i;
        std::string label = "j";
        label += std::to_string(i);
        engine.add(setup, tiny_app(label.c_str()), label);
    }
}

/** A fresh, empty cache directory under the test temp root. */
class TempCacheDir
{
  public:
    explicit TempCacheDir(const char *tag)
        : path_(std::string(::testing::TempDir()) + "morpheus_cache_" + tag)
    {
        std::filesystem::remove_all(path_);
    }
    ~TempCacheDir() { std::filesystem::remove_all(path_); }
    const std::string &path() const { return path_; }

  private:
    std::string path_;
};

/** The fixed configuration whose content key is pinned below. */
void
golden_config(SystemSetup &setup, WorkloadParams &params)
{
    setup = SystemSetup{};
    setup.compute_sms = 6;
    params = tiny_app("golden");
}

FaultPlan
plan(const std::string &spec)
{
    FaultPlan p;
    std::string error;
    EXPECT_TRUE(parse_fault_plan(spec, p, error)) << error;
    return p;
}

} // namespace

// ---------------------------------------------------------------------------
// Content keys

TEST(ResultCacheKey, GoldenKeyIsPinned)
{
    SystemSetup setup;
    WorkloadParams params;
    golden_config(setup, params);
    const std::uint64_t key = result_cache_key(setup, params);
    // The content key of this fixed configuration is part of the on-disk
    // format: it must be identical on every platform and across commits.
    // If this fails you changed the canonical config encoding
    // (harness/config_codec.hpp) or a default parameter value — that is
    // a FORMAT CHANGE; bump kResultCacheVersion and
    // Checkpoint::kFormatVersion, then repin (docs/CACHE_FORMAT.md).
    char hex[17];
    std::snprintf(hex, sizeof hex, "%016llx", static_cast<unsigned long long>(key));
    EXPECT_EQ(std::string(hex), "b6f012deaf79a65f");
}

TEST(ResultCacheKey, SensitiveToEveryConfigAxis)
{
    SystemSetup setup;
    WorkloadParams params;
    golden_config(setup, params);
    const std::uint64_t base = result_cache_key(setup, params);

    {
        SystemSetup s = setup;
        s.compute_sms += 1;
        EXPECT_NE(result_cache_key(s, params), base);
    }
    {
        SystemSetup s = setup;
        s.cfg.llc_bytes += 4096;
        EXPECT_NE(result_cache_key(s, params), base);
    }
    {
        SystemSetup s = setup;
        s.morpheus.enabled = !s.morpheus.enabled;
        EXPECT_NE(result_cache_key(s, params), base);
    }
    {
        WorkloadParams p = params;
        p.name = "goldem";
        EXPECT_NE(result_cache_key(setup, p), base);
    }
    {
        WorkloadParams p = params;
        p.total_mem_instrs += 1;
        EXPECT_NE(result_cache_key(setup, p), base);
    }
    {
        WorkloadParams p = params;
        p.zipf_alpha += 0.001;
        EXPECT_NE(result_cache_key(setup, p), base);
    }
}

// ---------------------------------------------------------------------------
// Store / lookup round-trips

TEST(ResultCache, StoreLookupRoundTripIsBitExact)
{
    TempCacheDir dir("roundtrip");
    ResultCache cache(dir.path());
    ASSERT_TRUE(cache.ok()) << cache.error();

    SystemSetup setup;
    WorkloadParams params;
    golden_config(setup, params);
    const RunResult fresh = run_setup(setup, params);
    const std::uint64_t key = result_cache_key(setup, params);

    RunResult out;
    EXPECT_FALSE(cache.lookup(key, out)); // absent
    ASSERT_TRUE(cache.store(key, fresh));
    ASSERT_TRUE(cache.lookup(key, out));
    EXPECT_TRUE(run_results_identical(out, fresh));
    EXPECT_EQ(cache.stats().evictions.load(), 0u);
}

TEST(ResultCache, GetOrRunMissesThenHits)
{
    TempCacheDir dir("getorrun");
    ResultCache cache(dir.path());
    ASSERT_TRUE(cache.ok()) << cache.error();

    SystemSetup setup;
    WorkloadParams params;
    golden_config(setup, params);

    int simulations = 0;
    const auto simulate = [&] {
        ++simulations;
        return run_setup(setup, params);
    };
    bool hit = true;
    const RunResult first = cache.get_or_run(setup, params, simulate, &hit);
    EXPECT_FALSE(hit);
    const RunResult second = cache.get_or_run(setup, params, simulate, &hit);
    EXPECT_TRUE(hit);
    EXPECT_EQ(simulations, 1);
    EXPECT_TRUE(run_results_identical(first, second));
    EXPECT_EQ(cache.stats().hits.load(), 1u);
    EXPECT_EQ(cache.stats().misses.load(), 1u);
    EXPECT_EQ(cache.stats().stores.load(), 1u);
}

TEST(ResultCache, FailedRunStoresNothing)
{
    TempCacheDir dir("failed");
    ResultCache cache(dir.path());
    ASSERT_TRUE(cache.ok()) << cache.error();

    SystemSetup setup;
    WorkloadParams params;
    golden_config(setup, params);
    EXPECT_THROW(cache.get_or_run(
                     setup, params, []() -> RunResult { throw InjectedFault("boom"); }),
                 InjectedFault);
    EXPECT_EQ(cache.stats().stores.load(), 0u);
    RunResult out;
    EXPECT_FALSE(cache.lookup(result_cache_key(setup, params), out));

    // The single-flight slot was released: a later request simulates.
    bool hit = true;
    const RunResult r = cache.get_or_run(
        setup, params, [&] { return run_setup(setup, params); }, &hit);
    EXPECT_FALSE(hit);
    EXPECT_GT(r.cycles, 0u);
}

TEST(ResultCache, UnopenableDirectoryDegradesGracefully)
{
    // A file where the directory should be: creation fails, ok() is
    // false, and get_or_run still produces correct (uncached) results.
    const std::string path = std::string(::testing::TempDir()) + "morpheus_cache_blocked";
    std::remove(path.c_str());
    { std::ofstream f(path); f << "not a directory"; }
    ResultCache cache(path);
    EXPECT_FALSE(cache.ok());
    EXPECT_FALSE(cache.error().empty());

    SystemSetup setup;
    WorkloadParams params;
    golden_config(setup, params);
    bool hit = true;
    const RunResult r =
        cache.get_or_run(setup, params, [&] { return run_setup(setup, params); }, &hit);
    EXPECT_FALSE(hit);
    EXPECT_GT(r.cycles, 0u);
    std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// SweepEngine integration

TEST(ResultCacheSweep, SecondSweepIsAllHitsAndIdentical)
{
    TempCacheDir dir("sweep");
    ResultCache cache(dir.path());
    ASSERT_TRUE(cache.ok()) << cache.error();

    SweepEngine reference(2);
    queue_jobs(reference);
    const auto expect = reference.run_all();

    auto cached_sweep = [&](unsigned jobs) {
        SweepEngine engine(jobs);
        SweepConfig cfg;
        cfg.store = &cache;
        engine.set_config(cfg);
        queue_jobs(engine);
        return engine.run_all();
    };

    const auto first = cached_sweep(2);
    EXPECT_EQ(cache.stats().misses.load(), 4u);
    EXPECT_EQ(cache.stats().hits.load(), 0u);

    const auto second = cached_sweep(4);
    EXPECT_EQ(cache.stats().misses.load(), 4u); // nothing re-simulated
    EXPECT_EQ(cache.stats().hits.load(), 4u);

    ASSERT_EQ(first.size(), expect.size());
    ASSERT_EQ(second.size(), expect.size());
    for (std::size_t i = 0; i < expect.size(); ++i) {
        EXPECT_TRUE(run_results_identical(first[i].value, expect[i].value)) << "job " << i;
        EXPECT_TRUE(run_results_identical(second[i].value, expect[i].value)) << "job " << i;
    }
}

TEST(ResultCacheSweep, MixedHitMissReportIdenticalAcrossJobCounts)
{
    TempCacheDir dir("mixed");
    ResultCache cache(dir.path());
    ASSERT_TRUE(cache.ok()) << cache.error();

    // Pre-fill half the grid, then compare a cached mixed-hit/miss sweep
    // against an uncached serial one at several worker counts.
    {
        SystemSetup setup;
        setup.compute_sms = 4;
        const WorkloadParams p = tiny_app("j0");
        cache.store(result_cache_key(setup, p), run_setup(setup, p));
        setup.compute_sms = 8;
        const WorkloadParams p2 = tiny_app("j2");
        cache.store(result_cache_key(setup, p2), run_setup(setup, p2));
    }

    RunReport uncached("drill");
    {
        SweepEngine engine(1);
        engine.set_report(&uncached);
        queue_jobs(engine);
        engine.run_all();
    }
    for (unsigned jobs : {1u, 2u, 4u}) {
        RunReport report("drill");
        SweepEngine engine(jobs);
        engine.set_report(&report);
        SweepConfig cfg;
        cfg.store = &cache;
        engine.set_config(cfg);
        queue_jobs(engine);
        engine.run_all();
        EXPECT_TRUE(reports_identical(uncached, report)) << "jobs=" << jobs;
    }
}

// ---------------------------------------------------------------------------
// Crash safety

TEST(ResultCacheCrashDeathTest, KilledSweepLeavesOnlyValidEntries)
{
    TempCacheDir dir("crash");

    // Reference results from a clean, uncached sweep.
    SweepEngine reference(2);
    queue_jobs(reference);
    const auto expect = reference.run_all();

    // Child process: serial cached sweep that aborts at job 2 — after
    // filling entries for jobs 0 and 1, before 2 and 3 exist. The abort
    // fires inside the simulate path (the cache's single-flight slot is
    // held), which is exactly the "writer dies mid-fill" scenario.
    const std::string cache_dir = dir.path();
    EXPECT_DEATH(
        {
            ResultCache cache(cache_dir);
            SweepEngine engine(1);
            SweepConfig cfg;
            cfg.store = &cache;
            cfg.fault = plan("abort@run=2,times=99");
            engine.set_config(cfg);
            queue_jobs(engine);
            engine.run_all();
        },
        "");

    // Add the torn debris a real crash can leave: an orphaned temp file
    // and a truncated entry.
    {
        std::ofstream tmp(cache_dir + "/deadbeefdeadbeef.mrce.tmp.999.0");
        tmp << "partial write";
        SystemSetup setup;
        setup.compute_sms = 8;
        const std::string torn = cache_dir + "/" +
                                 [&] {
                                     char hex[17];
                                     std::snprintf(
                                         hex, sizeof hex, "%016llx",
                                         static_cast<unsigned long long>(result_cache_key(
                                             setup, tiny_app("j2"))));
                                     return std::string(hex);
                                 }() +
                                 ".mrce";
        std::ofstream f(torn, std::ios::binary);
        f << "MRCE torn header";
    }

    // Restart: temp orphans are swept, the torn entry is evicted on
    // lookup, survivors hit, and the refilled sweep matches the clean
    // reference bit for bit.
    ResultCache cache(cache_dir);
    ASSERT_TRUE(cache.ok()) << cache.error();
    SweepEngine engine(2);
    SweepConfig cfg;
    cfg.store = &cache;
    engine.set_config(cfg);
    queue_jobs(engine);
    const auto got = engine.run_all();

    EXPECT_EQ(cache.stats().hits.load(), 2u);      // jobs 0 and 1 survived
    EXPECT_EQ(cache.stats().misses.load(), 2u);    // 2 (torn) and 3 (absent)
    EXPECT_GE(cache.stats().evictions.load(), 1u); // the torn entry
    ASSERT_EQ(got.size(), expect.size());
    for (std::size_t i = 0; i < got.size(); ++i)
        EXPECT_TRUE(run_results_identical(got[i].value, expect[i].value)) << "job " << i;

    // No temp debris left behind, and the refilled entry now round-trips.
    for (const auto &e : std::filesystem::directory_iterator(cache_dir))
        EXPECT_EQ(e.path().filename().string().find(".tmp."), std::string::npos)
            << e.path();
    RunResult out;
    SystemSetup setup;
    setup.compute_sms = 8;
    ASSERT_TRUE(cache.lookup(result_cache_key(setup, tiny_app("j2")), out));
    EXPECT_TRUE(run_results_identical(out, expect[2].value));
}
