#include <gtest/gtest.h>

#include <vector>

#include "gpu/sm.hpp"
#include "harness/system_config.hpp"
#include "test_util.hpp"
#include "workloads/app_catalog.hpp"
#include "workloads/synthetic_workload.hpp"

using namespace morpheus;
using namespace morpheus::test;

namespace {

WorkloadParams
tiny_params(std::uint32_t alu, std::uint32_t warps, std::uint64_t steps)
{
    WorkloadParams p;
    p.name = "sm-test";
    p.alu_per_mem = alu;
    p.lines_per_mem = 1;
    p.shared_ws_bytes = 64 * 1024;
    p.warps_per_sm = warps;
    p.total_mem_instrs = steps;
    return p;
}

} // namespace

TEST(Sm, RunsWorkloadToCompletion)
{
    TestFabric fabric;
    FakeRouter router(fabric, 100);
    SyntheticWorkload wl(tiny_params(4, 4, 200));
    wl.configure(1);
    Sm sm(0, fabric.ctx(), &router, &wl);
    sm.start();
    fabric.eq.run();
    EXPECT_TRUE(sm.done());
    EXPECT_GT(sm.instructions(), 200u);  // ALU + memory instructions
    EXPECT_EQ(sm.mem_instructions(), 200u);
}

TEST(Sm, IssueWidthBoundsIpc)
{
    TestFabric fabric;
    fabric.cfg.issue_width = 4;
    FakeRouter router(fabric, 10);
    // Pure-ALU heavy: IPC should approach (but never exceed) issue width.
    SyntheticWorkload wl(tiny_params(64, 8, 400));
    wl.configure(1);
    Sm sm(0, fabric.ctx(), &router, &wl);
    sm.start();
    fabric.eq.run();
    const double ipc =
        static_cast<double>(sm.instructions()) / static_cast<double>(fabric.eq.now());
    EXPECT_LE(ipc, 4.0 + 1e-9);
    EXPECT_GT(ipc, 3.0);
}

TEST(Sm, MemoryLatencyStallsLowOccupancy)
{
    // One warp, no ALU work: execution time ~ steps x memory latency when
    // credits are exhausted.
    TestFabric fabric;
    fabric.cfg.warp_mem_credits = 1;
    FakeRouter router(fabric, 500);
    WorkloadParams p = tiny_params(0, 1, 50);
    p.shared_ws_bytes = 32 << 20;  // far beyond L1: every access misses
    SyntheticWorkload wl(p);
    wl.configure(1);
    Sm sm(0, fabric.ctx(), &router, &wl);
    sm.start();
    fabric.eq.run();
    EXPECT_GE(fabric.eq.now(), 50u * 500u * 9 / 10);
}

TEST(Sm, MemCreditsOverlapLatency)
{
    // Same workload with 4 credits should be ~4x faster.
    auto run_with_credits = [](std::uint32_t credits) {
        TestFabric fabric;
        fabric.cfg.warp_mem_credits = credits;
        FakeRouter router(fabric, 500);
        SyntheticWorkload wl(tiny_params(0, 1, 64));
        wl.configure(1);
        Sm sm(0, fabric.ctx(), &router, &wl);
        sm.start();
        fabric.eq.run();
        return fabric.eq.now();
    };
    const Cycle t1 = run_with_credits(1);
    const Cycle t4 = run_with_credits(4);
    EXPECT_LT(static_cast<double>(t4), static_cast<double>(t1) * 0.4);
}

TEST(Sm, MoreWarpsHideLatency)
{
    auto run_with_warps = [](std::uint32_t warps) {
        TestFabric fabric;
        FakeRouter router(fabric, 400);
        SyntheticWorkload wl(tiny_params(2, warps, 256));
        wl.configure(1);
        Sm sm(0, fabric.ctx(), &router, &wl);
        sm.start();
        fabric.eq.run();
        return fabric.eq.now();
    };
    EXPECT_LT(run_with_warps(16), run_with_warps(2));
}

TEST(Sm, NonBlockingWritesDoNotStall)
{
    TestFabric fabric;
    fabric.cfg.blocking_writes = false;
    FakeRouter router(fabric, 800);
    WorkloadParams p = tiny_params(0, 1, 64);
    p.write_frac = 1.0;  // all stores
    SyntheticWorkload wl(p);
    wl.configure(1);
    Sm sm(0, fabric.ctx(), &router, &wl);
    sm.start();
    fabric.eq.run();
    // Fire-and-forget stores: far faster than 64 x 800 cycles.
    EXPECT_LT(fabric.eq.now(), 64u * 800u / 4);
}

namespace {

/** Two warps with exactly one single-line read step each. */
class TwoWarpWorkload : public Workload
{
  public:
    const WorkloadInfo &info() const override { return info_; }
    void configure(std::uint32_t) override {}
    std::uint32_t warps_on(std::uint32_t) const override { return 2; }

    bool
    next_step(std::uint32_t, std::uint32_t warp, WarpStep &out) override
    {
        if (done_[warp])
            return false;
        done_[warp] = true;
        out = WarpStep{};
        out.num_lines = 1;
        out.lines[0] = 0x1000 + warp; // distinct lines, distinct sets
        out.type = AccessType::kRead;
        return true;
    }

    Block synthesize_block(LineAddr) const override { return Block{}; }

  private:
    WorkloadInfo info_{"two-warp", true};
    bool done_[2] = {false, false};
};

} // namespace

TEST(Sm, NoDuplicateIssueEventForWarpsLaunchedAtCycleZero)
{
    // Regression: schedule_issue() used `issue_event_at_ != 0` as its
    // "nothing armed" sentinel, but cycle 0 is a valid schedule time — an
    // event armed AT cycle 0 was indistinguishable from none, so a second
    // completion in the same cycle armed a duplicate issue event.
    //
    // Find an SM index whose warps 0 and 1 both get a zero launch stagger
    // (mix64(index * 131 + w) % 512 == 0): with a zero-latency L1 and
    // router, both warps then issue AND complete their memory step at
    // cycle 0.
    std::uint32_t index = 0;
    bool found = false;
    for (std::uint64_t i = 0; i < 2'000'000; ++i) {
        if (mix64(i * 131) % 512 == 0 && mix64(i * 131 + 1) % 512 == 0) {
            index = static_cast<std::uint32_t>(i);
            found = true;
            break;
        }
    }
    ASSERT_TRUE(found) << "no SM index with two zero-stagger warps in range";

    TestFabric fabric;
    fabric.cfg.l1_latency = 0;
    fabric.cfg.warp_mem_credits = 1;
    FakeRouter router(fabric, 0);
    TwoWarpWorkload wl;
    Sm sm(index, fabric.ctx(), &router, &wl);
    sm.start();
    fabric.eq.run();

    EXPECT_TRUE(sm.done());
    EXPECT_EQ(sm.mem_instructions(), 2u);
    // Exactly two issue events: the one armed by start() (which issues
    // both warps), and ONE armed by the two same-cycle completions — the
    // second completion must be suppressed by the pending-event guard.
    EXPECT_EQ(sm.issue_events(), 2u);
}

namespace {

/** Index of the first SM whose warps 0 and 1 both launch with zero stagger. */
std::uint32_t
zero_stagger_sm()
{
    for (std::uint64_t i = 0;; ++i)
        if (mix64(i * 131) % 512 == 0 && mix64(i * 131 + 1) % 512 == 0)
            return static_cast<std::uint32_t>(i);
}

/**
 * Warp 0 runs one single-line read step; warp 1 runs `alu_steps` pure-ALU
 * steps of `alu_instrs` instructions each. Logs the cycle of every
 * next_step() call per warp.
 */
class SupersedeWorkload : public Workload
{
  public:
    SupersedeWorkload(const EventQueue &eq, std::uint32_t alu_steps, std::uint32_t alu_instrs)
        : eq_(eq), alu_steps_(alu_steps), alu_instrs_(alu_instrs)
    {
    }

    const WorkloadInfo &info() const override { return info_; }
    void configure(std::uint32_t) override {}
    std::uint32_t warps_on(std::uint32_t) const override { return 2; }

    bool
    next_step(std::uint32_t, std::uint32_t warp, WarpStep &out) override
    {
        calls[warp].push_back(eq_.now());
        const std::uint32_t n = static_cast<std::uint32_t>(calls[warp].size());
        out = WarpStep{};
        if (warp == 0) {
            out.num_lines = 1;
            out.lines[0] = 0x2000;
            out.type = AccessType::kRead;
            return n == 1;
        }
        out.alu_instrs = alu_instrs_;
        return n <= alu_steps_;
    }

    Block synthesize_block(LineAddr) const override { return Block{}; }

    std::vector<Cycle> calls[2];

  private:
    const EventQueue &eq_;
    std::uint32_t alu_steps_;
    std::uint32_t alu_instrs_;
    WorkloadInfo info_{"supersede", true};
};

} // namespace

TEST(Sm, SupersededIssueEventNeitherIssuesNorRearms)
{
    // Regression: issue() cleared `issue_pending_` for every issue event
    // that fired, including one that complete_mem had superseded by
    // arming an earlier event. The stale event then armed a second issue
    // chain, every chain re-armed forever, and each later early re-arm
    // added another.
    //
    // Script (issue width 1, zero launch stagger, one memory credit):
    //   t=0     event 1 (start): warp 0 issues a read and blocks on its
    //           credit; warp 1 issues 1000 ALU instructions, ready again
    //           at 1001, which arms event 2 at 1001.
    //   t=R     warp 0's read completes (R < 1001) and arms event 3 at R,
    //           superseding event 2. Event 3 retires warp 0 and re-arms
    //           issue at 1001 (event 4).
    //   t=1001  event 2 runs warp 1's next step and arms event 5 at 2001;
    //           event 4, now redundant, must neither issue nor re-arm.
    // Then one event per remaining ALU step: kAluSteps + 3 in all. With
    // the bug, event 4 re-armed a second chain, and from t=1001 on two
    // events were armed per step.
    constexpr std::uint32_t kAluSteps = 4;
    constexpr Cycle kAlu = 1000;

    TestFabric fabric;
    fabric.cfg.issue_width = 1;
    fabric.cfg.l1_latency = 10;
    fabric.cfg.warp_mem_credits = 1;
    FakeRouter router(fabric, 100);
    SupersedeWorkload wl(fabric.eq, kAluSteps, kAlu);
    Sm sm(zero_stagger_sm(), fabric.ctx(), &router, &wl);
    sm.start();

    // Between warp 1's second and third steps, only events 1-5 are armed.
    std::uint64_t armed_mid_run = 0;
    fabric.eq.schedule(kAlu + 1 + kAlu / 2, [&] { armed_mid_run = sm.issue_events(); });
    // A probe queued at 1001 after event 2 but before event 4 (it is
    // scheduled at t=1): the earlier-armed event 2 has already issued
    // warp 1's step. Letting the later-armed event issue instead (a
    // generation counter) reorders same-cycle work and changes results.
    std::size_t warp1_steps_at_probe = 0;
    fabric.eq.schedule(1, [&] {
        fabric.eq.schedule(kAlu + 1, [&] { warp1_steps_at_probe = wl.calls[1].size(); });
    });
    fabric.eq.run();

    EXPECT_TRUE(sm.done());
    EXPECT_EQ(sm.mem_instructions(), 1u);
    EXPECT_EQ(sm.instructions(), 1u + kAluSteps * kAlu);
    ASSERT_EQ(wl.calls[0].size(), 2u);
    EXPECT_EQ(wl.calls[0][0], 0u);
    EXPECT_GT(wl.calls[0][1], 0u);
    EXPECT_LT(wl.calls[0][1], kAlu + 1);  // the completion superseded event 2
    // Warp 1 issues once per step, exactly when it becomes ready: the
    // redundant event at 1001 issued nothing of its own.
    const std::vector<Cycle> expected_warp1 = {0, 1001, 2001, 3001, 4001};
    EXPECT_EQ(wl.calls[1], expected_warp1);
    EXPECT_EQ(warp1_steps_at_probe, 2u);
    EXPECT_EQ(armed_mid_run, 5u);
    EXPECT_EQ(sm.issue_events(), kAluSteps + 3);
}

TEST(SmSystem, LibOnBaselineArmsIssueEventsLinearInMemorySteps)
{
    // `lib` on BL at a tenth of its catalog budget, built here rather than
    // through MORPHEUS_WORK_SCALE. The working set shrinks the way the
    // catalog shrinks it for scales below 0.35.
    AppSpec app = *find_app("lib");
    app.params.total_mem_instrs = 26'000;
    app.params.shared_ws_bytes = 2 * 1024 * 1024 * 35 / 100;
    SyntheticWorkload wl(app.params);
    GpuSystem sys(make_system(SystemKind::kBL, app), wl);
    sys.run();

    std::uint64_t issue_events = 0;
    std::uint64_t mem_steps = 0;
    for (std::uint32_t i = 0; i < sys.num_compute_sms(); ++i) {
        issue_events += sys.sm(i).issue_events();
        mem_steps += sys.sm(i).mem_instructions();
    }
    EXPECT_EQ(mem_steps, 26'000u);
    // With one live issue event per SM this run arms about 34k events.
    // When superseded events re-armed (the chain-doubling bug), it armed
    // over a million, and the count grew faster than the run length.
    EXPECT_LE(issue_events, 2 * mem_steps + sys.num_compute_sms());
}
