/**
 * perfbench_sim — the in-process half of the repository benchmark
 * (perfbench/README.md). It drives the simulator only through public
 * entry points: the app catalog, make_system, SyntheticWorkload, the
 * GpuSystem constructor, GpuSystem::run and the component accessors —
 * the same path run_setup takes.
 *
 *   perfbench_sim run --workload fig12_membound|computebound_bl
 *                     [--seed N] [--seconds S] [--trace 0|1] [--passes N]
 *                     [--baseline BENCH.json] [--spans FILE]
 *   perfbench_sim probes --scratch DIR
 *   perfbench_sim stamp
 *
 * Every mode prints one JSON object on stdout; perfbench/run.py turns it
 * into metrics. `run` repeats passes over the workload's jobs, one job
 * at a time on one thread, and checks every result: each repetition of
 * a job must equal its first repetition exactly, and with --baseline
 * every job must equal the committed entry with the same label.
 */
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "gpu/gpu_system.hpp"
#include "harness/report.hpp"
#include "harness/system_config.hpp"
#include "layer_probes.hpp"
#include "morpheus/morpheus_controller.hpp"
#include "workloads/app_catalog.hpp"
#include "workloads/synthetic_workload.hpp"

namespace {

using namespace morpheus;
using Clock = std::chrono::steady_clock;

struct JobSpec
{
    std::string app;
    SystemKind kind;
    std::string label;  ///< "<app>/<system>", as in BENCH_fig12_performance.json
};

/**
 * The sim workloads. fig12_membound pairs BL with Morpheus-ALL on one
 * memory-bound app per access class (Zipf graph, streaming, private-loop
 * thrash, scatter); computebound_bl runs the three compute-bound apps on
 * BL, where no SM is in cache mode.
 */
std::vector<JobSpec>
workload_jobs(const std::string &name)
{
    std::vector<std::string> apps;
    std::vector<SystemKind> kinds;
    if (name == "fig12_membound") {
        apps = {"p-bfs", "cfd", "kmeans", "spmv"};
        kinds = {SystemKind::kBL, SystemKind::kMorpheusAll};
    } else if (name == "computebound_bl") {
        apps = {"lib", "hotsp", "mri-q"};
        kinds = {SystemKind::kBL};
    }
    std::vector<JobSpec> jobs;
    for (const auto &app : apps) {
        for (SystemKind k : kinds)
            jobs.push_back({app, k, app + "/" + system_name(k)});
    }
    return jobs;
}

/** SplitMix64, kept here rather than reusing the simulator's mix64 so a
 *  change to the simulator's hashing never changes the benchmark's inputs. */
std::uint64_t
splitmix(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/** Seed 0 keeps the catalog's per-app seeds (so the committed baseline
 *  applies); any other seed derives fresh per-app address streams. */
AppSpec
seeded_app(const std::string &name, std::uint64_t seed)
{
    const AppSpec *spec = find_app(name);
    if (!spec)
        throw std::runtime_error("unknown app " + name);
    AppSpec app = *spec;
    if (seed != 0)
        app.params.seed = splitmix(app.params.seed ^ splitmix(seed));
    return app;
}

double
seconds_between(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

/** Layer counters read from the component accessors after one run. */
struct Counters
{
    std::uint64_t events = 0;
    std::uint64_t issue_events = 0;
    std::uint64_t noc_transfers = 0;
    std::uint64_t row_hits = 0;
    std::uint64_t row_misses = 0;
    std::uint64_t mshr_ops = 0;
    std::uint64_t kernel_instructions = 0;
    std::uint64_t ext_served = 0;
};

Counters
read_counters(GpuSystem &sys)
{
    Counters c;
    c.events = sys.event_queue().executed();
    for (std::uint32_t i = 0; i < sys.num_compute_sms(); ++i) {
        c.issue_events += sys.sm(i).issue_events();
        const MshrTable &m = sys.sm(i).l1().mshrs();
        c.mshr_ops += m.allocated() + m.merged();
    }
    c.noc_transfers = sys.noc().transfers();
    c.row_hits = sys.dram().row_hits();
    c.row_misses = sys.dram().row_misses();
    if (const ExtendedLlc *ext = sys.extended_llc()) {
        c.kernel_instructions = ext->kernel_instructions();
        c.ext_served = ext->served();
    }
    return c;
}

/** Time points around each call into a layer for one job. */
struct JobClock
{
    Clock::time_point start, built, made, constructed, finished;

    double setup_s() const { return seconds_between(start, constructed); }
    double run_s() const { return seconds_between(constructed, finished); }
};

RunResult
run_job(const JobSpec &job, const AppSpec &app, JobClock &t, Counters *counters)
{
    t.start = Clock::now();
    SyntheticWorkload workload(app.params);
    t.built = Clock::now();
    const SystemSetup setup = make_system(job.kind, app);
    t.made = Clock::now();
    GpuSystem system(setup, workload);
    t.constructed = Clock::now();
    RunResult r = system.run();
    t.finished = Clock::now();
    if (counters)
        *counters = read_counters(system);
    return r;
}

/** Set-up only (workload + make_system + GpuSystem construction) of
 *  every job, without running; @return seconds. */
double
setup_pass(const std::vector<JobSpec> &jobs, const std::vector<AppSpec> &apps)
{
    double total = 0;
    for (std::size_t j = 0; j < jobs.size(); ++j) {
        const auto start = Clock::now();
        SyntheticWorkload workload(apps[j].params);
        const SystemSetup setup = make_system(jobs[j].kind, apps[j]);
        GpuSystem system(setup, workload);
        total += seconds_between(start, Clock::now());
    }
    return total;
}

/** Compares two report entries metric by metric, bit for bit.
 *  @return empty when identical, else the first difference. */
std::string
entry_difference(const ReportEntry &got, const ReportEntry &want)
{
    if (got.metrics.size() != want.metrics.size())
        return "metric count " + std::to_string(got.metrics.size()) + " vs " +
               std::to_string(want.metrics.size());
    for (std::size_t i = 0; i < got.metrics.size(); ++i) {
        const Metric &a = got.metrics[i];
        const Metric &b = want.metrics[i];
        if (a.name != b.name)
            return "metric " + a.name + " vs " + b.name;
        if (std::memcmp(&a.value, &b.value, sizeof a.value) != 0) {
            char buf[160];
            std::snprintf(buf, sizeof buf, "%s = %.17g, expected %.17g", a.name.c_str(),
                          a.value, b.value);
            return buf;
        }
    }
    return "";
}

long
peak_rss_kb()
{
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtol(line.c_str() + 6, nullptr, 10);
    }
    return 0;
}

std::string
num(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string
quoted(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) < 0x20)
            out += ' ';
        else
            out += c;
    }
    return out + "\"";
}

struct Span
{
    std::string name;
    int parent = -1;
    Clock::time_point start, end;
};

/** Spans of the traced passes, kept in memory and written at the end. */
class SpanLog
{
  public:
    int
    add(std::string name, int parent, Clock::time_point start, Clock::time_point end)
    {
        spans_.push_back({std::move(name), parent, start, end});
        return static_cast<int>(spans_.size()) - 1;
    }

    void
    set_end(int id, Clock::time_point end)
    {
        spans_[static_cast<std::size_t>(id)].end = end;
    }

    bool
    write(const std::string &path, Clock::time_point origin) const
    {
        std::ofstream out(path);
        out << "[\n";
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            out << "  {\"id\": " << i << ", \"parent\": " << s.parent
                << ", \"name\": " << quoted(s.name)
                << ", \"start_s\": " << num(seconds_between(origin, s.start))
                << ", \"end_s\": " << num(seconds_between(origin, s.end)) << "}"
                << (i + 1 < spans_.size() ? ",\n" : "\n");
        }
        out << "]\n";
        return static_cast<bool>(out);
    }

  private:
    std::vector<Span> spans_;
};

struct RunArgs
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 20;
    bool trace = false;
    int passes = 0;  ///< exact pass count (0 = fill --seconds)
    std::string baseline;
    std::string spans;
};

/** Set-up-only repetitions (construct, never run) before the timed
 *  passes; setup_s is the median over these and every pass's set-up. */
constexpr int kSetupRepetitions = 15;

/** Runs time at least this many passes: untraced, so every job has a
 *  median over repetitions even when a pass takes half of --seconds;
 *  traced, so there is a warm-up, an untraced and a traced pass. */
constexpr int kMinPasses = 3;

int
run_mode(const RunArgs &args)
{
    const auto origin = Clock::now();
    const std::vector<JobSpec> jobs = workload_jobs(args.workload);
    if (jobs.empty()) {
        std::fprintf(stderr, "perfbench_sim: unknown workload '%s'\n", args.workload.c_str());
        return 2;
    }
    std::vector<AppSpec> apps;
    for (const auto &job : jobs)
        apps.push_back(seeded_app(job.app, args.seed));

    RunReport baseline;
    if (!args.baseline.empty()) {
        if (args.seed != 0 || work_scale() != 1.0) {
            std::fprintf(stderr, "perfbench_sim: --baseline needs seed 0 at work scale 1\n");
            return 2;
        }
        std::string error;
        if (!RunReport::load_file(args.baseline, baseline, error)) {
            std::fprintf(stderr, "perfbench_sim: %s\n", error.c_str());
            return 2;
        }
    }

    std::vector<double> setup_only;
    for (int r = 0; r < kSetupRepetitions; ++r)
        setup_only.push_back(setup_pass(jobs, apps));

    struct JobRecord
    {
        ReportEntry first;
        bool have_first = false;
        std::vector<double> run_s;
        RunResult result;
        Counters counters;
    };
    std::vector<JobRecord> records(jobs.size());
    std::vector<std::string> errors;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    SpanLog spans;

    struct PassRecord
    {
        bool warmup, traced;
        double setup_s = 0, run_s = 0;
        std::uint64_t instructions = 0;
    };
    std::vector<PassRecord> passes;

    const auto measure_start = Clock::now();
    for (int p = 0;; ++p) {
        // In traced mode pass 0 is an untraced warm-up; after it,
        // untraced and traced passes alternate, so order and drift weigh
        // on both sides of the tracing overhead alike.
        PassRecord pass{args.trace && p == 0, args.trace && p > 0 && p % 2 == 0};
        const auto pass_start = Clock::now();
        const int pass_span = pass.traced ? spans.add("pass", -1, pass_start, pass_start) : -1;
        for (std::size_t j = 0; j < jobs.size(); ++j) {
            JobRecord &rec = records[j];
            ++attempted;
            JobClock t;
            Counters counters;
            try {
                RunResult r = run_job(jobs[j], apps[j], t, pass.traced ? &counters : nullptr);
                RunReport one;
                one.add_run(jobs[j].label, r);
                const ReportEntry &entry = one.entries().front();
                std::string diff;
                if (rec.have_first) {
                    diff = entry_difference(entry, rec.first);
                    if (!diff.empty())
                        diff = "repetition differs from the first: " + diff;
                } else if (!args.baseline.empty()) {
                    const ReportEntry *want = baseline.find_entry(jobs[j].label);
                    diff = want ? entry_difference(entry, *want)
                                : std::string("no baseline entry");
                    if (!diff.empty())
                        diff = "differs from the committed baseline: " + diff;
                }
                if (!rec.have_first) {
                    rec.first = entry;
                    rec.have_first = true;
                    rec.result = r;
                }
                if (pass.traced)
                    rec.counters = counters;
                if (!diff.empty()) {
                    ++failed;
                    errors.push_back(jobs[j].label + ": " + diff);
                }
                rec.run_s.push_back(t.run_s());
                pass.setup_s += t.setup_s();
                pass.run_s += t.run_s();
                pass.instructions += r.instructions;
            } catch (const std::exception &ex) {
                ++failed;
                errors.push_back(jobs[j].label + ": " + ex.what());
                continue;
            }
            if (pass.traced) {
                const int job_span = spans.add("job " + jobs[j].label, pass_span, t.start,
                                               t.finished);
                spans.add("workloads.build", job_span, t.start, t.built);
                spans.add("harness.make_system", job_span, t.built, t.made);
                spans.add("gpu.construct", job_span, t.made, t.constructed);
                spans.add("gpu.run", job_span, t.constructed, t.finished);
            }
        }
        const auto pass_end = Clock::now();
        if (pass.traced)
            spans.set_end(pass_span, pass_end);
        passes.push_back(pass);

        const int done = p + 1;
        if (args.passes > 0) {
            if (done >= args.passes)
                break;
            continue;
        }
        if (done < kMinPasses)
            continue;
        const double elapsed = seconds_between(measure_start, pass_end);
        if (elapsed + elapsed / done > args.seconds)
            break;
    }
    const long rss_kb = peak_rss_kb();

    if (!args.spans.empty() && !spans.write(args.spans, origin)) {
        std::fprintf(stderr, "perfbench_sim: cannot write %s\n", args.spans.c_str());
        return 2;
    }

    std::ostringstream out;
    out << "{\"workload\": " << quoted(args.workload) << ", \"seed\": " << args.seed
        << ", \"work_scale\": " << num(work_scale()) << ", \"attempted\": " << attempted
        << ", \"failed\": " << failed << ", \"peak_rss_kb\": " << rss_kb;
    out << ", \"setup_only_s\": [";
    for (std::size_t i = 0; i < setup_only.size(); ++i)
        out << (i ? ", " : "") << num(setup_only[i]);
    out << "], \"passes\": [";
    for (std::size_t i = 0; i < passes.size(); ++i) {
        const PassRecord &p = passes[i];
        out << (i ? ", " : "") << "{\"warmup\": " << (p.warmup ? "true" : "false")
            << ", \"traced\": " << (p.traced ? "true" : "false")
            << ", \"setup_s\": " << num(p.setup_s) << ", \"run_s\": " << num(p.run_s)
            << ", \"instructions\": " << p.instructions << "}";
    }
    out << "], \"jobs\": [";
    auto list = [&out](const std::vector<double> &v) {
        out << "[";
        for (std::size_t i = 0; i < v.size(); ++i)
            out << (i ? ", " : "") << num(v[i]);
        out << "]";
    };
    for (std::size_t j = 0; j < jobs.size(); ++j) {
        const JobRecord &rec = records[j];
        const RunResult &r = rec.result;
        const Counters &c = rec.counters;
        out << (j ? ",\n  " : "\n  ") << "{\"label\": " << quoted(jobs[j].label)
            << ", \"app\": " << quoted(jobs[j].app)
            << ", \"system\": " << quoted(system_name(jobs[j].kind)) << ", \"run_s\": ";
        list(rec.run_s);
        out << ", \"result\": {\"cycles\": " << r.cycles
            << ", \"instructions\": " << r.instructions << ", \"ipc\": " << num(r.ipc)
            << ", \"l1_hits\": " << r.l1_hits << ", \"l1_misses\": " << r.l1_misses
            << ", \"llc_accesses\": " << r.llc_accesses << ", \"llc_hits\": " << r.llc_hits
            << ", \"ext_requests\": " << r.ext_requests
            << ", \"ext_predicted_hits\": " << r.ext_predicted_hits
            << ", \"ext_false_positives\": " << r.ext_false_positives
            << ", \"ext_hits\": " << r.ext_hits << ", \"dram_reads\": " << r.dram_reads
            << ", \"dram_writes\": " << r.dram_writes
            << ", \"dram_utilization\": " << num(r.dram_utilization)
            << ", \"noc_bytes\": " << r.noc_bytes
            << ", \"noc_avg_latency\": " << num(r.noc_avg_latency)
            << ", \"perf_per_watt\": " << num(r.perf_per_watt) << "}";
        out << ", \"counters\": {\"events\": " << c.events
            << ", \"issue_events\": " << c.issue_events
            << ", \"noc_transfers\": " << c.noc_transfers << ", \"row_hits\": " << c.row_hits
            << ", \"row_misses\": " << c.row_misses << ", \"mshr_ops\": " << c.mshr_ops
            << ", \"kernel_instructions\": " << c.kernel_instructions
            << ", \"ext_served\": " << c.ext_served << "}}";
    }
    out << "],\n \"errors\": [";
    for (std::size_t i = 0; i < errors.size(); ++i)
        out << (i ? ", " : "") << quoted(errors[i]);
    out << "]}\n";
    std::fputs(out.str().c_str(), stdout);
    return 0;
}

int
probes_mode(const std::string &scratch)
{
    const auto results = perfbench::run_layer_probes(scratch);
    std::string out = "{";
    for (std::size_t i = 0; i < results.size(); ++i) {
        out += (i ? ", " : "") + quoted(results[i].name) + ": {\"value\": " +
               num(results[i].value) + ", \"unit\": " + quoted(results[i].unit) + "}";
    }
    out += "}\n";
    std::fputs(out.c_str(), stdout);
    return 0;
}

int
stamp_mode()
{
    bool asan = false, tsan = false, ndebug = false, optimized = false;
#if defined(__SANITIZE_ADDRESS__)
    asan = true;
#endif
#if defined(__SANITIZE_THREAD__)
    tsan = true;
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer)
    asan = true;
#endif
#if __has_feature(thread_sanitizer)
    tsan = true;
#endif
#endif
#if defined(NDEBUG)
    ndebug = true;
#endif
#if defined(__OPTIMIZE__)
    optimized = true;
#endif
    std::printf("{\"build_type\": %s, \"morpheus_sanitize\": %s, \"asan\": %s, "
                "\"tsan\": %s, \"ndebug\": %s, \"optimized\": %s}\n",
                quoted(PERFBENCH_BUILD_TYPE).c_str(), quoted(PERFBENCH_SANITIZE).c_str(),
                asan ? "true" : "false", tsan ? "true" : "false", ndebug ? "true" : "false",
                optimized ? "true" : "false");
    return 0;
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench_sim run --workload NAME [--seed N] [--seconds S]\n"
                 "                         [--trace 0|1] [--passes N] [--baseline FILE]\n"
                 "                         [--spans FILE]\n"
                 "       perfbench_sim probes --scratch DIR\n"
                 "       perfbench_sim stamp\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        return usage();
    const std::string mode = argv[1];
    RunArgs args;
    std::string scratch;
    for (int i = 2; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            return usage();
        const char *value = argv[++i];
        if (flag == "--workload")
            args.workload = value;
        else if (flag == "--seed")
            args.seed = std::strtoull(value, nullptr, 10);
        else if (flag == "--seconds")
            args.seconds = std::atof(value);
        else if (flag == "--trace")
            args.trace = std::atoi(value) != 0;
        else if (flag == "--passes")
            args.passes = std::atoi(value);
        else if (flag == "--baseline")
            args.baseline = value;
        else if (flag == "--spans")
            args.spans = value;
        else if (flag == "--scratch")
            scratch = value;
        else
            return usage();
    }
    try {
        if (mode == "run")
            return run_mode(args);
        if (mode == "probes" && !scratch.empty())
            return probes_mode(scratch);
        if (mode == "stamp")
            return stamp_mode();
    } catch (const std::exception &ex) {
        std::fprintf(stderr, "perfbench_sim: %s\n", ex.what());
        return 1;
    }
    return usage();
}
