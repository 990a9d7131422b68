#include "harness/scenario.hpp"

#include <algorithm>
#include <chrono>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <optional>
#include <system_error>

#include "harness/report.hpp"
#include "harness/sweep_engine.hpp"
#include "serve/result_cache.hpp"
#include "workloads/app_catalog.hpp"

namespace morpheus {

const Scenario *
find_scenario(const std::string &name)
{
    for (const auto &s : scenario_registry()) {
        if (name == s.name)
            return &s;
    }
    return nullptr;
}

void
list_scenarios(std::ostream &os)
{
    for (const auto &s : scenario_registry())
        os << "  " << s.name << "\n      " << s.description << "\n";
}

int
run_scenario_with_report(const Scenario &s, ScenarioOptions opts, const std::string &output_path)
{
    RunReport report(s.name);
    report.set_work_scale(work_scale());
    report.set_jobs(opts.jobs ? opts.jobs : default_sweep_jobs());
    opts.report = &report;

    // --cache-dir: memoize grid points in an on-disk content-addressed
    // store (docs/CACHE_FORMAT.md). The cache outlives each SweepEngine
    // the scenario builds, not the process — embedders that want a
    // longer-lived store (the serve daemon) pass result_store directly.
    std::optional<ResultCache> cache;
    if (!opts.cache_dir.empty() && !opts.result_store) {
        cache.emplace(opts.cache_dir);
        if (!cache->ok()) {
            std::fprintf(stderr, "cannot open result cache '%s': %s\n",
                         opts.cache_dir.c_str(), cache->error().c_str());
            return 1;
        }
        opts.result_store = &*cache;
    }

    const auto begin = std::chrono::steady_clock::now();
    int rc = s.run(opts);
    const auto end = std::chrono::steady_clock::now();
    report.set_wall_ms(
        std::chrono::duration_cast<std::chrono::duration<double, std::milli>>(end - begin)
            .count());

    // Graceful degradation: failed sweep jobs surface as kExitDegraded,
    // and the report (which records WHAT failed) is still persisted.
    if (rc == 0 && report.has_failures()) {
        for (const auto &e : report.entries()) {
            if (!e.ok())
                std::fprintf(stderr, "job '%s' failed: %s\n", e.label.c_str(),
                             e.error.c_str());
        }
        rc = kExitDegraded;
    }

    if ((rc != 0 && rc != kExitDegraded) || output_path.empty())
        return rc;

    std::string error;
    if (!report.save_file(output_path, error)) {
        std::fprintf(stderr, "failed to write report: %s\n", error.c_str());
        return 1;
    }
    std::fprintf(stderr, "wrote %s (%zu entries)\n", output_path.c_str(),
                 report.entries().size());
    return rc;
}

int
run_all_scenarios(const ScenarioOptions &opts, const std::string &output_dir)
{
    if (!output_dir.empty()) {
        std::error_code ec;
        std::filesystem::create_directories(output_dir, ec);
        if (ec) {
            std::fprintf(stderr, "cannot create output dir '%s': %s\n", output_dir.c_str(),
                         ec.message().c_str());
            return 1;
        }
    }
    std::ostream &os = opts.out ? *opts.out : std::cout;
    int rc = 0;
    bool first = true;
    // JSON mode: every scenario emits its own top-level array, so wrap
    // them in one {"scenario": name, "tables": [...]} array to keep the
    // combined stdout a single valid JSON document.
    if (opts.format == TableFormat::kJson)
        os << "[\n";
    for (const auto &s : scenario_registry()) {
        switch (opts.format) {
          case TableFormat::kText:
            os << "===== " << s.name << " =====\n";
            break;
          case TableFormat::kCsv:
            os << (first ? "" : "\n") << "## scenario: " << s.name << '\n';
            break;
          case TableFormat::kJson:
            os << (first ? "" : ",\n") << "{\"scenario\": \"" << s.name << "\", \"tables\": ";
            break;
        }
        first = false;
        std::string path;
        if (!output_dir.empty())
            path = output_dir + "/" + RunReport::default_filename(s.name);
        const int one = run_scenario_with_report(s, opts, path);
        // Hard failures dominate degraded, degraded dominates success.
        if (one != 0 && (rc == 0 || (rc == kExitDegraded && one != kExitDegraded)))
            rc = one;
        if (opts.format == TableFormat::kText)
            os << '\n';
        else if (opts.format == TableFormat::kJson)
            os << "}";
    }
    if (opts.format == TableFormat::kJson)
        os << "\n]\n";
    return rc;
}

namespace {

bool
parse_jobs_value(const char *arg, unsigned &out)
{
    char *end = nullptr;
    const long v = std::strtol(arg, &end, 10);
    if (end == arg || *end != '\0' || v < 0) {
        std::fprintf(stderr, "invalid --jobs value '%s' (expected N >= 0; 0 = auto)\n", arg);
        return false;
    }
    out = static_cast<unsigned>(v);
    return true;
}

/** Levenshtein distance (for near-miss flag suggestions). */
std::size_t
flag_edit_distance(const std::string &a, const std::string &b)
{
    std::vector<std::size_t> row(b.size() + 1);
    for (std::size_t j = 0; j <= b.size(); ++j)
        row[j] = j;
    for (std::size_t i = 1; i <= a.size(); ++i) {
        std::size_t prev = row[0];
        row[0] = i;
        for (std::size_t j = 1; j <= b.size(); ++j) {
            const std::size_t cur = row[j];
            row[j] = std::min({row[j] + 1, row[j - 1] + 1,
                               prev + (a[i - 1] == b[j - 1] ? 0 : 1)});
            prev = cur;
        }
    }
    return row[b.size()];
}

/** Prints "did you mean ...?" when @p arg is close to a known flag. */
void
suggest_flag(const char *arg, const char *const *known, std::size_t n_known)
{
    const char *best = nullptr;
    std::size_t best_d = 4; // suggestions only within edit distance 3
    for (std::size_t i = 0; i < n_known; ++i) {
        const std::size_t d = flag_edit_distance(arg, known[i]);
        if (d < best_d) {
            best_d = d;
            best = known[i];
        }
    }
    if (best)
        std::fprintf(stderr, "unknown flag '%s' (did you mean '%s'?)\n", arg, best);
}

/**
 * Parses the shared scenario flags into @p opts / @p path. @p path_flag
 * names the output flag ("--output" or "--output-dir"). @return false
 * (after printing a usage line) on any invalid flag.
 */
bool
parse_u64_value(const char *arg, const char *flag, std::uint64_t &out)
{
    char *end = nullptr;
    const unsigned long long v = std::strtoull(arg, &end, 10);
    if (end == arg || *end != '\0') {
        std::fprintf(stderr, "invalid %s value '%s' (expected an integer)\n", flag, arg);
        return false;
    }
    out = v;
    return true;
}

bool
parse_scenario_flags(int argc, char **argv, const char *path_flag, ScenarioOptions &opts,
                     std::string &path)
{
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--jobs") == 0 && i + 1 < argc) {
            if (!parse_jobs_value(argv[++i], opts.jobs))
                return false;
        } else if (std::strcmp(argv[i], "--format") == 0 && i + 1 < argc) {
            if (!parse_table_format(argv[++i], opts.format)) {
                std::fprintf(stderr, "unknown format '%s' (text|csv|json)\n", argv[i]);
                return false;
            }
        } else if (std::strcmp(argv[i], "--trace") == 0 && i + 1 < argc) {
            opts.trace_path = argv[++i];
        } else if (std::strcmp(argv[i], "--fault-plan") == 0 && i + 1 < argc) {
            std::string error;
            if (!parse_fault_plan(argv[++i], opts.fault, error)) {
                std::fprintf(stderr, "%s\n", error.c_str());
                return false;
            }
        } else if (std::strcmp(argv[i], "--journal") == 0 && i + 1 < argc) {
            opts.journal_path = argv[++i];
        } else if (std::strcmp(argv[i], "--resume") == 0) {
            opts.resume = true;
        } else if (std::strcmp(argv[i], "--timeout-ms") == 0 && i + 1 < argc) {
            if (!parse_u64_value(argv[++i], "--timeout-ms", opts.timeout_ms))
                return false;
        } else if (std::strcmp(argv[i], "--retries") == 0 && i + 1 < argc) {
            std::uint64_t v = 0;
            if (!parse_u64_value(argv[++i], "--retries", v))
                return false;
            opts.retries = static_cast<unsigned>(v);
        } else if (std::strcmp(argv[i], "--cache-dir") == 0 && i + 1 < argc) {
            opts.cache_dir = argv[++i];
        } else if (std::strcmp(argv[i], path_flag) == 0 && i + 1 < argc) {
            path = argv[++i];
        } else {
            const char *known[] = {"--jobs",       "--format",     "--trace",
                                   "--fault-plan", "--journal",    "--resume",
                                   "--timeout-ms", "--retries",    "--cache-dir",
                                   path_flag};
            suggest_flag(argv[i], known, sizeof(known) / sizeof(known[0]));
            std::fprintf(stderr,
                         "usage: %s [--jobs N] [--format text|csv|json] "
                         "[--trace FILE] [--fault-plan SPEC] [--journal PATH] [--resume] "
                         "[--timeout-ms N] [--retries N] [--cache-dir DIR] [%s PATH]\n",
                         argv[0], path_flag);
            return false;
        }
    }
    if (opts.resume && opts.journal_path.empty()) {
        std::fprintf(stderr, "--resume requires --journal PATH\n");
        return false;
    }
    return true;
}

} // namespace

int
scenario_main(const char *name, int argc, char **argv)
{
    ScenarioOptions opts;
    std::string output_path;
    if (!parse_scenario_flags(argc, argv, "--output", opts, output_path))
        return 2;
    const Scenario *s = find_scenario(name);
    if (!s) {
        std::fprintf(stderr, "scenario '%s' is not registered\n", name);
        return 2;
    }
    return run_scenario_with_report(*s, opts, output_path);
}

int
scenario_all_main(int argc, char **argv)
{
    ScenarioOptions opts;
    std::string output_dir;
    if (!parse_scenario_flags(argc, argv, "--output-dir", opts, output_dir))
        return 2;
    return run_all_scenarios(opts, output_dir);
}

ScenarioEmitter::ScenarioEmitter(const ScenarioOptions &opts)
    : os_(opts.out ? *opts.out : std::cout), format_(opts.format)
{
    if (format_ == TableFormat::kJson)
        os_ << "[\n";
}

ScenarioEmitter::~ScenarioEmitter()
{
    if (format_ == TableFormat::kJson)
        os_ << (tables_ ? "\n]\n" : "]\n");
}

void
ScenarioEmitter::table(const std::string &title, const Table &t)
{
    switch (format_) {
      case TableFormat::kText:
        if (tables_)
            os_ << '\n';
        os_ << "== " << title << " ==\n";
        t.print(os_);
        break;
      case TableFormat::kCsv:
        if (tables_)
            os_ << '\n';
        os_ << "# " << title << '\n';
        t.emit_csv(os_);
        break;
      case TableFormat::kJson:
        os_ << (tables_ ? ",\n" : "") << "  {\"table\": \"";
        for (char c : title) {
            if (c == '"' || c == '\\')
                os_ << '\\';
            os_ << c;
        }
        os_ << "\", \"rows\": ";
        t.emit_json(os_);
        os_ << '}';
        break;
    }
    ++tables_;
}

void
ScenarioEmitter::note(const char *fmt, ...)
{
    if (format_ != TableFormat::kText)
        return;
    char buf[2048];
    va_list args;
    va_start(args, fmt);
    std::vsnprintf(buf, sizeof(buf), fmt, args);
    va_end(args);
    os_ << buf;
}

} // namespace morpheus
