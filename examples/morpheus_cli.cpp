/**
 * @file
 * Command-line driver: run any catalog application on any evaluated
 * system and print the full metric set.
 *
 * Usage:
 *   morpheus_cli <app> [system] [compute_sms] [cache_sms]
 *                [--checkpoint FILE [--checkpoint-every N]]
 *   morpheus_cli --restore FILE
 *   morpheus_cli --list
 *   morpheus_cli --scenario <name> [--jobs N] [--format text|csv|json]
 *                [--trace FILE] [--output FILE] [--fault-plan SPEC]
 *                [--journal PATH] [--resume] [--timeout-ms N] [--retries N]
 *                [--cache-dir DIR]
 *   morpheus_cli --all [--jobs N] [--format text|csv|json]
 *                [--output-dir DIR]
 *
 *   app     one of the 17 Table 2 names (p-bfs, cfd, ..., mri-q)
 *   system  BL | IBL | IBL4X | FREQ | UNIFIED | BASIC | COMPR | MOV |
 *           ALL | LARGER (default: ALL)
 *   compute_sms / cache_sms
 *           optional explicit Morpheus split overriding the catalog
 *
 * Scenario mode runs any registered experiment sweep (every paper figure
 * and table) through the SweepEngine: --jobs N shards its independent
 * simulation runs over N worker threads with byte-identical output.
 * --output persists the run's metrics as a BENCH_<scenario>.json report
 * (docs/REPORT_SCHEMA.md); --all runs every scenario, writing one report
 * per scenario into --output-dir (the regression-gate input for
 * morpheus_bench_diff). --trace points the trace_replay scenario at a
 * specific .mtrc file (docs/TRACE_FORMAT.md; default: bench/traces/).
 * The fault-tolerance flags (--fault-plan, --journal, --resume,
 * --timeout-ms, --retries) are described in docs/ARCHITECTURE.md
 * "Reliability". --cache-dir DIR memoizes completed runs in a
 * content-addressed on-disk store so reruns are served byte-identically
 * from cache (docs/CACHE_FORMAT.md).
 *
 * App mode can snapshot the simulation: --checkpoint FILE writes a .mchk
 * checkpoint (docs/CHECKPOINT_FORMAT.md) — by default once, when the run
 * completes; --checkpoint-every N rewrites it every N cycles so a killed
 * run loses at most N cycles of progress. --restore FILE completes a run
 * from such a checkpoint; its output is bit-identical to the
 * uninterrupted run's.
 *
 * Examples:
 *   morpheus_cli kmeans                 # kmeans on Morpheus-ALL
 *   morpheus_cli cfd BL                 # cfd on the 68-SM baseline
 *   morpheus_cli lbm ALL 26 42          # explicit 26 compute / 42 cache
 *   morpheus_cli --list                 # registered scenarios
 *   morpheus_cli --scenario fig12_performance --jobs 8
 *   morpheus_cli --scenario fig12_performance --output out.json
 *   morpheus_cli --all --output-dir reports/
 */
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "harness/checkpoint.hpp"
#include "harness/runner.hpp"
#include "harness/scenario.hpp"
#include "harness/table.hpp"

using namespace morpheus;

namespace {

bool
parse_system(const char *name, SystemKind &out)
{
    struct Entry
    {
        const char *name;
        SystemKind kind;
    };
    static constexpr Entry kEntries[] = {
        {"BL", SystemKind::kBL},
        {"IBL", SystemKind::kIBL},
        {"IBL4X", SystemKind::kIBL4xLLC},
        {"FREQ", SystemKind::kFrequencyBoost},
        {"UNIFIED", SystemKind::kUnifiedSmMem},
        {"BASIC", SystemKind::kMorpheusBasic},
        {"COMPR", SystemKind::kMorpheusCompression},
        {"MOV", SystemKind::kMorpheusIndirectMov},
        {"ALL", SystemKind::kMorpheusAll},
        {"LARGER", SystemKind::kLargerLlc},
    };
    for (const auto &e : kEntries) {
        if (std::strcmp(name, e.name) == 0) {
            out = e.kind;
            return true;
        }
    }
    return false;
}

/** Classic dynamic-programming edit distance (small strings only). */
std::size_t
edit_distance(const std::string &a, const std::string &b)
{
    std::vector<std::size_t> row(b.size() + 1);
    for (std::size_t j = 0; j <= b.size(); ++j)
        row[j] = j;
    for (std::size_t i = 1; i <= a.size(); ++i) {
        std::size_t diag = row[0];
        row[0] = i;
        for (std::size_t j = 1; j <= b.size(); ++j) {
            const std::size_t subst = diag + (a[i - 1] != b[j - 1] ? 1 : 0);
            diag = row[j];
            row[j] = std::min({row[j] + 1, row[j - 1] + 1, subst});
        }
    }
    return row[b.size()];
}

/** The closest candidate within an edit distance of 3, or empty — a
 *  typo'd name gets a "did you mean" instead of a bare error. */
std::string
closest_match(const std::string &name, const std::vector<std::string> &candidates)
{
    std::string best;
    std::size_t best_dist = 4;
    for (const auto &c : candidates) {
        const std::size_t d = edit_distance(name, c);
        if (d < best_dist) {
            best_dist = d;
            best = c;
        }
    }
    return best;
}

std::vector<std::string>
scenario_names()
{
    std::vector<std::string> names;
    for (const auto &s : scenario_registry())
        names.push_back(s.name);
    return names;
}

std::vector<std::string>
app_names()
{
    std::vector<std::string> names;
    for (const auto &app : app_catalog())
        names.push_back(app.params.name);
    return names;
}

void
suggest(const char *kind, const std::string &name, const std::vector<std::string> &candidates)
{
    const std::string near = closest_match(name, candidates);
    if (near.empty())
        std::fprintf(stderr, "unknown %s '%s'\n", kind, name.c_str());
    else
        std::fprintf(stderr, "unknown %s '%s' (did you mean '%s'?)\n", kind, name.c_str(),
                     near.c_str());
}

/** Strict u32 parse for the positional SM-count arguments. */
bool
parse_u32(const char *arg, const char *what, std::uint32_t &out)
{
    char *end = nullptr;
    const long v = std::strtol(arg, &end, 10);
    if (end == arg || *end != '\0' || v < 0) {
        std::fprintf(stderr, "invalid %s '%s' (expected a non-negative integer)\n", what, arg);
        return false;
    }
    out = static_cast<std::uint32_t>(v);
    return true;
}

/** Prints the full metric table of one run (app and --restore modes). */
void print_result(const RunResult &r);

void
usage()
{
    std::fprintf(stderr,
                 "usage: morpheus_cli <app> [BL|IBL|IBL4X|FREQ|UNIFIED|BASIC|COMPR|MOV|ALL|"
                 "LARGER] [compute_sms cache_sms]"
                 " [--checkpoint FILE [--checkpoint-every N]]\n"
                 "       morpheus_cli --restore FILE\n"
                 "       morpheus_cli --list\n"
                 "       morpheus_cli --scenario <name> [--jobs N] [--format text|csv|json]"
                 " [--trace FILE] [--output FILE] [--fault-plan SPEC] [--journal PATH]"
                 " [--resume] [--timeout-ms N] [--retries N] [--cache-dir DIR]\n"
                 "       morpheus_cli --all [--jobs N] [--format text|csv|json]"
                 " [--output-dir DIR]\n"
                 "apps:");
    for (const auto &app : app_catalog())
        std::fprintf(stderr, " %s", app.params.name.c_str());
    std::fprintf(stderr, "\n");
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2) {
        usage();
        return 2;
    }

    if (std::strcmp(argv[1], "--list") == 0) {
        std::printf("registered scenarios (run with --scenario <name>):\n");
        list_scenarios(std::cout);
        return 0;
    }

    if (std::strcmp(argv[1], "--scenario") == 0) {
        if (argc < 3) {
            usage();
            return 2;
        }
        const Scenario *s = find_scenario(argv[2]);
        if (!s) {
            suggest("scenario", argv[2], scenario_names());
            std::fprintf(stderr, "--list shows all scenarios\n");
            return 2;
        }
        // Reuse the shared flag parser; it sees only the trailing options.
        return scenario_main(argv[2], argc - 2, argv + 2);
    }

    if (std::strcmp(argv[1], "--all") == 0) {
        // Shared flag parser (same validation as --scenario mode); it
        // sees only the trailing options.
        return scenario_all_main(argc - 1, argv + 1);
    }
    if (std::strcmp(argv[1], "--restore") == 0) {
        if (argc != 3) {
            usage();
            return 2;
        }
        Checkpoint ck;
        std::string error;
        if (!load_checkpoint(argv[2], ck, error)) {
            std::fprintf(stderr, "%s\n", error.c_str());
            return 1;
        }
        const RunResult r = restore_run(ck);
        std::printf("%s restored from %s (cycle %llu%s)\n\n", r.workload.c_str(), argv[2],
                    static_cast<unsigned long long>(ck.cycle),
                    ck.is_final() ? ", final" : "");
        print_result(r);
        return 0;
    }

    const AppSpec *app = find_app(argv[1]);
    if (!app) {
        suggest("app", argv[1], app_names());
        usage();
        return 2;
    }

    // Positionals first (system, then the SM split), flags afterwards.
    int pos = 2;
    SystemKind kind = SystemKind::kMorpheusAll;
    if (pos < argc && argv[pos][0] != '-') {
        if (!parse_system(argv[pos], kind)) {
            std::fprintf(stderr, "unknown system '%s'\n", argv[pos]);
            usage();
            return 2;
        }
        ++pos;
    }

    SystemSetup setup = make_system(kind, *app);
    if (pos < argc && argv[pos][0] != '-') {
        std::uint32_t compute = 0;
        std::uint32_t cache = 0;
        if (pos + 1 >= argc || argv[pos + 1][0] == '-') {
            std::fprintf(stderr, "compute_sms needs a matching cache_sms\n");
            usage();
            return 2;
        }
        if (!parse_u32(argv[pos], "compute_sms", compute) ||
            !parse_u32(argv[pos + 1], "cache_sms", cache))
            return 2;
        setup.compute_sms = compute;
        setup.morpheus.enabled = cache > 0;
        setup.morpheus.cache_sms = cache;
        pos += 2;
    }

    std::string checkpoint_path;
    Cycle checkpoint_every = 0;
    for (int i = pos; i < argc; ++i) {
        if (std::strcmp(argv[i], "--checkpoint") == 0 && i + 1 < argc) {
            checkpoint_path = argv[++i];
        } else if (std::strcmp(argv[i], "--checkpoint-every") == 0 && i + 1 < argc) {
            char *end = nullptr;
            const unsigned long long v = std::strtoull(argv[i + 1], &end, 10);
            if (end == argv[i + 1] || *end != '\0' || v == 0) {
                std::fprintf(stderr, "invalid --checkpoint-every '%s' (expected N >= 1)\n",
                             argv[i + 1]);
                return 2;
            }
            checkpoint_every = v;
            ++i;
        } else {
            suggest("argument", argv[i], {"--checkpoint", "--checkpoint-every"});
            usage();
            return 2;
        }
    }
    if (checkpoint_every > 0 && checkpoint_path.empty()) {
        std::fprintf(stderr, "--checkpoint-every requires --checkpoint FILE\n");
        return 2;
    }

    RunResult r;
    if (!checkpoint_path.empty()) {
        // Default cadence: one (final) checkpoint when the run completes.
        const Cycle every = checkpoint_every > 0 ? checkpoint_every : setup.cfg.max_cycles;
        r = run_setup_checkpointed(setup, app->params, every, checkpoint_path);
    } else {
        r = run_setup(setup, app->params);
    }

    std::printf("%s on %s (%u compute + %u cache SMs)\n\n", app->params.name.c_str(),
                system_name(kind), setup.compute_sms, setup.morpheus.cache_sms);
    print_result(r);
    return 0;
}

namespace {

void
print_result(const RunResult &r)
{
    Table table({"metric", "value"});
    table.add_row({"cycles", std::to_string(r.cycles)});
    table.add_row({"instructions", std::to_string(r.instructions)});
    table.add_row({"IPC", fmt(r.ipc)});
    table.add_row({"L1 hit rate",
                   fmt(100.0 * static_cast<double>(r.l1_hits) /
                           std::max<std::uint64_t>(1, r.l1_hits + r.l1_misses),
                       1) +
                       "%"});
    table.add_row({"conventional LLC accesses", std::to_string(r.llc_accesses)});
    table.add_row({"extended LLC requests", std::to_string(r.ext_requests)});
    if (r.ext_requests) {
        table.add_row({"extended LLC hit rate",
                       fmt(100.0 * static_cast<double>(r.ext_hits) /
                               static_cast<double>(r.ext_requests),
                           1) +
                           "%"});
        table.add_row({"predicted misses (fast path)",
                       std::to_string(r.ext_predicted_misses)});
        table.add_row({"predictor false positives", std::to_string(r.ext_false_positives)});
        table.add_row({"extended LLC capacity",
                       std::to_string(r.ext_capacity_bytes / 1024) + " KiB"});
        table.add_row({"ext hit / pred-miss latency",
                       fmt(r.ext_hit_latency, 0) + " / " + fmt(r.pred_miss_latency, 0) +
                           " cycles"});
    }
    table.add_row({"DRAM reads / writes",
                   std::to_string(r.dram_reads) + " / " + std::to_string(r.dram_writes)});
    table.add_row({"DRAM utilization", fmt(100.0 * r.dram_utilization, 1) + "%"});
    table.add_row({"LLC MPKI", fmt(r.mpki, 1)});
    table.add_row({"NoC injection", fmt(r.noc_injection_rate, 1) + " B/cycle"});
    table.add_row({"avg power", fmt(r.avg_watts, 1) + " W"});
    table.add_row({"perf/W (IPC per watt)", fmt(r.perf_per_watt, 3)});
    table.print();
}

} // namespace
