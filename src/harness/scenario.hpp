#ifndef MORPHEUS_HARNESS_SCENARIO_HPP_
#define MORPHEUS_HARNESS_SCENARIO_HPP_

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "harness/fault_plan.hpp"
#include "harness/table.hpp"

namespace morpheus {

class RunReport;
class ResultStore;

/** Exit code of a scenario that finished but had failed sweep jobs: the
 *  report was still written (with `failed` entries), distinct from both
 *  success (0) and hard failure (1) / usage error (2). */
inline constexpr int kExitDegraded = 3;

/** Options shared by every registered experiment scenario. */
struct ScenarioOptions
{
    /** Sweep worker threads (0 = default_sweep_jobs()). */
    unsigned jobs = 0;
    TableFormat format = TableFormat::kText;
    /** Output stream; nullptr means std::cout. */
    std::ostream *out = nullptr;
    /** When non-null, the scenario records every job's metrics here
     *  (persisted as BENCH_<scenario>.json; see harness/report.hpp). */
    RunReport *report = nullptr;
    /**
     * `.mtrc` trace to replay (`--trace FILE`; trace_replay scenario).
     * Empty means the scenario's default: every trace in
     * $MORPHEUS_TRACE_DIR, ./bench/traces, or ../bench/traces.
     */
    std::string trace_path;

    /** @name Fault tolerance (SweepEngine::configure)
     * `--fault-plan SPEC`, `--journal PATH`, `--resume`,
     * `--timeout-ms N`, `--retries N`.
     */
    ///@{
    FaultPlan fault;
    std::string journal_path;
    bool resume = false;
    std::uint64_t timeout_ms = 0;
    unsigned retries = 1;
    ///@}

    /** @name Result memoization (docs/CACHE_FORMAT.md)
     * `--cache-dir DIR` fills cache_dir; run_scenario_with_report then
     * opens a ResultCache there and points result_store at it for the
     * scenario's duration. Embedders (the serve daemon) set result_store
     * directly and leave cache_dir empty.
     */
    ///@{
    std::string cache_dir;
    ResultStore *result_store = nullptr;
    ///@}

    /** Shared simulation-concurrency gate (the serve daemon's pool
     *  governor; harness/sweep_engine.hpp). Not owned; nullptr runs
     *  ungated. */
    class ConcurrencyGate *sim_gate = nullptr;
};

/** One runnable experiment (a paper figure/table or an example sweep). */
struct Scenario
{
    const char *name;
    const char *description;
    int (*run)(const ScenarioOptions &);
};

/** All registered scenarios, in display order. */
const std::vector<Scenario> &scenario_registry();

/** @return nullptr when @p name is not registered. */
const Scenario *find_scenario(const std::string &name);

/** Writes the "name — description" list to @p os. */
void list_scenarios(std::ostream &os);

/**
 * Entry point shared by the bench driver stubs: parses `--jobs N`,
 * `--format text|csv|json`, `--trace FILE` (replay a specific `.mtrc`
 * trace; see docs/TRACE_FORMAT.md), and `--output FILE` (write a
 * BENCH_<scenario>.json report; see docs/REPORT_SCHEMA.md), then runs
 * scenario @p name.
 */
int scenario_main(const char *name, int argc, char **argv);

/**
 * Runs scenario @p s with a RunReport attached and, when @p output_path
 * is non-empty, persists the report there. @return the scenario's exit
 * code (file-write failures return 1).
 */
int run_scenario_with_report(const Scenario &s, ScenarioOptions opts,
                             const std::string &output_path);

/**
 * Runs every registered scenario in display order (`morpheus_cli --all`).
 * When @p output_dir is non-empty, each scenario's report is written to
 * `<output_dir>/BENCH_<name>.json`. @return the first nonzero scenario
 * exit code, else 0.
 */
int run_all_scenarios(const ScenarioOptions &opts, const std::string &output_dir);

/**
 * Flag-parsing entry point behind `morpheus_cli --all`: accepts
 * `--jobs N`, `--format text|csv|json`, and `--output-dir DIR` (same
 * validation as scenario_main), then runs every registered scenario.
 */
int scenario_all_main(int argc, char **argv);

/**
 * Emits a scenario's tables and commentary in the selected format.
 * Text mode interleaves titles, tables, and notes as before; CSV mode
 * prints `# title` comment lines between blocks; JSON mode wraps all
 * tables of the scenario into one array of {"table", "rows"} objects
 * (notes are dropped).
 */
class ScenarioEmitter
{
  public:
    explicit ScenarioEmitter(const ScenarioOptions &opts);
    ~ScenarioEmitter();

    ScenarioEmitter(const ScenarioEmitter &) = delete;
    ScenarioEmitter &operator=(const ScenarioEmitter &) = delete;

    /** Emits one titled table. */
    void table(const std::string &title, const Table &t);

    /** Free-form commentary; printed in text mode only. */
    void note(const char *fmt, ...) __attribute__((format(printf, 2, 3)));

    std::ostream &out() { return os_; }
    TableFormat format() const { return format_; }

  private:
    std::ostream &os_;
    TableFormat format_;
    std::size_t tables_ = 0;
};

} // namespace morpheus

#endif // MORPHEUS_HARNESS_SCENARIO_HPP_
