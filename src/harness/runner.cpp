#include "harness/runner.hpp"

#include <cmath>
#include <stdexcept>

#include "harness/checkpoint.hpp"
#include "sim/state_io.hpp"

namespace morpheus {

RunResult
run_workload(const SystemSetup &setup, Workload &workload)
{
    GpuSystem system(setup, workload);
    return system.run();
}

RunResult
run_setup(const SystemSetup &setup, const WorkloadParams &params)
{
    SyntheticWorkload workload(params);
    return run_workload(setup, workload);
}

RunResult
run_setup_controlled(const SystemSetup &setup, const WorkloadParams &params,
                     const RunControls &rc)
{
    SyntheticWorkload workload(params);
    GpuSystem system(setup, workload);
    return system.run(rc);
}

RunResult
run_setup_checkpointed(const SystemSetup &setup, const WorkloadParams &params, Cycle every,
                       const std::string &path)
{
    RunControls rc;
    rc.checkpoint_every = every;
    rc.on_checkpoint = [&params, &path](GpuSystem &sys, Cycle boundary, bool final) {
        const Checkpoint ck = capture_checkpoint(sys, params, boundary, final);
        std::string error;
        if (!save_checkpoint(path, ck, error))
            throw std::runtime_error("checkpoint save failed: " + error);
    };
    return run_setup_controlled(setup, params, rc);
}

RunResult
restore_run(const Checkpoint &ck)
{
    SyntheticWorkload workload(ck.params);
    GpuSystem system(ck.setup, workload);

    if (ck.is_final()) {
        // The run had completed at capture: restore the component state
        // directly and derive the result from it — no replay. begin()
        // first so the workload and per-SM warp arrays take the shape the
        // checkpointed configuration implies; the events it schedules are
        // never executed.
        system.begin();
        StateReader r(ck.state);
        system.load_state(r);
        return system.collect_results();
    }

    // Mid-run checkpoint: deterministically replay the prefix, then prove
    // the replayed state matches the stored blob byte for byte before
    // trusting the continuation. This is where in-flight events get
    // re-registered — by the components re-executing, not by closure
    // serialization.
    system.begin();
    system.event_queue().run_until(ck.cycle);
    StateWriter w;
    system.save_state(w);
    if (w.bytes() != ck.state)
        throw StateError("checkpoint restore: replayed state diverges from stored state "
                         "(non-deterministic run or mismatched build?)");
    system.event_queue().run_until(ck.setup.cfg.max_cycles);
    return system.collect_results();
}

RunResult
run_system(SystemKind kind, const AppSpec &app)
{
    return run_setup(make_system(kind, app), app.params);
}

SystemSetup
setup_with_sms(std::uint32_t compute_sms, std::uint64_t llc_bytes_override)
{
    SystemSetup setup;
    setup.compute_sms = compute_sms;
    if (llc_bytes_override > 0)
        setup.cfg.llc_bytes = llc_bytes_override;
    return setup;
}

RunResult
run_with_sms(const AppSpec &app, std::uint32_t compute_sms, std::uint64_t llc_bytes_override)
{
    return run_setup(setup_with_sms(compute_sms, llc_bytes_override), app.params);
}

double
geomean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double log_sum = 0.0;
    for (double v : values)
        log_sum += std::log(v);
    return std::exp(log_sum / static_cast<double>(values.size()));
}

} // namespace morpheus
