#ifndef PERFBENCH_LAYER_PROBES_HPP_
#define PERFBENCH_LAYER_PROBES_HPP_

#include <string>
#include <vector>

namespace perfbench {

/** One layer probe: the cost of a layer's public hot function. */
struct ProbeResult
{
    std::string name;   ///< per-layer metric name, e.g. "cache.set_access_ns"
    std::string unit;   ///< "ns" or "us" per operation
    double value = 0;   ///< median over the probe's repetitions
};

/**
 * Times each layer's hot function directly (event queue, MSHR table,
 * set-associative cache, BDI, dual-Bloom predictor, extended-LLC set,
 * result cache). @p scratch_dir holds the result-cache probe's entries
 * and is emptied first.
 */
std::vector<ProbeResult> run_layer_probes(const std::string &scratch_dir);

} // namespace perfbench

#endif // PERFBENCH_LAYER_PROBES_HPP_
