#include "morpheus/morpheus_controller.hpp"

#include <algorithm>
#include <utility>

#include "gpu/gpu_config.hpp"
#include "mem/backing_store.hpp"
#include "noc/crossbar.hpp"
#include "power/energy_model.hpp"
#include "sim/event_queue.hpp"

namespace morpheus {

// ---------------------------------------------------------------------------
// ExtendedLlc

ExtendedLlc::ExtendedLlc(FabricContext ctx, const ExtLlcParams &params,
                         const std::vector<std::uint32_t> &cache_sm_ids,
                         const Workload *workload, std::uint64_t conv_bytes,
                         std::vector<std::unique_ptr<LlcPartition>> *partitions)
    : ctx_(ctx), params_(params)
{
    for (std::uint32_t id : cache_sm_ids) {
        sms_.push_back(std::make_unique<CacheModeSm>(id, ctx, params, ctx.cfg->rf_bytes,
                                                     ctx.cfg->l1_bytes, workload, partitions));
    }

    std::vector<std::uint64_t> capacities;
    for (const auto &sm : sms_) {
        for (std::uint32_t s = 0; s < sm->num_sets(); ++s)
            capacities.push_back(sm->set_capacity_bytes(s));
    }

    const std::uint32_t sets_per_sm = sms_.empty() ? 1 : sms_.front()->num_sets();
    separator_ = std::make_unique<AddressSeparator>(conv_bytes, ctx.cfg->llc_partitions,
                                                    capacities, sets_per_sm);

    predictors_.reserve(capacities.size());
    for (std::uint32_t g = 0; g < capacities.size(); ++g) {
        const std::uint32_t slot = g / sets_per_sm;
        const std::uint32_t local = g % sets_per_sm;
        predictors_.emplace_back(sms_[slot]->set_max_blocks(local),
                                 params_.bloom_bits_per_entry, params_.bloom_probes);
    }
}

std::uint64_t
ExtendedLlc::total_capacity_bytes() const
{
    std::uint64_t total = 0;
    for (const auto &sm : sms_)
        total += sm->total_capacity_bytes();
    return total;
}

std::uint64_t
ExtendedLlc::kernel_instructions() const
{
    std::uint64_t total = 0;
    for (const auto &sm : sms_)
        total += sm->kernel_instructions();
    return total;
}

std::uint64_t
ExtendedLlc::served() const
{
    std::uint64_t total = 0;
    for (const auto &sm : sms_)
        total += sm->served();
    return total;
}

std::uint64_t
ExtendedLlc::hits() const
{
    std::uint64_t total = 0;
    for (const auto &sm : sms_)
        total += sm->hits();
    return total;
}

std::uint64_t
ExtendedLlc::misses() const
{
    std::uint64_t total = 0;
    for (const auto &sm : sms_)
        total += sm->misses();
    return total;
}

std::uint64_t
ExtendedLlc::comp_insertions(CompLevel level) const
{
    std::uint64_t total = 0;
    for (const auto &sm : sms_)
        total += sm->comp_insertions(level);
    return total;
}

// ---------------------------------------------------------------------------
// MorpheusController

MorpheusController::MorpheusController(std::uint32_t partition, FabricContext ctx,
                                       LlcPartition *conventional, ExtendedLlc *ext,
                                       PredictionMode mode)
    : partition_(partition), ctx_(ctx), conventional_(conventional), ext_(ext), mode_(mode)
{
}

std::uint64_t
MorpheusController::storage_bytes() const
{
    const std::uint64_t bloom = static_cast<std::uint64_t>(query_logic_.params().status_rows) *
                                DualBloomPredictor::nominal_storage_bytes();
    return bloom + query_logic_.storage_bytes();
}

void
MorpheusController::handle(Cycle when, const MemRequest &req, RespFn resp)
{
    // Address separation (§4.1.1): conventional-space requests flow to the
    // conventional LLC untouched.
    if (!ext_->is_extended(req.line)) {
        conventional_->handle(when, req, std::move(resp));
        return;
    }

    ++ext_requests_;
    const auto ref = ext_->set_of(req.line);

    // Every extended access leaves the block resident, so the predictor
    // records it in the same step (keeping BF1's no-false-negative
    // invariant ahead of the actual insertion). The Bloom mode fuses the
    // query into that recording pass; the other modes predict elsewhere
    // but still train the filters so a mode sweep sees equal state.
    bool predicted_hit = true;
    switch (mode_) {
      case PredictionMode::kNone:
        ext_->predictor(ref.global_set).on_access(req.line);
        break;
      case PredictionMode::kBloom:
        predicted_hit = ext_->predictor(ref.global_set).access_and_predict(req.line);
        break;
      case PredictionMode::kPerfect:
        predicted_hit = ext_->sm(ref.sm_slot).contains(ref.local_set, req.line);
        ext_->predictor(ref.global_set).on_access(req.line);
        break;
    }

    if (predicted_hit) {
        ++predicted_hits_;
        forward_to_extended(when, req, ref, std::move(resp));
    } else {
        ++predicted_misses_;
        serve_predicted_miss(when, req, ref, std::move(resp));
    }
}

void
MorpheusController::serve_predicted_miss(Cycle when, const MemRequest &req,
                                         const AddressSeparator::SetRef &ref, RespFn resp)
{
    // Figure 5 bottom timeline: a correctly predicted miss skips the NoC
    // round trip and the software tag lookup entirely.
    const Cycle fetched = conventional_->dram_fetch(when, req.line);

    ctx_.eq->schedule(fetched, [this, when, req, ref, fetched,
                                resp = std::move(resp)]() mutable {
        std::uint64_t version = ctx_.store->read(req.line);
        bool dirty = false;
        if (req.type != AccessType::kRead) {
            version = std::max(version, req.write_version);
            dirty = true;
        }

        // Off the critical path: queue the block for insertion by the
        // owning kernel warp (shipped over the NoC at dequeue).
        ext_->sm(ref.sm_slot).enqueue_insert(fetched, ref.local_set, req.line, version, dirty);

        // Critical path: respond immediately with the fetched data.
        pred_miss_latency_.add(static_cast<double>(fetched - when));
        respond(fetched, req, version, req.type != AccessType::kWrite, std::move(resp));
    });
}

void
MorpheusController::forward_to_extended(Cycle when, const MemRequest &req,
                                        const AddressSeparator::SetRef &ref, RespFn resp)
{
    query_logic_.on_enqueue(when);
    const std::uint32_t cache_sm = ext_->sm(ref.sm_slot).sm_id();

    // The request waits in this controller's request queue; the
    // partition -> SM transfer happens when the warp de-queues it.
    ext_->sm(ref.sm_slot).enqueue_request(
        when, ref.local_set, req,
        [this, when, req, cache_sm, resp = std::move(resp)](Cycle done, std::uint64_t version,
                                                            bool hit) mutable {
            query_logic_.on_complete(done);
            if (!hit)
                ++false_positives_;

            // Response leg: cache-mode SM -> partition (reads carry data).
            const std::uint32_t payload = req.type != AccessType::kWrite ? kLineBytes : 0;
            ctx_.energy->add_noc_bytes(payload + ctx_.noc->params().header_bytes);
            const Cycle at_part = ctx_.noc->sm_to_partition(done, cache_sm, partition_, payload);

            response_leg_.add(static_cast<double>(at_part - done));
            (hit ? ext_hit_latency_ : ext_miss_latency_)
                .add(static_cast<double>(at_part - when));
            respond(at_part, req, version, req.type != AccessType::kWrite, std::move(resp));
        });
}

void
MorpheusController::respond(Cycle when, const MemRequest &req, std::uint64_t version,
                            bool carries_data, RespFn resp)
{
    const std::uint32_t payload = carries_data ? kLineBytes : 0;
    ctx_.energy->add_noc_bytes(payload + ctx_.noc->params().header_bytes);
    const Cycle delivered =
        ctx_.noc->partition_to_sm(when, partition_, req.requester_sm, payload);
    ctx_.eq->schedule(delivered, [resp = std::move(resp), delivered, version] {
        resp(delivered, version);
    });
}

} // namespace morpheus
