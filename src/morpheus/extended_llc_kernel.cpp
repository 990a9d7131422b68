#include "morpheus/extended_llc_kernel.hpp"

#include <algorithm>
#include <cassert>

#include "gpu/gpu_config.hpp"
#include "gpu/llc_partition.hpp"
#include "gpu/workload.hpp"
#include "mem/backing_store.hpp"
#include "noc/crossbar.hpp"
#include "power/energy_model.hpp"
#include "sim/event_queue.hpp"

namespace morpheus {

const char *
ext_storage_name(ExtStorage storage)
{
    switch (storage) {
      case ExtStorage::kRegisterFile:
        return "register-file";
      case ExtStorage::kSharedMemory:
        return "shared-memory";
      default:
        return "l1";
    }
}

std::uint32_t
ExtLlcParams::data_move_instrs(ExtStorage storage) const
{
    switch (storage) {
      case ExtStorage::kRegisterFile:
        return indirect_mov_cost(hw_indirect_mov).total_issue_slots();
      case ExtStorage::kSharedMemory:
        // Tags live in the RF; the data access is a plain shared-memory
        // load/store (no indirect-MOV needed).
        return 2;
      default:
        return l1_forward_instrs;
    }
}

// ---------------------------------------------------------------------------
// ExtSet

ExtSet::ExtSet(std::uint32_t budget_bytes, bool compression, Cycle epoch_cycles)
    : budget_(budget_bytes), compression_(compression), epoch_cycles_(epoch_cycles),
      next_epoch_(epoch_cycles)
{
    alloc_[static_cast<std::size_t>(CompLevel::kUncompressed)] = budget_ / kLineBytes;
}

const ExtSet::Entry *
ExtSet::find(LineAddr line) const
{
    if (bucket_count_[bucket(line)] == 0)
        return nullptr; // definitely absent — skip the tag scan
    for (std::size_t i = 0; i < tags_.size(); ++i) {
        if (tags_[i] == line)
            return &entries_[i];
    }
    return nullptr;
}

ExtSet::Entry *
ExtSet::find(LineAddr line)
{
    return const_cast<Entry *>(static_cast<const ExtSet *>(this)->find(line));
}

void
ExtSet::remove_at(std::size_t i)
{
    --bucket_count_[bucket(tags_[i])];
    entries_[i] = entries_.back();
    entries_.pop_back();
    tags_[i] = tags_.back();
    tags_.pop_back();
}

bool
ExtSet::touch_read(Cycle now, LineAddr line, std::uint64_t &version, CompLevel &level)
{
    maybe_epoch(now);
    Entry *e = find(line);
    if (!e)
        return false;
    e->stamp = ++clock_;
    version = e->version;
    level = e->data_level;
    return true;
}

bool
ExtSet::touch_write(Cycle now, LineAddr line, std::uint64_t version)
{
    maybe_epoch(now);
    Entry *e = find(line);
    if (!e)
        return false;
    e->stamp = ++clock_;
    e->version = version;
    e->dirty = true;
    return true;
}

std::uint32_t
ExtSet::max_blocks() const
{
    return compression_ ? budget_ / comp_level_bytes(CompLevel::kHigh) : budget_ / kLineBytes;
}

void
ExtSet::maybe_epoch(Cycle now)
{
    if (!compression_ || now < next_epoch_)
        return;
    while (next_epoch_ <= now)
        next_epoch_ += epoch_cycles_;
    rebalance();
}

void
ExtSet::rebalance()
{
    // Reassign slot allocations proportionally to the demand observed in
    // the finished epoch(s) (§4.3.1). Live entries keep their slots, so a
    // level is never shrunk below its current occupancy — otherwise every
    // insert into an overcommitted level would trigger a chain of
    // evictions.
    const std::uint64_t total_demand = demand_[0] + demand_[1] + demand_[2];
    if (total_demand == 0)
        return;

    const std::uint32_t level_bytes[3] = {comp_level_bytes(CompLevel::kHigh),
                                          comp_level_bytes(CompLevel::kLow), kLineBytes};

    // Bytes already pinned by resident entries.
    std::uint64_t pinned = 0;
    for (std::size_t l = 0; l < 3; ++l)
        pinned += static_cast<std::uint64_t>(used_[l]) * level_bytes[l];
    const std::uint64_t spare = pinned < budget_ ? budget_ - pinned : 0;

    // Distribute the spare bytes by demand share; leftovers become
    // uncompressed slots.
    std::uint64_t remaining = spare;
    for (std::size_t l = 0; l < 2; ++l) {
        const std::uint64_t share = spare * demand_[l] / total_demand;
        const std::uint32_t extra =
            static_cast<std::uint32_t>(std::min<std::uint64_t>(share, remaining) / level_bytes[l]);
        alloc_[l] = used_[l] + extra;
        remaining -= static_cast<std::uint64_t>(extra) * level_bytes[l];
    }
    alloc_[2] = used_[2] + static_cast<std::uint32_t>(remaining / kLineBytes);
    demand_[0] = demand_[1] = demand_[2] = 0;
}

bool
ExtSet::insert(Cycle now, LineAddr line, std::uint64_t version, bool dirty, CompLevel level,
               std::vector<Evicted> &evicted)
{
    maybe_epoch(now);
    if (!compression_)
        level = CompLevel::kUncompressed;
    ++demand_[static_cast<std::size_t>(level)];

    if (Entry *e = find(line)) {
        // Raced refill: refresh in place.
        e->stamp = ++clock_;
        e->version = std::max(e->version, version);
        e->dirty = e->dirty || dirty;
        return true;
    }

    // A block may occupy its own slot size or any larger one.
    auto pick_slot = [&]() -> int {
        for (std::size_t l = static_cast<std::size_t>(level); l < 3; ++l) {
            if (free_slots(l) > 0)
                return static_cast<int>(l);
        }
        return -1;
    };

    int slot = pick_slot();
    while (slot < 0) {
        // Strict global-LRU eviction: evict the stalest entry (whatever
        // slot it holds) until a compatible slot frees. This order is
        // required for the predictor's BF2-swap soundness.
        if (entries_.empty())
            break;
        std::size_t victim = 0;
        for (std::size_t i = 1; i < entries_.size(); ++i) {
            if (entries_[i].stamp < entries_[victim].stamp)
                victim = i;
        }
        const Entry v = entries_[victim];
        remove_at(victim);
        --used_[static_cast<std::size_t>(v.slot_level)];
        if (v.dirty)
            evicted.push_back(Evicted{v.line, v.version, true});
        slot = pick_slot();
    }

    if (slot < 0) {
        // No compatible slot exists under the current allocation: the
        // block bypasses the extended LLC (benign: the predictor's record
        // becomes a future false positive, never a false negative).
        ++bypasses_;
        return false;
    }

    ++used_[static_cast<std::size_t>(slot)];
    ++inserted_[static_cast<std::size_t>(level)];
    entries_.push_back(Entry{line, version, dirty, static_cast<CompLevel>(slot), level, ++clock_});
    tags_.push_back(line);
    ++bucket_count_[bucket(line)];
    return true;
}

// ---------------------------------------------------------------------------
// CacheModeSm

CacheModeSm::CacheModeSm(std::uint32_t sm_id, FabricContext ctx, const ExtLlcParams &params,
                         std::uint64_t rf_bytes, std::uint64_t l1_bytes,
                         const Workload *workload,
                         std::vector<std::unique_ptr<LlcPartition>> *partitions)
    : sm_id_(sm_id), ctx_(ctx), params_(params), workload_(workload), partitions_(partitions),
      issue_port_(ThroughputPort::from_rate(params.issue_width))
{
    const RfLayout rf = rf_layout(rf_bytes, params.rf_warps);
    sets_.reserve(params.total_warps());
    for (std::uint32_t w = 0; w < params.rf_warps; ++w) {
        sets_.emplace_back(static_cast<std::uint32_t>(rf.bytes_per_warp()), params.compression,
                           params.epoch_cycles, ExtStorage::kRegisterFile);
    }
    const std::uint64_t l1_cap = l1_ext_capacity(l1_bytes);
    for (std::uint32_t w = 0; w < params.l1_warps; ++w) {
        // The L1 slice is hardware managed: no kernel-side compression
        // (paper footnote 4).
        sets_.emplace_back(static_cast<std::uint32_t>(l1_cap / params.l1_warps), false,
                           params.epoch_cycles, ExtStorage::kL1);
    }
    const std::uint64_t smem_cap = smem_ext_capacity(l1_bytes);
    for (std::uint32_t w = 0; w < params.smem_warps; ++w) {
        sets_.emplace_back(static_cast<std::uint32_t>(smem_cap / params.smem_warps),
                           params.compression, params.epoch_cycles, ExtStorage::kSharedMemory);
    }
}

std::uint64_t
CacheModeSm::total_capacity_bytes() const
{
    std::uint64_t total = 0;
    for (const auto &ws : sets_)
        total += ws.set.budget_bytes();
    return total;
}

std::uint64_t
CacheModeSm::comp_insertions(CompLevel level) const
{
    std::uint64_t total = 0;
    for (const auto &ws : sets_)
        total += ws.set.insertions(level);
    return total;
}

CompLevel
CacheModeSm::level_of(LineAddr line) const
{
    const Block block = workload_->synthesize_block(line);
    return bdi_compress(block).level;
}

Cycle
CacheModeSm::issue(Cycle when, std::uint32_t instrs)
{
    issue_port_.acquire(when, instrs);
    kernel_instructions_ += instrs;
    ctx_.energy->add_instructions(instrs);
    return issue_port_.next_free();
}

Cycle
CacheModeSm::storage_access(std::uint32_t s, std::uint32_t bytes)
{
    switch (sets_[s].storage) {
      case ExtStorage::kRegisterFile:
        ctx_.energy->add_rf_bytes(bytes);
        return params_.rf_latency;
      case ExtStorage::kSharedMemory:
        ctx_.energy->add_smem_bytes(bytes);
        return params_.smem_latency;
      default:
        ctx_.energy->add_l1_bytes(bytes);
        return params_.l1_latency;
    }
}

void
CacheModeSm::dram_round_trip(Cycle when, std::uint32_t s, Cycle start)
{
    // Kernel-side miss: cache-mode SM -> NoC -> home partition -> DRAM
    // channel -> NoC -> cache-mode SM, bypassing the conventional LLC.
    // The return transfer is reserved by an event at fetch completion so
    // that port reservations stay monotonic in time.
    auto &parts = *partitions_;
    const LineAddr line = sets_[s].queue.front().req.line;
    const std::uint32_t p = partition_of(line, static_cast<std::uint32_t>(parts.size()));
    ctx_.energy->add_noc_bytes(ctx_.noc->params().header_bytes);
    const Cycle at_partition = ctx_.noc->sm_to_partition(when, sm_id_, p, 0);
    const Cycle fetched = parts[p]->dram_fetch(at_partition, line);
    ctx_.eq->schedule(fetched, [this, p, s, start] {
        ctx_.energy->add_noc_bytes(kLineBytes + ctx_.noc->params().header_bytes);
        const Cycle data_at_sm =
            ctx_.noc->partition_to_sm(ctx_.eq->now(), p, sm_id_, kLineBytes);
        ctx_.eq->schedule(data_at_sm, [this, s, start] { service_miss_fill(s, start); });
    });
}

void
CacheModeSm::writeback(Cycle when, LineAddr line, std::uint64_t version)
{
    auto &parts = *partitions_;
    const std::uint32_t p = partition_of(line, static_cast<std::uint32_t>(parts.size()));
    ctx_.energy->add_noc_bytes(kLineBytes + ctx_.noc->params().header_bytes);
    const Cycle at_partition = ctx_.noc->sm_to_partition(when, sm_id_, p, kLineBytes);
    parts[p]->dram_writeback(at_partition, line, version);
}

void
CacheModeSm::enqueue_request(Cycle ready, std::uint32_t s, const MemRequest &req, ExtDone done)
{
    WarpSet &ws = sets_[s];

    // Same-line read coalescing in the request queue (the query logic
    // already tracks per-request line addresses): bursts of reads to one
    // hot line are served by a single warp pass, mirroring the MSHR
    // merging that conventional LLC misses enjoy. The head-of-queue task
    // is skipped when busy: it may already be mid-service.
    if (req.type == AccessType::kRead) {
        const std::size_t first = ws.head_active ? 1 : 0;
        for (std::size_t i = ws.queue.size(); i > first; --i) {
            Task &t = ws.queue[i - 1];
            if (!t.is_insert && t.req.line == req.line && t.req.type == AccessType::kRead) {
                t.merged.push_back(std::move(done));
                ++merged_requests_;
                return;
            }
        }
    }

    Task task;
    task.is_insert = false;
    task.req = req;
    task.done = std::move(done);
    task.ready = ready;
    ws.queue.push_back(std::move(task));
    ++ws.tasks;
    if (!ws.busy) {
        ws.busy = true;
        ctx_.eq->schedule(ready, [this, s] { service(ctx_.eq->now(), s); });
    }
}

void
CacheModeSm::enqueue_insert(Cycle ready, std::uint32_t s, LineAddr line, std::uint64_t version,
                            bool dirty)
{
    Task task;
    task.is_insert = true;
    task.req.line = line;
    task.version = version;
    task.dirty = dirty;
    task.ready = ready;
    sets_[s].queue.push_back(std::move(task));
    ++sets_[s].tasks;
    if (!sets_[s].busy) {
        sets_[s].busy = true;
        ctx_.eq->schedule(ready, [this, s] { service(ctx_.eq->now(), s); });
    }
}

void
CacheModeSm::finish_task(Cycle when, std::uint32_t s)
{
    WarpSet &ws = sets_[s];
    ws.busy_cycles += when > ws.service_began ? when - ws.service_began : 0;
    ws.head_active = false;
    ws.queue.pop_front();
    if (ws.queue.empty()) {
        ws.busy = false;
        return;
    }
    const Cycle next = std::max(when, ws.queue.front().ready);
    ctx_.eq->schedule(next, [this, s] { service(ctx_.eq->now(), s); });
}

Cycle
CacheModeSm::dequeue_transfer(Cycle when, const Task &task)
{
    // The controller de-queues the task now that the warp is free and
    // ships it over the NoC (writes and insertions carry the block).
    const std::uint32_t payload =
        (task.is_insert || task.req.type == AccessType::kWrite) ? kLineBytes : 0;
    const std::uint32_t p =
        partition_of(task.req.line, static_cast<std::uint32_t>(partitions_->size()));
    ctx_.energy->add_noc_bytes(payload + ctx_.noc->params().header_bytes);
    return ctx_.noc->partition_to_sm(when, p, sm_id_, payload);
}

void
CacheModeSm::service(Cycle when, std::uint32_t s)
{
    WarpSet &ws = sets_[s];
    assert(!ws.queue.empty());
    Task &task = ws.queue.front();

    queue_wait_.add(static_cast<double>(std::max(when, task.ready) - task.ready));
    queue_depth_.add(static_cast<double>(ws.queue.size()));
    ws.head_active = true;
    ws.service_began = std::max(when, task.ready);
    const Cycle start = dequeue_transfer(std::max(when, task.ready), task);
    transfer_time_.add(static_cast<double>(start - std::max(when, task.ready)));

    evicted_scratch_.clear();

    if (task.is_insert) {
        // Predicted-miss insertion: compress (optionally) and install.
        ++insert_tasks_;
        std::uint32_t instrs = params_.evict_instrs + params_.data_move_instrs(ws.storage);
        CompLevel level = CompLevel::kUncompressed;
        if (params_.compression && ws.storage != ExtStorage::kL1) {
            level = level_of(task.req.line);
            instrs += params_.compress_instrs;
        }
        // The issue port is reserved at event time (reservations must be
        // monotonic); the block transfer overlaps the instruction work.
        Cycle t = std::max(issue(when, instrs), start);
        t += storage_access(s, kLineBytes);
        const bool installed =
            ws.set.insert(t, task.req.line, task.version, task.dirty, level, evicted_scratch_);
        for (const auto &ev : evicted_scratch_)
            writeback(t, ev.line, ev.version);
        // A dirty block that bypasses the set (no compatible slot) holds
        // the only up-to-date copy of the data: it must reach memory, or a
        // later fetch would observe the stale pre-write version.
        if (!installed && task.dirty)
            writeback(t, task.req.line, task.version);
        service_time_.add(static_cast<double>(t - start));
        finish_task(t, s);
        return;
    }

    // Request path (predicted hit): software tag lookup, then serve.
    ++served_;
    const MemRequest &req = task.req;
    // Port reservations happen at event time. The tag lookup needs only
    // the request header, so it resolves as soon as the instructions
    // issue; the fixed software overhead (status-table polling,
    // data-buffer accesses) keeps this warp busy through `t` but does
    // NOT gate a miss's DRAM fetch — the polling overlaps the round
    // trip, which is what keeps false-positive misses near the
    // conventional miss latency while hits carry the full handshake.
    const Cycle lookup = std::max(issue(when, params_.tag_lookup_instrs), start);
    Cycle t = std::max(lookup, start + params_.service_overhead);

    std::uint64_t version = 0;
    CompLevel level = CompLevel::kUncompressed;
    bool hit = false;
    switch (req.type) {
      case AccessType::kRead:
        hit = ws.set.touch_read(t, req.line, version, level);
        break;
      case AccessType::kWrite:
      case AccessType::kAtomic:
        // Atomics read-modify-write; plain writes overwrite. Either way
        // the resulting version is the requester's (globally ordered).
        hit = ws.set.touch_read(t, req.line, version, level);
        if (hit) {
            version = std::max(version, req.write_version);
            ws.set.touch_write(t, req.line, version);
        }
        break;
    }

    if (hit) {
        std::uint32_t instrs = params_.data_move_instrs(ws.storage) + params_.respond_instrs;
        if (req.type == AccessType::kAtomic)
            instrs += params_.atomic_instrs;
        if (params_.compression && ws.storage != ExtStorage::kL1) {
            if (level == CompLevel::kHigh)
                instrs += params_.decompress_high_instrs;
            else if (level == CompLevel::kLow)
                instrs += params_.decompress_low_instrs;
        }
        t = std::max(issue(when, instrs), t);
        t += storage_access(s, kLineBytes);
        service_time_.add(static_cast<double>(t - start));
        complete_task(t, s, version, true);
        return;
    }

    // Actual miss (predictor false positive, or No-Prediction mode):
    // fetch from DRAM, install, respond (§4.2.1 "Handling Extended LLC
    // Misses"). The fetch is initiated by a scheduled event so that all
    // NoC/DRAM reservations happen at monotonic event times; it launches
    // at lookup time, not `t` — the service handshake overlaps the round
    // trip rather than preceding it.
    ctx_.eq->schedule(lookup,
                      [this, s, start] { dram_round_trip(ctx_.eq->now(), s, start); });
}

void
CacheModeSm::service_miss_fill(std::uint32_t s, Cycle start)
{
    WarpSet &ws = sets_[s];
    Task &task = ws.queue.front();
    const MemRequest &req = task.req;
    const Cycle now = ctx_.eq->now();

    const std::uint64_t mem_version = ctx_.store->read(req.line);
    std::uint64_t version = mem_version;
    bool dirty = false;
    if (req.type != AccessType::kRead) {
        version = std::max(mem_version, req.write_version);
        dirty = true;
    }

    std::uint32_t instrs = params_.evict_instrs + params_.data_move_instrs(ws.storage) +
                           params_.respond_instrs;
    CompLevel ins_level = CompLevel::kUncompressed;
    if (params_.compression && ws.storage != ExtStorage::kL1) {
        ins_level = level_of(req.line);
        instrs += params_.compress_instrs;
    }
    if (req.type == AccessType::kAtomic)
        instrs += params_.atomic_instrs;

    Cycle t2 = issue(now, instrs);
    t2 += storage_access(s, kLineBytes);
    evicted_scratch_.clear();
    const bool installed = ws.set.insert(t2, req.line, version, dirty, ins_level, evicted_scratch_);
    for (const auto &ev : evicted_scratch_)
        writeback(t2, ev.line, ev.version);
    // Same staleness hazard as the insert-task path: a bypassed dirty
    // block must still be written back.
    if (!installed && dirty)
        writeback(t2, req.line, version);

    service_time_.add(static_cast<double>(t2 - start));
    complete_task(t2, s, version, false);
}

void
CacheModeSm::complete_task(Cycle when, std::uint32_t s, std::uint64_t version, bool hit)
{
    // The completion callback runs as an event at @p when so that the
    // controller's response-leg NoC reservation happens at event time.
    WarpSet &ws = sets_[s];
    Task &task = ws.queue.front();
    // Hits and misses count per requester (merged readers included), the
    // same per-request semantics as the conventional LLC; this keeps the
    // controller-side identity predicted_hits == hits + false positives.
    (hit ? hits_ : misses_) += 1 + task.merged.size();
    if (task.done) {
        ctx_.eq->schedule(when, [done = std::move(task.done), when, version, hit] {
            done(when, version, hit);
        });
    }
    for (auto &merged : task.merged) {
        ctx_.eq->schedule(when, [done = std::move(merged), when, version, hit] {
            done(when, version, hit);
        });
    }
    finish_task(when, s);
}

} // namespace morpheus
