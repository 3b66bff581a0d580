#include "hetmem/simmem/exec.hpp"

#include <algorithm>
#include <cassert>
#include <thread>

namespace hetmem::sim {

PhaseResult resolve_phase(const SimMachine& machine,
                          const support::Bitmap& initiator,
                          std::vector<ThreadCtx*> contexts, std::string name) {
  ResolveScratch scratch;
  PhaseResult result;
  result.name = std::move(name);
  resolve_phase_into(machine, initiator, contexts, scratch, result);
  return result;
}

void resolve_phase_into(const SimMachine& machine,
                        const support::Bitmap& initiator,
                        std::span<ThreadCtx* const> contexts,
                        ResolveScratch& scratch, PhaseResult& result) {
  const std::size_t node_count = machine.topology().numa_nodes().size();
  result.nodes.assign(node_count, NodePhaseStats{});

  // Per-node working set: unique touched buffers, grouped by current node.
  // Integer sums, so the visiting order does not matter.
  std::vector<std::uint8_t>& seen = scratch.buffer_seen;
  for (const ThreadCtx* ctx : contexts) {
    for (std::uint32_t index : ctx->touched_buffers()) {
      if (seen.size() <= index) seen.resize(index + 1, 0);
      if (seen[index] != 0) continue;
      seen[index] = 1;
      const BufferResidency residency = machine.residency(BufferId{index});
      if (!residency.freed) {
        result.nodes[residency.node].working_set_bytes +=
            residency.declared_bytes;
      }
    }
  }
  for (const ThreadCtx* ctx : contexts) {
    for (std::uint32_t index : ctx->touched_buffers()) seen[index] = 0;
  }

  // Whether a given worker is local to a node: its own binding when set
  // (multi-socket runs bind ranks to different localities), else the
  // context-wide initiator.
  auto thread_local_to = [&](const ThreadCtx* ctx, std::size_t n) {
    const support::Bitmap& binding =
        ctx->locality().empty() ? initiator : ctx->locality();
    const topo::Object* node = machine.topology().numa_nodes()[n];
    return !binding.empty() && binding.is_subset_of(node->cpuset());
  };

  // Aggregate traffic (split local/remote per node) and count active
  // threads per node.
  std::vector<unsigned>& active_threads = scratch.active_threads;
  std::vector<double>& remote_read_bytes = scratch.remote_read_bytes;
  std::vector<double>& remote_write_bytes = scratch.remote_write_bytes;
  active_threads.assign(node_count, 0);
  remote_read_bytes.assign(node_count, 0.0);
  remote_write_bytes.assign(node_count, 0.0);
  for (const ThreadCtx* ctx : contexts) {
    const auto& per_node = ctx->node_traffic();
    for (std::size_t n = 0; n < node_count; ++n) {
      if (!per_node[n].any()) continue;
      ++active_threads[n];
      result.nodes[n].read_bytes += per_node[n].total_read_bytes();
      result.nodes[n].write_bytes += per_node[n].total_write_bytes();
      result.nodes[n].rand_accesses +=
          per_node[n].rand_read_accesses + per_node[n].rand_write_accesses;
      if (!thread_local_to(ctx, n)) {
        remote_read_bytes[n] += per_node[n].total_read_bytes();
        remote_write_bytes[n] += per_node[n].total_write_bytes();
      }
    }
  }

  // Effective node constants for this phase, both locality classes.
  std::vector<EffectiveNodePerf>& eff_local = scratch.eff_local;
  std::vector<EffectiveNodePerf>& eff_remote = scratch.eff_remote;
  eff_local.resize(node_count);
  eff_remote.resize(node_count);
  for (std::size_t n = 0; n < node_count; ++n) {
    const std::uint64_t ws = result.nodes[n].working_set_bytes;
    eff_local[n] =
        machine.perf_model().effective(static_cast<unsigned>(n), ws, true);
    eff_remote[n] =
        machine.perf_model().effective(static_cast<unsigned>(n), ws, false);
  }

  // Pass 1: bandwidth times and provisional phase length with idle latency.
  // Local and remote shares each move at their class's rate (serialized —
  // the controller serves both streams).
  auto node_bandwidth_time = [&](std::size_t n) {
    const NodePhaseStats& stats = result.nodes[n];
    if (stats.read_bytes + stats.write_bytes <= 0.0) return 0.0;
    const double threads = std::max(1u, active_threads[n]);
    auto class_time = [&](double bytes, double peak, double per_thread) {
      if (bytes <= 0.0) return 0.0;
      return bytes / std::min(peak, threads * per_thread) * 1e9;
    };
    double t = 0.0;
    t += class_time(stats.read_bytes - remote_read_bytes[n],
                    eff_local[n].read_bw, eff_local[n].per_thread_read_bw);
    t += class_time(remote_read_bytes[n], eff_remote[n].read_bw,
                    eff_remote[n].per_thread_read_bw);
    t += class_time(stats.write_bytes - remote_write_bytes[n],
                    eff_local[n].write_bw, eff_local[n].per_thread_write_bw);
    t += class_time(remote_write_bytes[n], eff_remote[n].write_bw,
                    eff_remote[n].per_thread_write_bw);
    return t;
  };

  // Latency per node with a load multiplier applied to both classes.
  std::vector<double>& load_multiplier = scratch.load_multiplier;
  load_multiplier.assign(node_count, 1.0);
  auto thread_time = [&](const ThreadCtx* ctx) {
    double t = ctx->compute_ns();
    const auto& per_node = ctx->node_traffic();
    for (std::size_t n = 0; n < node_count; ++n) {
      const double accesses =
          per_node[n].rand_read_accesses + per_node[n].rand_write_accesses;
      if (accesses > 0.0) {
        const double base = thread_local_to(ctx, n) ? eff_local[n].latency_ns
                                                    : eff_remote[n].latency_ns;
        t += accesses * base * load_multiplier[n] / ctx->mlp();
      }
    }
    return t;
  };

  double bw_max = 0.0;
  for (std::size_t n = 0; n < node_count; ++n) {
    result.nodes[n].bandwidth_time_ns = node_bandwidth_time(n);
    bw_max = std::max(bw_max, result.nodes[n].bandwidth_time_ns);
  }
  double lat_max = 0.0;
  double compute_max = 0.0;
  for (const ThreadCtx* ctx : contexts) {
    lat_max = std::max(lat_max, thread_time(ctx));
    compute_max = std::max(compute_max, ctx->compute_ns());
  }
  double provisional = std::max(bw_max, lat_max);

  // Pass 2: loaded-latency refinement from utilization over the provisional
  // phase length (single fixed iteration; keeps the resolver deterministic).
  if (provisional > 0.0) {
    for (std::size_t n = 0; n < node_count; ++n) {
      const NodePhaseStats& stats = result.nodes[n];
      if (stats.read_bytes + stats.write_bytes <= 0.0) continue;
      // Fraction of the phase this node's bandwidth was busy.
      const double utilization =
          std::min(1.0, stats.bandwidth_time_ns / provisional);
      result.nodes[n].utilization = utilization;
      const double k = machine.perf_model().node(static_cast<unsigned>(n)).loaded_latency_k;
      load_multiplier[n] = 1.0 + k * utilization * utilization;
    }
    lat_max = 0.0;
    for (const ThreadCtx* ctx : contexts) {
      lat_max = std::max(lat_max, thread_time(ctx));
    }
  }

  // Per-node stall attribution for the profiler (thread-ns summed).
  for (const ThreadCtx* ctx : contexts) {
    const auto& per_node = ctx->node_traffic();
    for (std::size_t n = 0; n < node_count; ++n) {
      const double accesses =
          per_node[n].rand_read_accesses + per_node[n].rand_write_accesses;
      if (accesses > 0.0) {
        const double base = thread_local_to(ctx, n) ? eff_local[n].latency_ns
                                                    : eff_remote[n].latency_ns;
        result.nodes[n].latency_stall_ns +=
            accesses * base * load_multiplier[n] / ctx->mlp();
      }
    }
  }

  result.bandwidth_time_ns_max = bw_max;
  result.latency_time_ns_max = lat_max;
  result.compute_ns_max = compute_max;
  result.sim_ns = std::max(bw_max, lat_max);
}

ExecutionContext::ExecutionContext(SimMachine& machine, support::Bitmap initiator,
                                   unsigned thread_count)
    : machine_(&machine), initiator_(std::move(initiator)) {
  assert(thread_count >= 1);
  const std::size_t node_count = machine.topology().numa_nodes().size();
  contexts_.reserve(thread_count);
  raw_contexts_.reserve(thread_count);
  rings_.reserve(thread_count);
  latest_.resize(thread_count);
  for (unsigned i = 0; i < thread_count; ++i) {
    contexts_.push_back(std::make_unique<ThreadCtx>(node_count));
    raw_contexts_.push_back(contexts_.back().get());
    rings_.push_back(std::make_unique<TelemetryRing>());
  }
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  pool_ = std::make_unique<support::ThreadPool>(std::min(thread_count, hw));
}

void ExecutionContext::set_telemetry_mode(TelemetryMode mode) {
  assert(history_.empty() && "telemetry mode must be set before any phase");
  telemetry_mode_ = mode;
}

void ExecutionContext::set_mlp(double mlp) {
  for (auto& ctx : contexts_) ctx->set_mlp(mlp);
}

support::Status ExecutionContext::set_thread_localities(
    const std::vector<support::Bitmap>& localities) {
  if (localities.size() != contexts_.size()) {
    return support::make_error(support::Errc::kInvalidArgument,
                               "need one locality per simulated thread");
  }
  for (std::size_t i = 0; i < localities.size(); ++i) {
    contexts_[i]->set_locality(localities[i]);
  }
  return {};
}

const PhaseResult& ExecutionContext::run_phase(std::string name, std::size_t items,
                                               const PhaseBody& body) {
  for (auto& ctx : contexts_) ctx->reset_phase();

  // Simulated threads are distributed over the (possibly smaller) pool:
  // each pool worker runs a contiguous range of simulated threads, each
  // simulated thread a contiguous slice of the items.
  const unsigned sim_threads = thread_count();
  const bool publish_rings = telemetry_mode_ == TelemetryMode::kRings;
  pool_->parallel_for(
      sim_threads, [&](std::size_t, std::size_t first_sim, std::size_t last_sim) {
        for (std::size_t sim = first_sim; sim < last_sim; ++sim) {
          const std::size_t base = items / sim_threads;
          const std::size_t extra = items % sim_threads;
          const std::size_t begin = sim * base + std::min(sim, static_cast<std::size_t>(extra));
          const std::size_t end = begin + base + (sim < extra ? 1 : 0);
          body(*contexts_[sim], static_cast<unsigned>(sim), begin, end);
          if (publish_rings) {
            // Publish this thread's updated cumulative counters for every
            // buffer it touched this phase — the only telemetry hand-off;
            // nothing here is shared with other producers. On a full ring,
            // stop and flag: the drain recovers the rest from the thread's
            // counters directly.
            ThreadCtx& ctx = *contexts_[sim];
            TelemetryRing& ring = *rings_[sim];
            const auto& cumulative = ctx.buffer_traffic();
            for (std::uint32_t buffer : ctx.touched_buffers()) {
              if (!ring.try_push({buffer, cumulative[buffer]})) {
                ring.note_overflow();
                break;
              }
            }
          }
        }
      });

  const std::size_t resolved = history_.size();
  PhaseResult& phase = history_.emplace_back();
  phase.name = std::move(name);
  resolve_phase_into(*machine_, initiator_, raw_contexts_, resolve_scratch_,
                     phase);
  clock_ns_ += phase.sim_ns;
  // Fold the phase's traffic into the machine's power telemetry before the
  // observer runs, so an epoch hook firing from the observer sees draw that
  // already includes this phase (docs/POWER.md).
  if (phase.sim_ns > 0.0) {
    node_bytes_scratch_.resize(phase.nodes.size() * 2);
    std::uint64_t* reads = node_bytes_scratch_.data();
    std::uint64_t* writes = reads + phase.nodes.size();
    for (std::size_t n = 0; n < phase.nodes.size(); ++n) {
      reads[n] = static_cast<std::uint64_t>(phase.nodes[n].read_bytes);
      writes[n] = static_cast<std::uint64_t>(phase.nodes[n].write_bytes);
    }
    machine_->record_node_traffic_batch(reads, writes, phase.nodes.size(),
                                        phase.sim_ns);
  }
  // The observer runs after the clock advance so it sees a consistent view;
  // it may migrate buffers and charge_overhead_ns(), but must not recurse
  // into run_phase. Index-based access: the observer must not grow history_.
  if (phase_observer_) phase_observer_(history_[resolved]);
  return history_[resolved];
}

std::vector<BufferTraffic> ExecutionContext::merged_buffer_traffic() const {
  if (telemetry_mode_ == TelemetryMode::kRings) {
    drain_telemetry();
    return merged_;
  }
  std::vector<BufferTraffic> merged;
  for (const auto& ctx : contexts_) {
    const auto& per_buffer = ctx->buffer_traffic();
    if (merged.size() < per_buffer.size()) merged.resize(per_buffer.size());
    for (std::size_t i = 0; i < per_buffer.size(); ++i) {
      merged[i].reads += per_buffer[i].reads;
      merged[i].writes += per_buffer[i].writes;
      merged[i].llc_misses += per_buffer[i].llc_misses;
      merged[i].memory_bytes += per_buffer[i].memory_bytes;
      merged[i].random_accesses += per_buffer[i].random_accesses;
      merged[i].random_misses += per_buffer[i].random_misses;
    }
  }
  return merged;
}

namespace {

/// The six-field add every merge path uses; starting from zero-initialized
/// accumulators and adding in ascending thread order keeps the result
/// bit-identical across the ring and legacy paths (adding 0.0 to a
/// non-negative counter preserves its bits).
void add_traffic(BufferTraffic& into, const BufferTraffic& from) {
  into.reads += from.reads;
  into.writes += from.writes;
  into.llc_misses += from.llc_misses;
  into.memory_bytes += from.memory_bytes;
  into.random_accesses += from.random_accesses;
  into.random_misses += from.random_misses;
}

bool traffic_equal_bits(const BufferTraffic& a, const BufferTraffic& b) {
  return a.reads == b.reads && a.writes == b.writes &&
         a.llc_misses == b.llc_misses && a.memory_bytes == b.memory_bytes &&
         a.random_accesses == b.random_accesses &&
         a.random_misses == b.random_misses;
}

}  // namespace

void ExecutionContext::drain_telemetry() const {
  drain_scratch_.clear();
  auto mark_dirty = [&](std::uint32_t buffer) {
    if (dirty_mark_.size() <= buffer) dirty_mark_.resize(buffer + 1, 0);
    if (dirty_mark_[buffer]) return;
    dirty_mark_[buffer] = 1;
    drain_scratch_.push_back(buffer);
  };

  for (std::size_t t = 0; t < contexts_.size(); ++t) {
    TelemetryRing& ring = *rings_[t];
    std::vector<BufferTraffic>& shadow = latest_[t];
    TelemetryRecord chunk[128];
    for (std::size_t popped = ring.pop_batch(chunk, 128); popped > 0;
         popped = ring.pop_batch(chunk, 128)) {
      for (std::size_t index = 0; index < popped; ++index) {
        const TelemetryRecord& record = chunk[index];
        if (shadow.size() <= record.buffer) shadow.resize(record.buffer + 1);
        shadow[record.buffer] = record.cumulative;
        mark_dirty(record.buffer);
      }
    }
    if (ring.consume_overflow()) {
      // The ring filled mid-phase; the workers are quiescent now, so read
      // the thread's cumulative counters directly and dirty whatever moved.
      const auto& full = contexts_[t]->buffer_traffic();
      if (shadow.size() < full.size()) shadow.resize(full.size());
      for (std::uint32_t b = 0; b < full.size(); ++b) {
        if (!traffic_equal_bits(shadow[b], full[b])) {
          shadow[b] = full[b];
          mark_dirty(b);
        }
      }
    }
  }

  for (std::uint32_t buffer : drain_scratch_) {
    BufferTraffic sum;
    for (const std::vector<BufferTraffic>& shadow : latest_) {
      if (buffer < shadow.size()) add_traffic(sum, shadow[buffer]);
    }
    if (merged_.size() <= buffer) merged_.resize(buffer + 1);
    merged_[buffer] = sum;
    dirty_journal_.push_back(buffer);
    dirty_mark_[buffer] = 0;
  }
}

void ExecutionContext::read_traffic_deltas(TelemetryReader& reader,
                                           const DeltaFn& fn) const {
  if (telemetry_mode_ == TelemetryMode::kLegacyMerge) {
    // Baseline path: full merge, full-range diff — exactly what the
    // pre-ring sampler did every epoch.
    const std::vector<BufferTraffic> merged = merged_buffer_traffic();
    if (reader.snapshot_.size() < merged.size()) {
      reader.snapshot_.resize(merged.size());
    }
    for (std::uint32_t index = 0; index < merged.size(); ++index) {
      const BufferTraffic& now = merged[index];
      const BufferTraffic& then = reader.snapshot_[index];
      BufferTraffic delta;
      delta.reads = now.reads - then.reads;
      delta.writes = now.writes - then.writes;
      delta.llc_misses = now.llc_misses - then.llc_misses;
      delta.memory_bytes = now.memory_bytes - then.memory_bytes;
      delta.random_accesses = now.random_accesses - then.random_accesses;
      delta.random_misses = now.random_misses - then.random_misses;
      const bool any = delta.reads > 0.0 || delta.writes > 0.0 ||
                       delta.memory_bytes > 0.0;
      if (!any) continue;
      reader.snapshot_[index] = now;
      fn(index, delta);
    }
    return;
  }

  drain_telemetry();
  // Journal entries since this reader's cursor, ascending and unique: the
  // sampler emits samples in ascending buffer order, so the sparse path
  // must too.
  read_scratch_.assign(dirty_journal_.begin() +
                           static_cast<std::ptrdiff_t>(reader.journal_cursor_),
                       dirty_journal_.end());
  reader.journal_cursor_ = dirty_journal_.size();
  std::sort(read_scratch_.begin(), read_scratch_.end());
  read_scratch_.erase(std::unique(read_scratch_.begin(), read_scratch_.end()),
                      read_scratch_.end());
  for (std::uint32_t index : read_scratch_) {
    if (reader.snapshot_.size() <= index) reader.snapshot_.resize(index + 1);
    const BufferTraffic& now = merged_[index];
    const BufferTraffic& then = reader.snapshot_[index];
    BufferTraffic delta;
    delta.reads = now.reads - then.reads;
    delta.writes = now.writes - then.writes;
    delta.llc_misses = now.llc_misses - then.llc_misses;
    delta.memory_bytes = now.memory_bytes - then.memory_bytes;
    delta.random_accesses = now.random_accesses - then.random_accesses;
    delta.random_misses = now.random_misses - then.random_misses;
    const bool any = delta.reads > 0.0 || delta.writes > 0.0 ||
                     delta.memory_bytes > 0.0;
    if (!any) continue;  // duplicate journal entry or below-threshold churn
    reader.snapshot_[index] = now;
    fn(index, delta);
  }
}

}  // namespace hetmem::sim
