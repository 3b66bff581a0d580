#include "hetmem/simmem/exec.hpp"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <thread>

namespace hetmem::sim {

namespace {

/// Ids start at 1 so a fresh TelemetryReader (id 0) never matches a context.
std::uint64_t next_context_id() {
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

/// The six-field add every merge uses. Summing threads in ascending order
/// from zero-initialized accumulators makes the full merge and an epoch
/// read's per-buffer sum the same additions, so both give the same bits.
void add_traffic(BufferTraffic& into, const BufferTraffic& from) {
  into.reads += from.reads;
  into.writes += from.writes;
  into.llc_misses += from.llc_misses;
  into.memory_bytes += from.memory_bytes;
  into.random_accesses += from.random_accesses;
  into.random_misses += from.random_misses;
}

}  // namespace

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
  // A slot is marked only once a live buffer on it counted: a thread that
  // touched the slot's dead predecessor must not hide the live one.
  std::vector<std::uint8_t>& seen = scratch.buffer_seen;
  for (const ThreadCtx* ctx : contexts) {
    for (std::uint32_t index : ctx->touched_buffers()) {
      if (seen.size() <= index) seen.resize(index + 1, 0);
      if (seen[index] != 0) continue;
      const BufferResidency residency =
          machine.residency(ctx->buffer_id(index));
      if (residency.freed) continue;
      seen[index] = 1;
      result.nodes[residency.node].working_set_bytes +=
          residency.declared_bytes;
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
    : id_(next_context_id()), machine_(&machine),
      initiator_(std::move(initiator)) {
  assert(thread_count >= 1);
  const std::size_t node_count = machine.topology().numa_nodes().size();
  contexts_.reserve(thread_count);
  raw_contexts_.reserve(thread_count);
  for (unsigned i = 0; i < thread_count; ++i) {
    contexts_.push_back(std::make_unique<ThreadCtx>(node_count));
    raw_contexts_.push_back(contexts_.back().get());
  }
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  pool_ = std::make_unique<support::ThreadPool>(std::min(thread_count, hw));
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
  pool_->parallel_for(
      sim_threads, [&](std::size_t, std::size_t first_sim, std::size_t last_sim) {
        for (std::size_t sim = first_sim; sim < last_sim; ++sim) {
          const std::size_t base = items / sim_threads;
          const std::size_t extra = items % sim_threads;
          const std::size_t begin = sim * base + std::min(sim, static_cast<std::size_t>(extra));
          const std::size_t end = begin + base + (sim < extra ? 1 : 0);
          body(*contexts_[sim], static_cast<unsigned>(sim), begin, end);
        }
      });

  // The pool has joined the workers: journal the buffers this phase touched,
  // skipping any already journaled since the last read.
  for (const auto& ctx : contexts_) {
    for (std::uint32_t buffer : ctx->touched_buffers()) {
      if (journaled_at_.size() <= buffer) journaled_at_.resize(buffer + 1, 0);
      if (journaled_at_[buffer] > journal_read_end_) continue;
      dirty_journal_.push_back(buffer);
      journaled_at_[buffer] = dirty_journal_.size();
    }
  }

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
  std::vector<BufferTraffic> merged;
  std::vector<std::uint32_t> generations;
  for (const auto& ctx : contexts_) {
    const auto& per_buffer = ctx->buffer_traffic();
    const auto& per_generation = ctx->buffer_generations();
    if (merged.size() < per_buffer.size()) {
      merged.resize(per_buffer.size());
      generations.resize(per_buffer.size(), 0);
    }
    for (std::size_t i = 0; i < per_buffer.size(); ++i) {
      if (per_generation[i] > generations[i]) {
        merged[i] = BufferTraffic{};
        generations[i] = per_generation[i];
      }
      if (per_generation[i] == generations[i]) {
        add_traffic(merged[i], per_buffer[i]);
      }
    }
  }
  return merged;
}

BufferId ExecutionContext::traffic_buffer(std::uint32_t index) const {
  BufferId buffer{index, 0};
  for (const auto& ctx : contexts_) {
    if (index < ctx->buffer_generations().size()) {
      buffer.generation =
          std::max(buffer.generation, ctx->buffer_generations()[index]);
    }
  }
  return buffer;
}

void ExecutionContext::read_traffic_deltas(TelemetryReader& reader,
                                           const DeltaFn& fn) const {
  if (reader.context_id_ != id_) {
    // A reader moving here from another context starts over, as a fresh
    // reader would: its cursor and snapshot describe that other journal.
    reader.context_id_ = id_;
    reader.snapshot_.clear();
    reader.generations_.clear();
    reader.journal_cursor_ = 0;
  }
  // Journal entries since this reader's cursor, ascending and unique: the
  // sampler emits samples in ascending buffer order.
  read_scratch_.assign(dirty_journal_.begin() +
                           static_cast<std::ptrdiff_t>(reader.journal_cursor_),
                       dirty_journal_.end());
  reader.journal_cursor_ = dirty_journal_.size();
  journal_read_end_ = dirty_journal_.size();
  std::sort(read_scratch_.begin(), read_scratch_.end());
  read_scratch_.erase(std::unique(read_scratch_.begin(), read_scratch_.end()),
                      read_scratch_.end());
  for (std::uint32_t index : read_scratch_) {
    // The newest generation any thread counts at this slot; older entries
    // belong to a dead buffer and count nothing.
    BufferTraffic now;
    std::uint32_t generation = 0;
    for (const auto& ctx : contexts_) {
      const auto& cumulative = ctx->buffer_traffic();
      if (index >= cumulative.size()) continue;
      const std::uint32_t counted = ctx->buffer_generations()[index];
      if (counted > generation) {
        now = BufferTraffic{};
        generation = counted;
      }
      if (counted == generation) add_traffic(now, cumulative[index]);
    }
    if (reader.snapshot_.size() <= index) {
      reader.snapshot_.resize(index + 1);
      reader.generations_.resize(index + 1, 0);
    }
    static const BufferTraffic kNone{};
    const BufferTraffic& then = reader.generations_[index] == generation
                                    ? reader.snapshot_[index]
                                    : kNone;
    BufferTraffic delta;
    delta.reads = now.reads - then.reads;
    delta.writes = now.writes - then.writes;
    delta.llc_misses = now.llc_misses - then.llc_misses;
    delta.memory_bytes = now.memory_bytes - then.memory_bytes;
    delta.random_accesses = now.random_accesses - then.random_accesses;
    delta.random_misses = now.random_misses - then.random_misses;
    const bool any = delta.reads > 0.0 || delta.writes > 0.0 ||
                     delta.memory_bytes > 0.0;
    if (!any) continue;  // touched with no new activity
    reader.snapshot_[index] = now;
    reader.generations_[index] = generation;
    fn(BufferId{index, generation}, delta);
  }
}

}  // namespace hetmem::sim
