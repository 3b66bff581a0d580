// Phase-based workload execution over the simulated machine.
//
// A workload runs as a sequence of parallel *phases*. Within a phase, worker
// threads execute the real algorithm on the backing data while recording
// post-LLC traffic into their ThreadCtx; at the end of the phase the
// PhaseResolver converts traffic into simulated nanoseconds:
//
//   thread_time(t) = compute(t)
//                  + sum_n rand_accesses(t,n) * lat_eff(n) / MLP
//   node_time(n)   = read_bytes(n) / eff_read_bw(n)
//                  + write_bytes(n) / eff_write_bw(n)
//   phase_time     = max( max_t thread_time(t), max_n node_time(n) )
//
// where eff_bw(n) = min(node peak, active_threads * per-thread bw), the
// node constants come from MachinePerfModel::effective() (working-set and
// locality adjusted), and lat_eff includes one loaded-latency refinement
// using the node's bandwidth utilization from a first pass.
//
// Per-buffer traffic stays in each worker's own ThreadCtx. After the pool
// join, run_phase journals the buffers the phase touched; an epoch consumer
// reads its deltas through a TelemetryReader, which sums only the journaled
// buffers' counters over the threads (docs/PERF.md "Telemetry journal").
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "hetmem/simmem/machine.hpp"
#include "hetmem/simmem/traffic.hpp"
#include "hetmem/support/bitmap.hpp"
#include "hetmem/support/thread_pool.hpp"

namespace hetmem::sim {

struct NodePhaseStats {
  double read_bytes = 0.0;
  double write_bytes = 0.0;
  double rand_accesses = 0.0;
  double bandwidth_time_ns = 0.0;
  /// Thread-seconds of dependent-load stall attributed to this node
  /// (summed over threads, after the loaded-latency refinement).
  double latency_stall_ns = 0.0;
  double utilization = 0.0;  // bandwidth demand / capacity over the phase
  std::uint64_t working_set_bytes = 0;
};

struct PhaseResult {
  std::string name;
  double sim_ns = 0.0;
  double compute_ns_max = 0.0;
  double latency_time_ns_max = 0.0;   // max over threads
  double bandwidth_time_ns_max = 0.0; // max over nodes
  std::vector<NodePhaseStats> nodes;
};

/// Pure function: traffic -> time. Exposed separately so tests can probe
/// monotonicity properties without running threads.
PhaseResult resolve_phase(const SimMachine& machine,
                          const support::Bitmap& initiator,
                          std::vector<ThreadCtx*> contexts,
                          std::string name);

/// Working storage resolve_phase_into reuses from call to call. Holds no
/// state between calls that affects a result.
struct ResolveScratch {
  std::vector<std::uint8_t> buffer_seen;  // by buffer index; all 0 between calls
  std::vector<unsigned> active_threads;
  std::vector<double> remote_read_bytes;
  std::vector<double> remote_write_bytes;
  std::vector<double> load_multiplier;
  std::vector<EffectiveNodePerf> eff_local;
  std::vector<EffectiveNodePerf> eff_remote;
};

/// resolve_phase into caller-owned storage: fills every field of `result`
/// but its name. Bit-identical to resolve_phase, and allocates nothing once
/// `scratch` has seen the machine's buffer count and `result.nodes` its
/// node count (ExecutionContext keeps one scratch per context).
void resolve_phase_into(const SimMachine& machine,
                        const support::Bitmap& initiator,
                        std::span<ThreadCtx* const> contexts,
                        ResolveScratch& scratch, PhaseResult& result);

/// Per-consumer cursor into an ExecutionContext's traffic journal: the
/// context it last read, the journal position it has processed there and
/// the merged counters it last emitted per buffer. Each consumer (sampler,
/// recorder, ...) owns one, so independent epoch cadences never share diff
/// state. A fresh reader, or one that last read another context, starts at
/// the beginning of the journal with a zero snapshot and so observes the
/// full cumulative traffic as its first delta.
class TelemetryReader {
 public:
  TelemetryReader() = default;

 private:
  friend class ExecutionContext;
  std::uint64_t context_id_ = 0;  // no context has id 0
  std::vector<BufferTraffic> snapshot_;
  std::size_t journal_cursor_ = 0;
};

class ExecutionContext {
 public:
  /// `initiator`: cpuset the workers are bound to (decides local vs remote
  /// access costs). `thread_count`: simulated ranks/threads; real OS threads
  /// are capped by the pool but counters are per simulated thread.
  ExecutionContext(SimMachine& machine, support::Bitmap initiator,
                   unsigned thread_count);

  [[nodiscard]] unsigned thread_count() const {
    return static_cast<unsigned>(contexts_.size());
  }
  [[nodiscard]] const support::Bitmap& initiator() const { return initiator_; }
  [[nodiscard]] SimMachine& machine() { return *machine_; }
  [[nodiscard]] const SimMachine& machine() const { return *machine_; }

  /// Memory-level parallelism applied to all workers' dependent accesses.
  void set_mlp(double mlp);

  /// Binds each simulated thread to its own locality (multi-socket runs:
  /// pair with topo::distribute). Must provide exactly thread_count()
  /// cpusets; local-vs-remote is then decided per worker instead of from
  /// the context-wide initiator.
  support::Status set_thread_localities(
      const std::vector<support::Bitmap>& localities);

  using PhaseBody =
      std::function<void(ThreadCtx&, unsigned thread, std::size_t begin,
                         std::size_t end)>;

  /// Runs `body` over [0, items) split across simulated threads, resolves
  /// the traffic and advances the simulated clock. Returns this phase's
  /// result (also appended to history()).
  const PhaseResult& run_phase(std::string name, std::size_t items,
                               const PhaseBody& body);

  /// Total simulated time so far.
  [[nodiscard]] double clock_ns() const { return clock_ns_; }
  [[nodiscard]] const std::vector<PhaseResult>& history() const { return history_; }

  /// Called after every run_phase() resolves and the clock has advanced —
  /// the hook the online runtime (runtime::RuntimePolicy) attaches to.
  /// The observer must not start phases on this context. Replacing the
  /// observer is allowed; an empty function detaches.
  using PhaseObserver = std::function<void(const PhaseResult&)>;
  void set_phase_observer(PhaseObserver observer) {
    phase_observer_ = std::move(observer);
  }

  /// Adds out-of-phase simulated time to the clock — e.g. the cost of a
  /// mid-run migration, which happens between phases and so is never
  /// accounted by resolve_phase().
  void charge_overhead_ns(double ns) {
    if (ns > 0.0) clock_ns_ += ns;
  }

  /// Cumulative per-buffer traffic merged across all workers (for prof::
  /// and alloc::advise_migrations): every thread's counters summed in
  /// ascending thread order, O(threads x buffers) per call.
  [[nodiscard]] std::vector<BufferTraffic> merged_buffer_traffic() const;

  /// Streams the cumulative-traffic deltas since `reader` last read, in
  /// ascending buffer-index order, to `fn(buffer_index, delta)` — the
  /// epoch-boundary consumer API (EpochSampler, TraceRecorder). Only
  /// buffers journaled since the reader's last read are visited, and only
  /// those with activity are emitted (inclusion rule: reads > 0 || writes >
  /// 0 || memory_bytes > 0, the same rule the sampler applies, so replay
  /// RNG streams stay aligned). Each consumer owns its reader; cadences are
  /// independent. Main-thread only (same thread that runs phases).
  using DeltaFn = std::function<void(std::uint32_t, const BufferTraffic&)>;
  void read_traffic_deltas(TelemetryReader& reader, const DeltaFn& fn) const;

 private:
  const std::uint64_t id_;  // never reused; binds TelemetryReaders
  SimMachine* machine_;
  support::Bitmap initiator_;
  std::vector<std::unique_ptr<ThreadCtx>> contexts_;
  std::vector<ThreadCtx*> raw_contexts_;  // contexts_ as resolver input
  ResolveScratch resolve_scratch_;
  std::unique_ptr<support::ThreadPool> pool_;
  double clock_ns_ = 0.0;
  std::vector<PhaseResult> history_;
  PhaseObserver phase_observer_;

  /// Append-only ids of the buffers phases touched, one entry per buffer
  /// per read interval; TelemetryReaders cursor into this. run_phase
  /// appends after the pool join, reads run on the same thread, so this
  /// state needs no synchronization.
  std::vector<std::uint32_t> dirty_journal_;
  /// Per buffer, the journal size just after its latest entry (0: none).
  std::vector<std::size_t> journaled_at_;
  /// Journal size at the most recent read: a buffer with an entry at or
  /// past this position is not journaled again.
  mutable std::size_t journal_read_end_ = 0;
  mutable std::vector<std::uint32_t> read_scratch_;  // per-read sorted ids
  std::vector<std::uint64_t> node_bytes_scratch_;    // per-phase power batch
};

}  // namespace hetmem::sim
