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
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "hetmem/simmem/machine.hpp"
#include "hetmem/simmem/telemetry.hpp"
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

/// How per-buffer traffic reaches epoch consumers (docs/PERF.md):
///  - kRings (default): workers publish touched-buffer records into
///    per-thread SPSC telemetry rings at the end of their phase slice; the
///    main thread drains lazily when a consumer reads, recomputing only the
///    dirty buffers — O(dirty x threads) per epoch.
///  - kLegacyMerge: the pre-ring merge-on-demand path — every read merges
///    every thread's full counter vector, O(threads x buffers) per call.
///    Kept as the measured baseline for bench/ablation_overhead and as a
///    bit-exactness cross-check (both modes produce identical doubles).
enum class TelemetryMode { kRings, kLegacyMerge };

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

  /// Cumulative per-buffer traffic merged across all workers (for prof::).
  /// In kRings mode this drains pending telemetry first; bit-identical to
  /// the kLegacyMerge result.
  [[nodiscard]] std::vector<BufferTraffic> merged_buffer_traffic() const;

  /// Selects the telemetry transport. Must be called before the first
  /// run_phase(); defaults to kRings.
  void set_telemetry_mode(TelemetryMode mode);
  [[nodiscard]] TelemetryMode telemetry_mode() const { return telemetry_mode_; }

  /// Streams the cumulative-traffic deltas since `reader` last read, in
  /// ascending buffer-index order, to `fn(buffer_index, delta)` — the
  /// epoch-boundary consumer API (EpochSampler, TraceRecorder). Only
  /// buffers with activity since the reader's last read are visited
  /// (inclusion rule: reads > 0 || writes > 0 || memory_bytes > 0, the same
  /// rule the sampler applies, so replay RNG streams stay aligned). Each
  /// consumer owns its reader; cadences are independent. Main-thread only
  /// (same thread that runs phases); in kRings mode this is what drains
  /// the rings.
  using DeltaFn = std::function<void(std::uint32_t, const BufferTraffic&)>;
  void read_traffic_deltas(TelemetryReader& reader, const DeltaFn& fn) const;

 private:
  /// Drains every ring into latest_/merged_ and appends newly dirty buffer
  /// ids to the journal. Main-thread only; workers must be quiescent enough
  /// that each ring has a single producer (true between phases and after
  /// the pool join inside run_phase).
  void drain_telemetry() const;

  SimMachine* machine_;
  support::Bitmap initiator_;
  std::vector<std::unique_ptr<ThreadCtx>> contexts_;
  std::vector<ThreadCtx*> raw_contexts_;  // contexts_ as resolver input
  ResolveScratch resolve_scratch_;
  std::unique_ptr<support::ThreadPool> pool_;
  double clock_ns_ = 0.0;
  std::vector<PhaseResult> history_;
  PhaseObserver phase_observer_;

  // Telemetry state. Mutable because consumers read through const contexts
  // (profiler, sampler) while the drain updates the merged view; all access
  // is main-thread-only, so no synchronization is needed here.
  TelemetryMode telemetry_mode_ = TelemetryMode::kRings;
  std::vector<std::unique_ptr<TelemetryRing>> rings_;  // one per sim thread
  /// Last published cumulative counters per (thread, buffer) — the drain's
  /// shadow of each ThreadCtx::buffer_traffic().
  mutable std::vector<std::vector<BufferTraffic>> latest_;
  /// merged_[b] == sum over threads (ascending) of latest_[t][b]; only
  /// recomputed for buffers dirtied since the previous drain.
  mutable std::vector<BufferTraffic> merged_;
  /// Append-only ids of buffers whose merged_ entry changed, in drain
  /// order; TelemetryReaders cursor into this (duplicates are idempotent —
  /// a re-read yields an exact-zero delta, which the inclusion rule skips).
  mutable std::vector<std::uint32_t> dirty_journal_;
  mutable std::vector<std::uint8_t> dirty_mark_;     // per-drain scratch
  mutable std::vector<std::uint32_t> drain_scratch_; // per-drain dirty ids
  mutable std::vector<std::uint32_t> read_scratch_;  // per-read sorted ids
  std::vector<std::uint64_t> node_bytes_scratch_;    // per-phase power batch
};

}  // namespace hetmem::sim
