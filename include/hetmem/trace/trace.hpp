// Access-trace record & replay for the online runtime.
//
// A trace is the sequence of RAW per-epoch traffic deltas — one record per
// (buffer id, epoch) carrying the six BufferTraffic counters — exactly what
// an EpochSampler diffs out of an ExecutionContext before subsampling.
// Recording raw (pre-subsampling) deltas is what makes replay exact: the
// replayer feeds them back through a fresh EpochSampler with the recorded
// run's options, which re-applies the same seeded stochastic-rounding
// stream, so the classifier and migration engine observe bit-identical
// epochs and produce a byte-identical decision log (on a machine prepared
// with the same topology, buffers and policy options as the recorded run).
//
// Three sources produce traces:
//   TraceRecorder   chained into an ExecutionContext's phase observer next
//                   to a live RuntimePolicy (records what the run did);
//   parse()         the lossless text format below (serialize() round-trips
//                   doubles via hexfloat, so not a single ULP is lost);
//   synthesize_*()  seeded Zipfian / square-wave / ramp generators for
//                   stressing hysteresis without running a workload.
//
// Text format `hetmem-trace/2`, one record per line, written and read
// through support/line_codec.hpp (decimal integers, hexfloat doubles, the
// workload label last on its line):
//   hetmem-trace/2
//   workload <label>
//   threads <n>
//   phases_per_epoch <n>
//   epoch <index> <duration_ns> <sample_period>
//   s <buffer> <reads> <writes> <llc_misses> <memory_bytes> <rand> <rand_miss>
//   ...
//   end
// A sample's <buffer> is BufferId::packed(), the buffer's generation above
// its slot index, so a buffer on a recycled slot never reads as the dead
// one; a buffer of its slot's first generation writes its bare index.
// The epoch line's sample_period is the effective subsample period the
// recorded run's sampler applied to that epoch (0 when none did), which is
// what lets adaptive-sampling runs (docs/RUNTIME.md) replay byte-
// identically: the replayer re-applies the recorded period per epoch
// instead of re-running the overhead controller.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "hetmem/runtime/epoch.hpp"
#include "hetmem/runtime/policy.hpp"
#include "hetmem/simmem/exec.hpp"
#include "hetmem/support/result.hpp"

namespace hetmem::trace {

struct Trace {
  std::string workload = "trace";
  /// Thread count of the recorded run (replay passes it to the engine's
  /// cost model so migration costs match the live run).
  unsigned threads = 1;
  /// Phase cadence the recorder closed epochs at (documentation; the epochs
  /// below are already aggregated).
  unsigned phases_per_epoch = 1;
  /// RAW epochs: exact deltas, no subsampling applied.
  std::vector<runtime::Epoch> epochs;
};

/// Lossless text round-trip: parse(serialize(t)) == t bit for bit.
[[nodiscard]] std::string serialize(const Trace& trace);
[[nodiscard]] support::Result<Trace> parse(std::string_view text);

struct RecorderOptions {
  unsigned phases_per_epoch = 1;
  std::string workload = "recorded";
};

/// Captures RAW per-epoch traffic deltas from a live run. Reads them
/// through its own sim::TelemetryReader, as EpochSampler does, so it can
/// sit next to a subsampling RuntimePolicy and still record exact counters,
/// and an epoch costs O(buffers touched since the last one).
class TraceRecorder {
 public:
  explicit TraceRecorder(RecorderOptions options = {});

  /// Call once per completed phase; records an epoch every
  /// phases_per_epoch calls.
  void on_phase(const sim::ExecutionContext& exec);
  /// Records whatever accumulated since the last epoch (end-of-run flush).
  void force_epoch(const sim::ExecutionContext& exec);

  /// Installs a phase observer on `exec`. With `policy`, the observer
  /// records the phase FIRST and then runs the policy — the recorder sees
  /// the pre-overhead clock, and the policy behaves exactly as if attached
  /// alone (decisions never depend on epoch durations).
  void attach(sim::ExecutionContext& exec,
              runtime::RuntimePolicy* policy = nullptr);

  [[nodiscard]] const Trace& trace() const { return trace_; }
  [[nodiscard]] std::uint64_t epochs_recorded() const {
    return trace_.epochs.size();
  }

 private:
  void record_epoch(const sim::ExecutionContext& exec);

  RecorderOptions options_;
  Trace trace_;
  sim::TelemetryReader reader_;
  double snapshot_clock_ns_ = 0.0;
  unsigned phases_since_epoch_ = 0;
};

struct ReplayStats {
  std::uint64_t epochs = 0;
  /// Total simulated cost the policy paid during replay (migrations +
  /// epoch hooks).
  double paid_ns = 0.0;
};

/// Feeds a trace's raw epochs through RuntimePolicy::replay_epoch in order.
class TraceReplayer {
 public:
  explicit TraceReplayer(runtime::RuntimePolicy& policy) : policy_(&policy) {}

  ReplayStats replay(const Trace& trace);

 private:
  runtime::RuntimePolicy* policy_;
};

// --- synthetic traces -----------------------------------------------------

struct SynthOptions {
  unsigned epochs = 32;
  double duration_ns = 1e8;
  unsigned threads = 4;
  /// Latency-profile intensity: random accesses per epoch on the hot buffer
  /// (misses ride along at ~97%, like a 1 GiB working set on a 27 MiB LLC).
  double random_accesses = 4e6;
  /// Bandwidth-profile intensity: streamed bytes per epoch.
  double stream_bytes = 512.0 * 1024 * 1024;
  std::string workload = "synthetic";
};

/// Hot-set rotation over `buffers`: the hot buffer takes the Zipf head's
/// random traffic, cooled buffers keep a `cold_fraction` trickle (mirrors
/// what the KV-cache kernel generates, without running it).
[[nodiscard]] Trace synthesize_rotation(
    const std::vector<sim::BufferId>& buffers, unsigned shift_every,
    double cold_fraction, const SynthOptions& options = {});

/// Square wave on one buffer: bandwidth profile for `half_period` epochs,
/// then latency profile, alternating.
[[nodiscard]] Trace synthesize_square(sim::BufferId buffer,
                                      unsigned half_period,
                                      const SynthOptions& options = {});

/// Ramp on one buffer: steady bandwidth profile for `ramp_start` epochs,
/// then a linear blend into the latency profile over `ramp_epochs`, then
/// steady latency profile.
[[nodiscard]] Trace synthesize_ramp(sim::BufferId buffer, unsigned ramp_start,
                                    unsigned ramp_epochs,
                                    const SynthOptions& options = {});

}  // namespace hetmem::trace
