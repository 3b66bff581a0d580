// Epoch sampling — the online runtime's measurement front-end.
//
// An *epoch* is the unit at which the runtime observes and acts: every
// `phases_per_epoch` completed phases, the sampler reads the per-buffer
// traffic deltas accumulated since its previous epoch (through its own
// sim::TelemetryReader on the execution context's journal — O(dirty
// buffers), not a full merge) and emits them. `sample_period` emulates PEBS-style sampled
// tracking (Olson et al., arXiv:2110.02150; Nonell et al.,
// arXiv:2011.13432): with a period P, counters are only known at a
// granularity of P events (P cache lines for byte counters), reconstructed
// by seeded stochastic rounding so the estimate is unbiased AND
// deterministic for a fixed seed. bench/ablation_runtime shows placement
// decisions survive P = 10..100.
//
// Adaptive mode (docs/RUNTIME.md "Adaptive sampling") closes the loop on
// the sampler's own cost: each epoch it measures its read-deltas +
// subsampling time, compares it to the epoch's duration_ns, and steers the
// *effective* period with a multiplicative-increase/decrease law —
//   cost/duration > budget        -> period *= 2 (up to max_sample_period)
//   cost/duration < budget / 4    -> period /= 2 (down to sample_period)
// — the deadband between keeps the period stable under steady load. The
// period chosen after epoch N applies to epoch N+1; every epoch carries the
// period that sampled it (Epoch::sample_period), which the trace/2 format
// records so replays reproduce the controller's choices bit for bit
// without re-running the controller.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "hetmem/simmem/exec.hpp"
#include "hetmem/support/rng.hpp"

namespace hetmem::runtime {

struct EpochSample {
  sim::BufferId buffer;
  /// Estimated traffic delta over the epoch (post-subsampling).
  sim::BufferTraffic traffic;
};

struct Epoch {
  std::uint64_t index = 0;
  /// Simulated time covered (includes overhead charged between phases).
  double duration_ns = 0.0;
  /// Sum of sampled memory_bytes over this epoch's samples.
  double total_memory_bytes = 0.0;
  /// Subsample period applied to this epoch's counters: the sampler's
  /// effective period at emission time (fixed `sample_period` when the
  /// controller is off). 0.0 on raw epochs that never passed through a
  /// sampler (hand-built or parsed from a v1 trace).
  double sample_period = 0.0;
  /// Buffers with any estimated traffic this epoch, ascending buffer index.
  std::vector<EpochSample> samples;
};

struct SamplerOptions {
  /// Completed phases per emitted epoch (>= 1).
  unsigned phases_per_epoch = 1;
  /// PEBS-style subsample period: 1 = exact counters, N = one sample every
  /// N events (N*64 bytes for byte counters), reconstructed multiplicatively.
  /// In adaptive mode this is the *floor* the controller never goes below.
  double sample_period = 1.0;
  /// Seed for the stochastic-rounding stream (decisions replay for a fixed
  /// seed).
  std::uint64_t seed = 0x5eed;

  // --- adaptive sample-rate control ---
  /// Enables the overhead-budget controller described in the file header.
  bool adaptive = false;
  /// Target ceiling for sampler cost as a fraction of epoch duration.
  double overhead_budget_fraction = 0.01;
  /// Upper clamp for the effective period under sustained pressure.
  double max_sample_period = 4096.0;
  /// Replaces the wall-clock cost measurement: returns the sampler cost in
  /// ns for the epoch just emitted. Inject a deterministic model in tests
  /// and ablations; leave empty for live (measured) operation. Replays
  /// never consult it — recorded per-epoch periods rule.
  std::function<double(const Epoch&)> cost_model = nullptr;
};

class EpochSampler {
 public:
  explicit EpochSampler(SamplerOptions options = {});

  /// Call once per completed phase (RuntimePolicy wires this to the
  /// ExecutionContext's phase observer). Returns an epoch every
  /// phases_per_epoch calls, std::nullopt in between.
  std::optional<Epoch> on_phase(const sim::ExecutionContext& exec);

  /// Emits an epoch from whatever accumulated since the last one, resetting
  /// the phase countdown — e.g. to flush at the end of a run.
  Epoch force_epoch(const sim::ExecutionContext& exec);

  /// Replay path (trace::TraceReplayer): applies this sampler's subsampling
  /// to a RAW (exact-delta) epoch as if it had been observed live — same
  /// per-sample stochastic-rounding draws, same RNG stream, epochs numbered
  /// by this sampler's own counter. Feeding the raw deltas a live sampler
  /// saw, in order, into a fresh sampler with the same options reproduces
  /// the live sampler's output epochs bit for bit. In adaptive mode the
  /// raw epoch's recorded sample_period (trace/2) is used verbatim; the
  /// controller itself never runs during replay.
  Epoch subsample_epoch(const Epoch& raw);

  [[nodiscard]] std::uint64_t epochs_emitted() const { return epochs_; }
  [[nodiscard]] const SamplerOptions& options() const { return options_; }

  /// The period the NEXT live epoch will be sampled at (== sample_period
  /// when the controller is off).
  [[nodiscard]] double effective_period() const;
  /// Measured (or modeled) sampler cost of the most recent live epoch, ns.
  [[nodiscard]] double last_cost_ns() const { return last_cost_ns_; }
  /// Period applied to each emitted epoch, in emission order — what the
  /// policy decision log and the trace/2 recorder publish.
  [[nodiscard]] const std::vector<double>& period_log() const {
    return period_log_;
  }

  /// Full mutable state, for snapshot/restore (src/recover). Options are
  /// NOT part of the state — the restorer reconstructs the sampler from the
  /// same options and then overlays this; the determinism contract
  /// (docs/RECOVERY.md) requires the options to match the snapshotted run.
  /// The TelemetryReader is also excluded: it rebinds to whatever execution
  /// context the restored policy attaches to.
  struct State {
    std::array<std::uint64_t, 4> rng{};
    double snapshot_clock_ns = 0.0;
    unsigned phases_since_epoch = 0;
    std::uint64_t epochs = 0;
    double effective_period = 1.0;
    double last_cost_ns = 0.0;
    std::vector<double> period_log;
  };
  [[nodiscard]] State export_state() const;
  void restore_state(const State& state);

 private:
  Epoch make_epoch(const sim::ExecutionContext& exec);
  /// Runs the multiplicative-increase/decrease law on last_cost_ns_.
  void update_controller(double duration_ns);
  /// Applies `period` to one buffer's traffic delta in place.
  void subsample_traffic(sim::BufferTraffic& delta, double period);
  /// Stochastic rounding of `value` to multiples of `quantum`.
  double subsample(double value, double quantum);

  SamplerOptions options_;
  support::Xoshiro256 rng_;
  sim::TelemetryReader reader_;
  double snapshot_clock_ns_ = 0.0;
  unsigned phases_since_epoch_ = 0;
  std::uint64_t epochs_ = 0;
  double effective_period_ = 1.0;
  double last_cost_ns_ = 0.0;
  std::vector<double> period_log_;
};

}  // namespace hetmem::runtime
