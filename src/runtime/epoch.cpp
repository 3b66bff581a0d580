#include "hetmem/runtime/epoch.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>

namespace hetmem::runtime {

EpochSampler::EpochSampler(SamplerOptions options)
    : options_(std::move(options)), rng_(options_.seed) {
  options_.phases_per_epoch = std::max(1u, options_.phases_per_epoch);
  options_.sample_period = std::max(1.0, options_.sample_period);
  options_.max_sample_period =
      std::max(options_.sample_period, options_.max_sample_period);
  effective_period_ = options_.sample_period;
}

double EpochSampler::effective_period() const {
  return options_.adaptive ? effective_period_ : options_.sample_period;
}

EpochSampler::State EpochSampler::export_state() const {
  State state;
  state.rng = rng_.state();
  state.snapshot_clock_ns = snapshot_clock_ns_;
  state.phases_since_epoch = phases_since_epoch_;
  state.epochs = epochs_;
  state.effective_period = effective_period_;
  state.last_cost_ns = last_cost_ns_;
  state.period_log = period_log_;
  return state;
}

void EpochSampler::restore_state(const State& state) {
  rng_.set_state(state.rng);
  snapshot_clock_ns_ = state.snapshot_clock_ns;
  phases_since_epoch_ = state.phases_since_epoch;
  epochs_ = state.epochs;
  effective_period_ = state.effective_period;
  last_cost_ns_ = state.last_cost_ns;
  period_log_ = state.period_log;
}

double EpochSampler::subsample(double value, double quantum) {
  if (value <= 0.0) return 0.0;
  const double scaled = value / quantum;
  const double floor = std::floor(scaled);
  const double fraction = scaled - floor;
  double estimate = floor;
  // Unbiased stochastic rounding; the draw is skipped for exact multiples so
  // already-quantized inputs never consume randomness.
  if (fraction > 0.0) estimate += rng_.next_double() < fraction ? 1.0 : 0.0;
  return estimate * quantum;
}

void EpochSampler::subsample_traffic(sim::BufferTraffic& delta, double period) {
  // One sample per period: event counters are known to multiples of the
  // period, byte counters to multiples of period * cache-line bytes.
  const double event_quantum = period;
  const double byte_quantum = period * 64.0;
  delta.reads = subsample(delta.reads, event_quantum);
  delta.writes = subsample(delta.writes, event_quantum);
  delta.llc_misses = subsample(delta.llc_misses, event_quantum);
  delta.memory_bytes = subsample(delta.memory_bytes, byte_quantum);
  delta.random_accesses = subsample(delta.random_accesses, event_quantum);
  delta.random_misses = subsample(delta.random_misses, event_quantum);
  // Keep the ratio invariants the classifier divides by: misses cannot
  // exceed accesses-style counters after independent rounding.
  delta.random_misses = std::min(delta.random_misses, delta.llc_misses);
}

void EpochSampler::update_controller(double duration_ns) {
  if (!options_.adaptive || duration_ns <= 0.0) return;
  const double fraction = last_cost_ns_ / duration_ns;
  if (fraction > options_.overhead_budget_fraction) {
    effective_period_ =
        std::min(effective_period_ * 2.0, options_.max_sample_period);
  } else if (fraction < options_.overhead_budget_fraction * 0.25) {
    effective_period_ =
        std::max(effective_period_ * 0.5, options_.sample_period);
  }
}

Epoch EpochSampler::make_epoch(const sim::ExecutionContext& exec) {
  const auto start = std::chrono::steady_clock::now();

  Epoch epoch;
  epoch.index = epochs_;
  epoch.duration_ns = exec.clock_ns() - snapshot_clock_ns_;
  const double period = effective_period();
  epoch.sample_period = period;
  const bool exact = period <= 1.0;

  exec.read_traffic_deltas(
      reader_, [&](sim::BufferId buffer, const sim::BufferTraffic& raw) {
        sim::BufferTraffic delta = raw;
        if (!exact) subsample_traffic(delta, period);
        epoch.total_memory_bytes += delta.memory_bytes;
        epoch.samples.push_back(EpochSample{buffer, delta});
      });

  snapshot_clock_ns_ = exec.clock_ns();
  phases_since_epoch_ = 0;
  ++epochs_;
  period_log_.push_back(period);

  if (options_.cost_model) {
    last_cost_ns_ = options_.cost_model(epoch);
  } else {
    last_cost_ns_ = std::chrono::duration<double, std::nano>(
                        std::chrono::steady_clock::now() - start)
                        .count();
  }
  update_controller(epoch.duration_ns);
  return epoch;
}

std::optional<Epoch> EpochSampler::on_phase(const sim::ExecutionContext& exec) {
  if (++phases_since_epoch_ < options_.phases_per_epoch) return std::nullopt;
  return make_epoch(exec);
}

Epoch EpochSampler::force_epoch(const sim::ExecutionContext& exec) {
  return make_epoch(exec);
}

Epoch EpochSampler::subsample_epoch(const Epoch& raw) {
  Epoch epoch;
  epoch.index = epochs_;
  epoch.duration_ns = raw.duration_ns;
  // Recorded controller choices rule the replay: a trace/2 epoch carries
  // the period the live sampler used, so adaptive replays reproduce the
  // live run's quantization (and RNG draws) without re-running the
  // controller against replay-time costs.
  const double period = options_.adaptive && raw.sample_period > 0.0
                            ? raw.sample_period
                            : effective_period();
  epoch.sample_period = period;
  const bool exact = period <= 1.0;
  for (const EpochSample& sample : raw.samples) {
    sim::BufferTraffic delta = sample.traffic;
    // Same inclusion rule as the live read-deltas path: a recorded sample
    // with no raw activity neither appears in the output nor consumes RNG
    // draws, so the rounding stream stays aligned with what a live sampler
    // would have drawn from the same deltas.
    const bool any = delta.reads > 0.0 || delta.writes > 0.0 ||
                     delta.memory_bytes > 0.0;
    if (!any) continue;
    if (!exact) subsample_traffic(delta, period);
    epoch.total_memory_bytes += delta.memory_bytes;
    epoch.samples.push_back(EpochSample{sample.buffer, delta});
  }
  phases_since_epoch_ = 0;
  ++epochs_;
  period_log_.push_back(period);
  return epoch;
}

}  // namespace hetmem::runtime
