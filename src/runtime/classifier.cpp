#include "hetmem/runtime/classifier.hpp"

#include <algorithm>

namespace hetmem::runtime {

OnlineClassifier::OnlineClassifier(ClassifierOptions options)
    : options_(options) {
  options_.ema_alpha = std::clamp(options_.ema_alpha, 1e-6, 1.0);
}

const OnlineClassifier::BufferState* OnlineClassifier::state_of(
    sim::BufferId buffer) const {
  if (!buffer.valid() || buffer.index >= states_.size()) return nullptr;
  const BufferState& state = states_[buffer.index];
  return state.tracked && state.generation == buffer.generation ? &state
                                                                 : nullptr;
}

prof::Sensitivity OnlineClassifier::committed(sim::BufferId buffer) const {
  const BufferState* state = state_of(buffer);
  return state != nullptr ? state->committed : prof::Sensitivity::kInsensitive;
}

bool OnlineClassifier::tracked(sim::BufferId buffer) const {
  return state_of(buffer) != nullptr;
}

std::vector<Reclassification> OnlineClassifier::observe(const Epoch& epoch) {
  const double alpha = options_.ema_alpha;
  std::uint32_t max_index = 0;
  for (const EpochSample& sample : epoch.samples) {
    max_index = std::max(max_index, sample.buffer.index);
  }
  if (!epoch.samples.empty() && states_.size() <= max_index) {
    states_.resize(max_index + 1);
  }

  ema_total_bytes_ =
      alpha * epoch.total_memory_bytes + (1.0 - alpha) * ema_total_bytes_;

  // Fold samples in; buffers absent from this epoch decay toward zero.
  auto blend = [alpha](sim::BufferTraffic& ema, const sim::BufferTraffic& now) {
    ema.reads = alpha * now.reads + (1.0 - alpha) * ema.reads;
    ema.writes = alpha * now.writes + (1.0 - alpha) * ema.writes;
    ema.llc_misses = alpha * now.llc_misses + (1.0 - alpha) * ema.llc_misses;
    ema.memory_bytes =
        alpha * now.memory_bytes + (1.0 - alpha) * ema.memory_bytes;
    ema.random_accesses =
        alpha * now.random_accesses + (1.0 - alpha) * ema.random_accesses;
    ema.random_misses =
        alpha * now.random_misses + (1.0 - alpha) * ema.random_misses;
  };

  std::vector<Reclassification> commits;
  std::size_t next_sample = 0;
  for (std::uint32_t index = 0; index < states_.size(); ++index) {
    BufferState& state = states_[index];
    const EpochSample* sample = nullptr;
    if (next_sample < epoch.samples.size() &&
        epoch.samples[next_sample].buffer.index == index) {
      sample = &epoch.samples[next_sample++];
      if (sample->buffer.generation != state.generation) {
        if (sample->buffer.generation < state.generation) {
          sample = nullptr;  // a dead buffer's late sample
        } else {
          // A new buffer on a recycled slot inherits nothing.
          state = BufferState{};
          state.generation = sample->buffer.generation;
        }
      }
    }
    if (!state.tracked) {
      if (sample == nullptr) continue;
      // First sighting: seed the EMA with the full epoch (no decayed-zero
      // blend) and commit immediately — there is no history to disagree with.
      state.tracked = true;
      state.ema = sample->traffic;
      const double share = ema_total_bytes_ > 0.0
                               ? state.ema.memory_bytes / ema_total_bytes_
                               : 0.0;
      state.committed = prof::classify_sensitivity(
          share, state.ema.llc_misses, state.ema.random_misses,
          options_.thresholds);
      state.pending = state.committed;
      if (state.committed != prof::Sensitivity::kInsensitive) {
        commits.push_back(Reclassification{
            sim::BufferId{index, state.generation},
            prof::Sensitivity::kInsensitive, state.committed});
      }
      continue;
    }

    static const sim::BufferTraffic kIdle{};
    blend(state.ema, sample != nullptr ? sample->traffic : kIdle);

    const double share = ema_total_bytes_ > 0.0
                             ? state.ema.memory_bytes / ema_total_bytes_
                             : 0.0;
    const prof::Sensitivity instant = prof::classify_sensitivity(
        share, state.ema.llc_misses, state.ema.random_misses,
        options_.thresholds);
    if (instant == state.committed) {
      state.disagreement_streak = 0;
      state.pending = state.committed;
      continue;
    }
    if (instant == state.pending) {
      ++state.disagreement_streak;
    } else {
      state.pending = instant;
      state.disagreement_streak = 1;
    }
    if (state.disagreement_streak >= std::max(1u, options_.hysteresis_epochs)) {
      commits.push_back(Reclassification{
          sim::BufferId{index, state.generation}, state.committed, instant});
      state.committed = instant;
      state.disagreement_streak = 0;
    }
  }
  return commits;
}

}  // namespace hetmem::runtime
