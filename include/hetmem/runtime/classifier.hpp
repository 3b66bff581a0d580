// Online sensitivity classification with hysteresis.
//
// The offline profiler classifies a buffer once, over a whole finished run.
// Online, behavior drifts: a buffer that streamed during one phase may become
// the pointer-chase hot set of the next. The OnlineClassifier keeps a
// per-buffer exponential moving average of epoch traffic and re-evaluates the
// *shared* classification rule (prof::classify_sensitivity — identical
// thresholds to the offline path by construction) against the EMA. To prevent
// ping-ponging, a changed verdict is only *committed* after the instantaneous
// classification has disagreed with the committed one for
// `hysteresis_epochs` consecutive epochs.
#pragma once

#include <cstdint>
#include <vector>

#include "hetmem/prof/classify.hpp"
#include "hetmem/runtime/epoch.hpp"

namespace hetmem::runtime {

struct ClassifierOptions {
  /// Weight of the newest epoch in the moving average, in (0, 1].
  /// 1.0 = no smoothing (the EMA is just the last epoch).
  double ema_alpha = 0.5;
  /// Consecutive epochs the instantaneous classification must disagree with
  /// the committed one before the change commits. <= 1 commits on the first
  /// disagreeing epoch (hysteresis disabled).
  unsigned hysteresis_epochs = 3;
  /// Shared with the offline profiler (prof::ProfileOptions::classify).
  prof::ClassifyThresholds thresholds;
};

struct Reclassification {
  sim::BufferId buffer;
  prof::Sensitivity previous;
  prof::Sensitivity current;
};

class OnlineClassifier {
 public:
  explicit OnlineClassifier(ClassifierOptions options = {});

  /// Folds one epoch into the moving averages and returns the commits it
  /// caused (ascending buffer index). A buffer's first-ever epoch commits
  /// immediately — there is no placement to disagree with yet.
  std::vector<Reclassification> observe(const Epoch& epoch);

  struct BufferState {
    /// Generation of the buffer this state belongs to: a sample for a
    /// newer buffer on the same slot starts the state over.
    std::uint32_t generation = 0;
    bool tracked = false;
    /// EMA of per-epoch traffic. Decays toward zero on epochs where the
    /// buffer was idle, so cold buffers drift to kInsensitive (and become
    /// eviction candidates) instead of keeping their last hot verdict.
    sim::BufferTraffic ema;
    prof::Sensitivity committed = prof::Sensitivity::kInsensitive;
    /// Candidate verdict while a disagreement streak is running.
    prof::Sensitivity pending = prof::Sensitivity::kInsensitive;
    unsigned disagreement_streak = 0;
  };

  /// Indexed by buffer index; entries for never-seen buffers are untracked.
  /// An entry describes the buffer of its own generation, which may be a
  /// dead buffer whose slot no sample has reused yet.
  [[nodiscard]] const std::vector<BufferState>& states() const {
    return states_;
  }
  /// `buffer`'s tracked state; nullptr when untracked or when the slot's
  /// state belongs to another generation.
  [[nodiscard]] const BufferState* state_of(sim::BufferId buffer) const;
  /// Committed verdict (kInsensitive for untracked buffers).
  [[nodiscard]] prof::Sensitivity committed(sim::BufferId buffer) const;
  [[nodiscard]] bool tracked(sim::BufferId buffer) const;
  /// EMA of total per-epoch memory bytes across all buffers.
  [[nodiscard]] double ema_total_bytes() const { return ema_total_bytes_; }
  [[nodiscard]] const ClassifierOptions& options() const { return options_; }

  /// Snapshot/restore (src/recover): overlays the full mutable state — the
  /// EMA tables and hysteresis streaks drive every downstream decision, so
  /// a restored classifier must continue from exactly these values for the
  /// decision log to stay byte-identical.
  void restore_state(std::vector<BufferState> states, double ema_total_bytes) {
    states_ = std::move(states);
    ema_total_bytes_ = ema_total_bytes;
  }

 private:
  ClassifierOptions options_;
  std::vector<BufferState> states_;
  double ema_total_bytes_ = 0.0;
};

}  // namespace hetmem::runtime
