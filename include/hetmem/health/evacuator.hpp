// Evacuator — self-healing memory targets, part 2: budgeted draining.
//
// When the HealthMonitor quarantines or offlines a node, its live buffers
// are stranded on failing hardware. The Evacuator drains them through the
// engine's MigrationBroker (evacuation, optimization and power migrations
// share one per-epoch pool — the paper's §VII "migration should likely be
// avoided" knob caps them all, and a failed move is refunded), most
// critical buffers first:
//   1. classifier-committed latency-sensitive buffers,
//   2. bandwidth-sensitive buffers,
//   3. insensitive / untracked buffers,
// hotter (larger traffic EMA) before colder within each class.
//
// Quarantined nodes drain under a break-even gate: the buffer's observed
// traffic must be modeled cheaper on the destination than on the (degraded)
// source within the horizon — cold buffers stay put until the node either
// recovers or goes offline. Offline nodes bypass the gate entirely: the
// data is unreachable-in-spirit, every buffer moves as budget allows, and
// what the budget defers this epoch is retried the next (level-triggered,
// like the engine).
//
// Each decision carries a typed reason (runtime/reason.hpp) whose text is
// rendered only by render_log() and DecisionReason::to_string(), so a
// quarantined node whose buffers wait epoch after epoch costs no string
// formatting per buffer.
//
// Thread safety: externally synchronized with the engine's epoch loop (one
// thread drives run_epoch + drain_epoch). Allocation threads may run
// concurrently; each buffer is revalidated under the machine's per-buffer
// lifecycle lock at migrate() time, so a drain racing a free is benign.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "hetmem/alloc/allocator.hpp"
#include "hetmem/health/health.hpp"
#include "hetmem/runtime/engine.hpp"
#include "hetmem/runtime/policy.hpp"
#include "hetmem/runtime/reason.hpp"

namespace hetmem::health {

struct EvacuatorOptions {
  /// Break-even horizon for quarantined drains (offline drains skip it).
  double expected_future_epochs = 10.0;
  /// Effective slowdown of a quarantined node in the benefit model: the
  /// source cost is multiplied by this before comparing against the
  /// destination, representing the degraded regime (ECC storms, media
  /// throttling) that caused the quarantine. > 1.0.
  double quarantined_slowdown = 4.0;
};

enum class EvacVerdict : std::uint8_t {
  kMoved,               // migrated off the failing node
  kSkippedCold,         // quarantined drain: no modeled benefit; stays put
  kRejectedBreakeven,   // quarantined drain: cost does not amortize
  kRejectedNoTarget,    // no healthy destination has room
  kDeferredBudget,      // epoch byte budget exhausted; retried next epoch
  kDeferredTenantShare,  // owning tenant's arbiter slice exhausted; retried
  kFailedMigrate,       // machine refused (fault, raced free); retried
};

[[nodiscard]] const char* evac_verdict_name(EvacVerdict verdict);

struct EvacDecision {
  std::uint64_t epoch = 0;
  unsigned from_node = 0;
  unsigned to_node = 0;  // == from_node when nothing moved
  sim::BufferId buffer;
  std::string label;
  std::uint64_t bytes = 0;
  EvacVerdict verdict = EvacVerdict::kMoved;
  double cost_ns = 0.0;
  runtime::DecisionReason reason;
};

struct EvacuatorStats {
  std::uint64_t moved = 0;
  std::uint64_t moved_bytes = 0;
  std::uint64_t skipped = 0;    // cold + breakeven
  std::uint64_t deferred = 0;   // budget + tenant-share
  std::uint64_t failed = 0;     // no-target + failed-migrate
  double cost_ns = 0.0;
};

class Evacuator {
 public:
  /// Moves through `engine`'s MigrationBroker; `initiator` anchors locality
  /// for destination rankings (normally the workload's cpuset, same as the
  /// engine's). All references must outlive the evacuator.
  Evacuator(alloc::HeterogeneousAllocator& allocator,
            runtime::MigrationEngine& engine, support::Bitmap initiator,
            EvacuatorOptions options = {});

  /// Drains the live buffers of `node` for this epoch, given its health
  /// state (kHealthy/kSuspect: no-op). `classifier` (optional) supplies
  /// criticality and traffic EMAs; without it every buffer is treated as
  /// untracked (drained only when the node is offline). Returns the
  /// migration cost paid (simulated ns) for the caller's clock.
  double drain_epoch(std::uint64_t epoch_index, unsigned node,
                     HealthState state, unsigned threads,
                     const runtime::OnlineClassifier* classifier = nullptr);

  /// True when no live buffer remains on `node`.
  [[nodiscard]] bool drained(unsigned node) const;

  [[nodiscard]] const std::vector<EvacDecision>& decisions() const {
    return decisions_;
  }
  [[nodiscard]] const EvacuatorStats& stats() const { return stats_; }
  [[nodiscard]] const EvacuatorOptions& options() const { return options_; }

  /// Deterministic text rendering of the full decision history.
  [[nodiscard]] std::string render_log() const;

 private:
  /// Criticality class for the drain order. Lower drains first.
  enum class DrainClass : int {
    kLatency = 0,
    kBandwidth = 1,
    kCold = 2,  // committed-insensitive or untracked
  };

  /// One entry of a drain's work list.
  struct DrainItem {
    sim::BufferId buffer;
    DrainClass drain_class = DrainClass::kCold;
    bool tracked = false;
    prof::Sensitivity sensitivity = prof::Sensitivity::kInsensitive;
    double ema_bytes = 0.0;
  };

  static DrainClass drain_class_of(prof::Sensitivity sensitivity);

  void log(std::uint64_t epoch, unsigned from_node, unsigned to_node,
           sim::BufferId buffer, EvacVerdict verdict, double cost_ns,
           runtime::DecisionReason reason);

  alloc::HeterogeneousAllocator* allocator_;
  runtime::MigrationBroker* broker_;
  support::Bitmap initiator_;
  /// Per node (logical index): is the initiator local to it? Fixed for the
  /// evacuator's lifetime, like the topology and the initiator.
  std::vector<bool> local_;
  EvacuatorOptions options_;
  std::vector<EvacDecision> decisions_;
  EvacuatorStats stats_;
  // Per-drain scratch, reused so a warm drain allocates nothing per buffer.
  std::vector<sim::BufferId> live_;
  std::vector<DrainItem> items_;
  std::vector<sim::BufferTraffic> assigned_;
};

/// Wires a monitor + evacuator into a RuntimePolicy's epoch hook: each epoch
/// polls the monitor, then drains every node needing evacuation, charging
/// the paid migration cost into the run's clock alongside the engine's. All
/// three objects must outlive the policy's attached run.
void attach_health(runtime::RuntimePolicy& policy, HealthMonitor& monitor,
                   Evacuator& evacuator);

}  // namespace hetmem::health
