// PowerGovernor — a machine-wide watt budget enforced in the epoch loop.
//
// State machine (docs/POWER.md):
//
//   idle        cap unset (0) — run_epoch returns immediately without
//               touching the registry, so rankings stay byte-identical to
//               the plain bandwidth order and the ranking cache keeps its
//               hit rate (no generation churn from an idle governor);
//   enforcing   cap set, draw <= cap — streaks reset, nothing migrates;
//   draining    draw > cap — the worst-draw node with live buffers is the
//               offender; its buffers drain toward the most energy-efficient
//               targets with room, through the engine's MigrationBroker —
//               the SAME tenant-arbitrated per-epoch byte pool the engine
//               and the health Evacuator charge (power never gets a private
//               migration lane);
//   throttling  a node stays the offender for throttle_after_epochs
//               consecutive over-cap epochs — each further epoch reports a
//               thermal-throttle event into SimMachine telemetry, which the
//               HealthMonitor counts as fault evidence: the node takes the
//               quarantine-sink path in rankings and recovers through the
//               ordinary clean-streak hysteresis once draw falls back.
//
// placement_ranking() is the power-aware twin of targets_ranked: below
// near_cap_fraction of the cap it returns the registry's cached ranking
// unchanged; near or over the cap it re-ranks the same candidates by a
// bandwidth-per-watt objective via RankingComposition (no special-case
// bucket — the ROADMAP-flagged composition refactor is what makes this a
// one-liner).
//
// Thread safety (docs/CONCURRENCY.md): externally synchronized like the
// MigrationEngine — one epoch loop drives run_epoch; the machine/allocator
// calls it makes are themselves thread-safe, and the const telemetry
// accessors (machine_draw_watts, stats) may race the epoch loop benignly.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "hetmem/alloc/allocator.hpp"
#include "hetmem/runtime/engine.hpp"
#include "hetmem/runtime/policy.hpp"

namespace hetmem::power {

struct GovernorOptions {
  /// Draw/cap ratio above which placement_ranking switches to the
  /// bandwidth-per-watt objective.
  double near_cap_fraction = 0.9;
  /// Consecutive over-cap epochs a node sustains as the drain offender
  /// before thermal-throttle events start being reported against it.
  unsigned throttle_after_epochs = 2;
  /// Per-epoch ceiling on bytes the governor itself drains (the shared
  /// engine budget still applies on top).
  std::uint64_t drain_max_bytes_per_epoch = std::uint64_t{1} << 30;
};

enum class PowerVerdict : std::uint8_t {
  kDrained,          // buffer migrated off the offender
  kThrottled,        // thermal-throttle event reported against the node
  kNoTarget,         // no energy-ranked destination had room
  kBudgetExhausted,  // shared epoch byte budget (or drain ceiling) spent
  kTenantDenied,     // owning tenant's arbiter slice refused the draw
  kFailedMigrate,    // allocator/machine refused (fault, offline, raced)
};

[[nodiscard]] const char* power_verdict_name(PowerVerdict verdict);

struct PowerDecision {
  std::uint64_t epoch = 0;
  unsigned node = 0;  // offender (kDrained: source; kThrottled: throttled)
  sim::BufferId buffer;
  std::string label;
  unsigned to_node = 0;
  std::uint64_t bytes = 0;
  PowerVerdict verdict = PowerVerdict::kDrained;
  std::string reason;
};

struct GovernorStats {
  std::uint64_t epochs = 0;           // run_epoch calls with a cap set
  std::uint64_t over_cap_epochs = 0;
  std::uint64_t throttle_events = 0;
  std::uint64_t drained_buffers = 0;
  std::uint64_t drained_bytes = 0;
  double drain_cost_ns = 0.0;
};

class PowerGovernor {
 public:
  /// Moves through `engine`'s MigrationBroker (the shared per-epoch pool
  /// and tenant slices); the allocator and engine must outlive the governor.
  PowerGovernor(alloc::HeterogeneousAllocator& allocator,
                runtime::MigrationEngine& engine, support::Bitmap initiator,
                GovernorOptions options = {});

  /// One governor step (see the state machine above). Returns the simulated
  /// migration cost paid this epoch, for the epoch hook to charge.
  double run_epoch(std::uint64_t epoch_index, unsigned threads);

  /// Sum of SimMachine::power_draw_watts over all nodes.
  [[nodiscard]] double machine_draw_watts() const;

  /// True when a cap is set and draw >= near_cap_fraction * cap.
  [[nodiscard]] bool near_cap() const;

  /// Power-aware ranking for `attr` (see class comment). Deterministic for
  /// fixed registry/telemetry state.
  [[nodiscard]] std::vector<attr::TargetValue> placement_ranking(
      attr::AttrId attr,
      topo::LocalityFlags flags = topo::LocalityFlags::kIntersecting) const;

  [[nodiscard]] const GovernorStats& stats() const { return stats_; }
  [[nodiscard]] const std::vector<PowerDecision>& decisions() const {
    return decisions_;
  }
  /// Per-node consecutive-offender streaks — the throttle-escalation state
  /// machine's memory, exported for snapshot/restore (src/recover).
  [[nodiscard]] const std::vector<unsigned>& over_streaks() const {
    return over_streak_;
  }
  /// Snapshot/restore: overlays stats and streaks so a restored governor
  /// escalates (or relaxes) exactly where the snapshotted one would have.
  /// The decision log is not restored (post-restore narrative only).
  void restore_state(const GovernorStats& stats,
                     const std::vector<unsigned>& over_streaks) {
    stats_ = stats;
    for (std::size_t n = 0; n < over_streak_.size() && n < over_streaks.size();
         ++n) {
      over_streak_[n] = over_streaks[n];
    }
  }
  /// Deterministic text rendering of the decision history (byte-stable for
  /// a fixed seed and phase schedule, like the engine's).
  [[nodiscard]] std::string render_log() const;

 private:
  void log(std::uint64_t epoch, unsigned node, sim::BufferId buffer,
           std::string label, unsigned to_node, std::uint64_t bytes,
           PowerVerdict verdict, std::string reason);
  /// Offender: the highest-draw node that still holds live buffers;
  /// UINT_MAX when none qualifies. Ties keep the lower logical index.
  [[nodiscard]] unsigned pick_offender() const;

  alloc::HeterogeneousAllocator* allocator_;
  runtime::MigrationBroker* broker_;
  support::Bitmap initiator_;
  GovernorOptions options_;
  std::vector<unsigned> over_streak_;  // per node, consecutive offender epochs
  GovernorStats stats_;
  std::vector<PowerDecision> decisions_;
};

/// Chains the governor into the policy's epoch loop (coexists with
/// health::attach_health via RuntimePolicy::add_epoch_hook — order of
/// attachment decides hook order; costs sum either way).
void attach_governor(runtime::RuntimePolicy& policy, PowerGovernor& governor);

}  // namespace hetmem::power
