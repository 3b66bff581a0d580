// GlobalArbiter — cross-tenant arbitration of the migration byte budget.
//
// The MigrationEngine, the health Evacuator and the power Governor share one
// per-epoch byte pool (the paper's §VII migration-avoidance knob), charged
// only through runtime::MigrationBroker. Without tenancy that pool is
// first-come-first-served: one tenant's evacuation burst or promotion storm
// can starve every other tenant's moves for the epoch. The arbiter
// subdivides the pool into per-tenant slices weighted by
//
//     priority_weight(priority) * quota.share_weight * deficit_boost
//
// where deficit_boost grows (capped) for tenants whose draws were denied in
// the previous epoch — a starved tenant's slice recovers instead of
// compounding. Draws for untenanted buffers bypass slicing entirely (they
// are governed only by the engine's global pool), so the classic
// single-application mode is unchanged.
//
// Denial is deferral, not loss: every mover is level-triggered and retries
// each epoch, so a denied move simply waits for a fatter slice. A granted
// move that then fails is refunded, so a slice is only ever spent on bytes
// that moved.
//
// Thread safety (docs/CONCURRENCY.md): externally synchronized — the same
// single epoch loop that drives the movers drives begin_epoch, try_draw and
// refund.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "hetmem/tenant/tenant.hpp"

namespace hetmem::tenant {

struct ArbiterOptions {
  /// Priority multipliers for the slice weights.
  double critical_weight = 4.0;
  double normal_weight = 2.0;
  double best_effort_weight = 1.0;
  /// Cap on the multiplicative boost a tenant's weight can earn from its
  /// previous-epoch denial deficit (1.0 = no boost ever).
  double deficit_boost_cap = 2.0;
};

[[nodiscard]] constexpr double priority_weight(const ArbiterOptions& options,
                                               Priority priority) {
  switch (priority) {
    case Priority::kCritical: return options.critical_weight;
    case Priority::kNormal: return options.normal_weight;
    case Priority::kBestEffort: return options.best_effort_weight;
  }
  return 1.0;
}

/// One tenant's allotment for the current epoch.
struct ArbiterSlice {
  TenantId id = kNoTenant;
  std::string name;
  std::uint64_t slice_bytes = 0;
  std::uint64_t granted_bytes = 0;
  std::uint64_t denied_bytes = 0;
};

struct ArbiterStats {
  std::uint64_t epochs = 0;
  std::uint64_t draws_granted = 0;
  std::uint64_t draws_denied = 0;
  std::uint64_t bytes_granted = 0;
  std::uint64_t bytes_denied = 0;
};

class GlobalArbiter {
 public:
  explicit GlobalArbiter(const TenantRegistry& registry,
                         ArbiterOptions options = {});

  /// Opens `epoch_index`, splitting `pool_bytes` into per-tenant slices over
  /// the registry's live tenants. Idempotent for the current epoch.
  /// UINT64_MAX pool means unlimited: every slice is unlimited too.
  void begin_epoch(std::uint64_t epoch_index, std::uint64_t pool_bytes);

  /// Draws `bytes` from `id`'s slice; false (and a recorded deficit) when
  /// the slice cannot cover it. kNoTenant and tenants registered after the
  /// epoch opened are granted unconditionally — slicing protects the
  /// tenants that were present when the pool was split. A draw against a
  /// stale epoch index lazily reopens with the previous pool size.
  bool try_draw(std::uint64_t epoch_index, TenantId id, std::uint64_t bytes);

  /// Gives back `bytes` of a grant to `id` in `epoch_index` that did not
  /// move (runtime::MigrationBroker settling a failed move): they leave
  /// bytes_granted and, while that epoch is open, the tenant's slice.
  void refund(std::uint64_t epoch_index, TenantId id, std::uint64_t bytes);

  [[nodiscard]] std::uint64_t slice_remaining(TenantId id) const;
  [[nodiscard]] const std::vector<ArbiterSlice>& slices() const {
    return slices_;
  }
  [[nodiscard]] const ArbiterStats& stats() const { return stats_; }
  [[nodiscard]] const ArbiterOptions& options() const { return options_; }

  /// Deterministic text rendering of the current epoch's slices.
  [[nodiscard]] std::string render_log() const;

 private:
  const TenantRegistry* registry_;
  ArbiterOptions options_;
  std::uint64_t epoch_ = UINT64_MAX;
  std::uint64_t pool_bytes_ = UINT64_MAX;
  std::vector<ArbiterSlice> slices_;  // sorted by tenant id (deterministic)
  /// Denied bytes per tenant in the previous epoch -> deficit boost.
  std::unordered_map<TenantId, std::uint64_t> last_denied_;
  ArbiterStats stats_;
};

}  // namespace hetmem::tenant
