// Typed decision reasons, shared by the runtime's movers.
//
// The MigrationEngine and the health Evacuator attach one reason to every
// decision they log. A reason is a code plus the numbers its text prints;
// the text itself is formatted only on demand — by the movers'
// render_decision_log()/render_log() and by to_string() — so a long
// quarantined drain that rejects the same buffers epoch after epoch builds
// no string per decision. Only two reasons own a string: a failed
// migration's error text and the label of the buffer an eviction makes
// room for. Breakeven, budget and tenant-share reasons read the same in
// both movers' logs.
#pragma once

#include <cstdint>
#include <string>

namespace hetmem::runtime {

enum class ReasonCode : std::uint8_t {
  kNone,                // (no text)
  kNoRankedTargets,     // no ranked targets for attribute <id>
  kNoRankedRoom,        // no ranked target has room (evictions insufficient)
  kNoBenefit,           // destination not faster for observed traffic
  kDestinationFull,     // destination full (evictions insufficient)
  kEvictionFailed,      // eviction failed; retrying next epoch
  kBreakeven,           // breakeven <epochs> epochs exceeds horizon <horizon>
  kBudget,              // needs <bytes>, budget has <budget_left> left this epoch
  kTenantShare,         // owning tenant's slice cannot cover <bytes> this epoch
  kAmortized,           // breakeven <epochs> epochs
  kMakingRoom,          // making room for <detail>
  kMigrateError,        // <detail>
  kNoHealthyTarget,     // no healthy target has room
  kNoObservedTraffic,   // no observed traffic
  kUntracked,           // untracked buffer
  kSourceStillCheaper,  // degraded source still cheaper than <id> for observed traffic
  kOfflineDrain,        // urgent drain off offline node
  kQuarantineDrain,     // drain off quarantined node
};

struct DecisionReason {
  ReasonCode code = ReasonCode::kNone;
  /// Attribute (kNoRankedTargets) or destination node (kSourceStillCheaper).
  unsigned id = 0;
  /// Estimated breakeven epochs (kBreakeven, kAmortized).
  double epochs = 0.0;
  /// Breakeven horizon (kBreakeven).
  double horizon = 0.0;
  /// Bytes the move needs (kBudget, kTenantShare).
  std::uint64_t bytes = 0;
  /// Shared epoch budget left (kBudget).
  std::uint64_t budget_left = 0;
  /// Error text (kMigrateError) or the promoted buffer's label (kMakingRoom).
  std::string detail = {};

  /// Appends the reason's text to `out`; nothing for kNone.
  void append_to(std::string& out) const;
  /// The reason's text, as the decision logs print it after " — ".
  [[nodiscard]] std::string to_string() const;
};

}  // namespace hetmem::runtime
