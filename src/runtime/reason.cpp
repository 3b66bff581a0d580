#include "hetmem/runtime/reason.hpp"

#include "hetmem/support/units.hpp"

namespace hetmem::runtime {

void DecisionReason::append_to(std::string& out) const {
  switch (code) {
    case ReasonCode::kNone:
      return;
    case ReasonCode::kNoRankedTargets:
      out += "no ranked targets for attribute ";
      out += std::to_string(id);
      return;
    case ReasonCode::kNoRankedRoom:
      out += "no ranked target has room (evictions insufficient)";
      return;
    case ReasonCode::kNoBenefit:
      out += "destination not faster for observed traffic";
      return;
    case ReasonCode::kDestinationFull:
      out += "destination full (evictions insufficient)";
      return;
    case ReasonCode::kEvictionFailed:
      out += "eviction failed; retrying next epoch";
      return;
    case ReasonCode::kBreakeven:
      out += "breakeven ";
      support::append_fixed(out, epochs, 1);
      out += " epochs exceeds horizon ";
      support::append_fixed(out, horizon, 1);
      return;
    case ReasonCode::kBudget:
      out += "needs ";
      support::append_bytes(out, bytes);
      out += ", budget has ";
      support::append_bytes(out, budget_left);
      out += " left this epoch";
      return;
    case ReasonCode::kTenantShare:
      out += "owning tenant's slice cannot cover ";
      support::append_bytes(out, bytes);
      out += " this epoch";
      return;
    case ReasonCode::kAmortized:
      out += "breakeven ";
      support::append_fixed(out, epochs, 1);
      out += " epochs";
      return;
    case ReasonCode::kMakingRoom:
      out += "making room for ";
      out += detail;
      return;
    case ReasonCode::kMigrateError:
      out += detail;
      return;
    case ReasonCode::kNoHealthyTarget:
      out += "no healthy target has room";
      return;
    case ReasonCode::kNoObservedTraffic:
      out += "no observed traffic";
      return;
    case ReasonCode::kUntracked:
      out += "untracked buffer";
      return;
    case ReasonCode::kSourceStillCheaper:
      out += "degraded source still cheaper than ";
      out += std::to_string(id);
      out += " for observed traffic";
      return;
    case ReasonCode::kOfflineDrain:
      out += "urgent drain off offline node";
      return;
    case ReasonCode::kQuarantineDrain:
      out += "drain off quarantined node";
      return;
  }
}

std::string DecisionReason::to_string() const {
  std::string text;
  append_to(text);
  return text;
}

}  // namespace hetmem::runtime
