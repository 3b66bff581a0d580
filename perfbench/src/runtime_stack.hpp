// The online-management half of the stack, shared by the two workloads that
// run phases: RuntimePolicy with a GlobalArbiter, the health hook, the power
// governor and the supervisor, attached in that order.
#pragma once

#include <functional>
#include <memory>
#include <string>

#include "bench.hpp"
#include "hetmem/health/evacuator.hpp"
#include "hetmem/health/health.hpp"
#include "hetmem/power/governor.hpp"
#include "hetmem/recover/snapshot.hpp"
#include "hetmem/recover/supervisor.hpp"
#include "hetmem/runtime/policy.hpp"
#include "hetmem/tenant/arbiter.hpp"

namespace perfbench {

struct RuntimeStack {
  std::unique_ptr<tenant::GlobalArbiter> arbiter;
  std::unique_ptr<runtime::RuntimePolicy> policy;
  std::unique_ptr<health::HealthMonitor> monitor;
  std::unique_ptr<health::Evacuator> evacuator;
  std::unique_ptr<power::PowerGovernor> governor;
  std::unique_ptr<recover::Supervisor> supervisor;

  /// Builds every component on `bed` and attaches it to `exec`.
  ///
  /// Untraced: policy.attach(exec, refresh), attach_health, attach_governor,
  /// Supervisor::attach — nothing else. Traced, the same calls plus
  ///  - an observer that takes over the phase-observer slot and calls
  ///    RuntimePolicy::on_phase between span boundaries,
  ///  - zero-cost marker hooks chained between the three attachments,
  ///  - a migration gate that marks the sampler -> engine boundary and
  ///    returns the supervisor's migration_breaker().allow(epoch),
  /// none of which may change a decision (the non-perturbation check).
  void wire(Testbed& bed, sim::ExecutionContext& exec,
            const support::Bitmap& initiator,
            const runtime::RuntimePolicyOptions& options, std::uint64_t seed,
            std::function<void()> refresh, Tracer* tracer);

  /// Every layer the snapshot format covers, for capture().
  [[nodiscard]] recover::CaptureSources sources(const Testbed& bed) const;
  [[nodiscard]] recover::RestoreTargets targets(Testbed& bed);

  /// The deterministic logs (decision, evacuator, governor, breaker, health
  /// transitions) and the per-layer counts of runtime, health, power and
  /// recover, into `pass`.
  void collect(PassResult& pass) const;
};

/// Opens the spans of one timed step (the step itself and the simmem slice
/// up to the first phase-observer callback). Untimed phases (warm-up) use
/// the same frame under another name so the traced observer always finds
/// an open slice to end.
inline void begin_step(Tracer* tracer, std::int64_t step,
                       const char* name = "step") {
  if (tracer == nullptr) return;
  tracer->set_step(step);
  tracer->open(name, Layer::kBench);
  tracer->open("simmem.phase", Layer::kSimmem);
}

/// Closes a step: what ran after the last phase callback is the
/// application's own tail (result bookkeeping), not a phase.
inline void end_step(Tracer* tracer) {
  if (tracer == nullptr) return;
  tracer->relabel("apps.tail", Layer::kApps);
  tracer->close();
  tracer->close();
  tracer->set_step(-1);
}

}  // namespace perfbench
