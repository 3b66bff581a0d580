#include "runtime_stack.hpp"

#include <cstdint>

namespace perfbench {

namespace {

constexpr double kMiB = 1024.0 * 1024.0;

/// A hook that only marks a span boundary: it charges nothing, so the
/// chained cost sum is bit-identical to the chain without it (x + 0.0 == x).
runtime::RuntimePolicy::EpochHook marker(Tracer* tracer, const char* next,
                                         Layer layer) {
  return [tracer, next, layer](std::uint64_t, unsigned) {
    tracer->swap(next, layer);
    return 0.0;
  };
}

}  // namespace

void RuntimeStack::wire(Testbed& bed, sim::ExecutionContext& exec,
                        const support::Bitmap& initiator,
                        const runtime::RuntimePolicyOptions& options,
                        std::uint64_t seed, std::function<void()> refresh,
                        Tracer* tracer) {
  arbiter = std::make_unique<tenant::GlobalArbiter>(*bed.tenants);
  // Without a cost model the sampler times itself on the host clock, and
  // that reading lands in every snapshot; a fixed model keeps the state,
  // and so the checkpoints, identical across runs of one seed.
  runtime::RuntimePolicyOptions fixed = options;
  fixed.sampler.adaptive = false;
  fixed.sampler.cost_model = [](const runtime::Epoch&) { return 0.0; };
  policy = std::make_unique<runtime::RuntimePolicy>(*bed.allocator, initiator,
                                                    fixed);
  policy->mutable_engine().set_arbiter(arbiter.get());
  monitor = std::make_unique<health::HealthMonitor>(*bed.machine, *bed.registry);
  evacuator = std::make_unique<health::Evacuator>(
      *bed.allocator, policy->mutable_engine(), initiator);
  governor = std::make_unique<power::PowerGovernor>(
      *bed.allocator, policy->mutable_engine(), initiator);
  recover::SupervisorOptions supervision;
  supervision.migration_breaker.backoff.seed = derive_seed(seed, 0xb1);
  supervision.evacuation_breaker.backoff.seed = derive_seed(seed, 0xb2);
  supervisor =
      std::make_unique<recover::Supervisor>(bed.faults.get(), supervision);
  health::Evacuator* evac = evacuator.get();
  supervisor->set_evacuation_stats_provider([evac] {
    return std::make_pair(evac->stats().failed, evac->stats().moved);
  });

  runtime::RuntimePolicy& pol = *policy;
  if (tracer == nullptr) {
    pol.attach(exec, std::move(refresh));
    health::attach_health(pol, *monitor, *evacuator);
    power::attach_governor(pol, *governor);
    supervisor->attach(pol);
    return;
  }

  pol.attach(exec, [tracer, refresh = std::move(refresh)] {
    tracer->swap("apps.refresh", Layer::kApps);
    refresh();
  });
  exec.set_phase_observer([&pol, &exec, tracer](const sim::PhaseResult&) {
    tracer->swap("runtime.on_phase", Layer::kRuntime);
    tracer->open("runtime.sample", Layer::kRuntime);
    pol.on_phase(exec);
    tracer->close();
    tracer->swap("simmem.phase", Layer::kSimmem);
  });
  pol.add_epoch_hook(marker(tracer, "health.epoch", Layer::kHealth));
  health::attach_health(pol, *monitor, *evacuator);
  pol.add_epoch_hook(marker(tracer, "power.epoch", Layer::kPower));
  power::attach_governor(pol, *governor);
  pol.add_epoch_hook(marker(tracer, "recover.supervise", Layer::kRecover));
  supervisor->attach(pol);
  recover::Supervisor* sup = supervisor.get();
  pol.set_migration_gate([sup, tracer](std::uint64_t epoch) {
    tracer->swap("recover.gate", Layer::kRecover);
    const bool allow = sup->migration_breaker().allow(epoch);
    tracer->swap("runtime.engine", Layer::kRuntime);
    return allow;
  });
}

recover::CaptureSources RuntimeStack::sources(const Testbed& bed) const {
  recover::CaptureSources sources;
  sources.machine = bed.machine.get();
  sources.allocator = bed.allocator.get();
  sources.tenants = bed.tenants.get();
  sources.policy = policy.get();
  sources.health = monitor.get();
  sources.governor = governor.get();
  sources.faults = bed.faults.get();
  sources.supervisor = supervisor.get();
  sources.machine_preset = "xeon_clx_1lm";
  sources.probed = true;
  return sources;
}

recover::RestoreTargets RuntimeStack::targets(Testbed& bed) {
  recover::RestoreTargets targets;
  targets.machine = bed.machine.get();
  targets.allocator = bed.allocator.get();
  targets.tenants = bed.tenants.get();
  targets.policy = policy.get();
  targets.health = monitor.get();
  targets.governor = governor.get();
  targets.faults = bed.faults.get();
  targets.supervisor = supervisor.get();
  return targets;
}

void RuntimeStack::collect(PassResult& pass) const {
  pass.logs["decision"] = policy->render_decision_log();
  pass.logs["evacuator"] = evacuator->render_log();
  pass.logs["governor"] = governor->render_log();
  pass.logs["breakers"] = supervisor->render_log();
  pass.logs["health"] = monitor->render_transition_log();

  const runtime::EngineStats& engine = policy->engine().stats();
  std::uint64_t deferred = 0;
  for (const runtime::Decision& decision : policy->decisions()) {
    if (decision.verdict == runtime::Verdict::kRejectedBudget ||
        decision.verdict == runtime::Verdict::kRejectedTenantShare) {
      ++deferred;
    }
  }
  auto& c = pass.counts;
  c["runtime.epochs"] = static_cast<double>(policy->sampler().epochs_emitted());
  c["runtime.considered"] = static_cast<double>(engine.considered);
  c["runtime.accepted"] = static_cast<double>(engine.accepted);
  c["runtime.evicted"] = static_cast<double>(engine.evicted);
  c["runtime.rejected"] = static_cast<double>(engine.rejected);
  c["runtime.deferred"] = static_cast<double>(deferred);
  c["runtime.failed"] = static_cast<double>(engine.failed);
  c["runtime.useful_ratio"] =
      engine.considered > 0
          ? static_cast<double>(engine.accepted + engine.evicted) /
                static_cast<double>(engine.considered)
          : 0.0;
  c["runtime.migrated_mib"] = static_cast<double>(engine.migrated_bytes) / kMiB;

  const health::EvacuatorStats& evac = evacuator->stats();
  c["health.transitions"] = static_cast<double>(monitor->transitions().size());
  c["health.evac_moved"] = static_cast<double>(evac.moved);
  c["health.evac_skipped"] = static_cast<double>(evac.skipped);
  c["health.evac_useful_ratio"] =
      evacuator->decisions().empty()
          ? 0.0
          : static_cast<double>(evac.moved) /
                static_cast<double>(evacuator->decisions().size());

  const power::GovernorStats& power = governor->stats();
  c["power.over_cap_epochs"] = static_cast<double>(power.over_cap_epochs);
  c["power.drained_buffers"] = static_cast<double>(power.drained_buffers);
  c["power.throttle_events"] = static_cast<double>(power.throttle_events);

  const recover::BreakerStats& migration = supervisor->migration_breaker().stats();
  c["recover.breaker_opens"] = static_cast<double>(
      migration.opens + supervisor->evacuation_breaker().stats().opens);
  c["recover.skipped_epochs"] = static_cast<double>(migration.skipped);
}

}  // namespace perfbench
