// Phase-shifting KV-cache workload against the online runtime: checksum
// determinism under migration, rotation-driven promote/evict cycles, trace
// replay of a live run, refresh_arrays() coverage across every registered
// app runner, the cross-scenario budget invariant when phase-driven
// migrations and health evacuation share one epoch budget, and exact
// charges when the engine, the evacuator and the governor see failed moves.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <iterator>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "hetmem/alloc/allocator.hpp"
#include "hetmem/apps/graph500.hpp"
#include "hetmem/apps/kvcache.hpp"
#include "hetmem/apps/spmv.hpp"
#include "hetmem/apps/stream.hpp"
#include "hetmem/fault/fault.hpp"
#include "hetmem/health/evacuator.hpp"
#include "hetmem/health/health.hpp"
#include "hetmem/hmat/hmat.hpp"
#include "hetmem/power/governor.hpp"
#include "hetmem/power/power.hpp"
#include "hetmem/runtime/policy.hpp"
#include "hetmem/support/line_codec.hpp"
#include "hetmem/support/units.hpp"
#include "hetmem/tenant/arbiter.hpp"
#include "hetmem/tenant/tenant.hpp"
#include "hetmem/topo/presets.hpp"
#include "hetmem/trace/trace.hpp"

namespace hetmem {
namespace {

using support::kGiB;
using support::kMiB;

/// Short rotation: 4 segments x 6 phases covers every hot segment in 24
/// phases while staying fast enough for the test suite.
apps::KvCacheConfig small_kvcache() {
  apps::KvCacheConfig config;
  config.declared_value_bytes = 4 * kGiB;
  config.segments = 4;
  config.backing_keys_per_segment = 1u << 12;
  config.backing_lookups_per_thread = 512;
  config.phases = 24;
  config.shift_every_phases = 6;
  return config;
}

/// perfbench kv_rotation's kernel shape: 128 segments x 512 keys (65,536
/// Zipf ranks) on two threads at s = 1.0, rotating every 4 phases.
apps::KvCacheConfig rotation_shape_kvcache() {
  apps::KvCacheConfig config;
  config.declared_value_bytes = 128 * 256 * kMiB;
  config.segments = 128;
  config.declared_log_bytes = 128 * kMiB;
  config.backing_keys_per_segment = 512;
  config.threads = 2;
  config.backing_lookups_per_thread = 2048;
  config.shift_every_phases = 4;
  config.zipf_s = 1.0;
  config.phases = 16;
  return config;
}

runtime::RuntimePolicyOptions phase_policy_options() {
  runtime::RuntimePolicyOptions options;
  options.classifier.ema_alpha = 0.85;
  options.classifier.hysteresis_epochs = 2;
  options.engine.expected_future_epochs = 50.0;
  return options;
}

/// Identically-constructible testbed (the bench/ablation_phases scenario in
/// miniature): Xeon, fast DRAM squeezed so only one hot segment + the log
/// fit, KV-cache parked entirely on the NVDIMM node.
struct KvBed {
  sim::SimMachine machine;
  attr::MemAttrRegistry registry;
  alloc::HeterogeneousAllocator allocator;
  support::Bitmap initiator;
  unsigned fast = 0;
  unsigned slow = 0;
  std::unique_ptr<apps::KvCacheRunner> runner;
  bool ok = false;

  explicit KvBed(const apps::KvCacheConfig& config, bool squeeze_fast = true)
      : machine(topo::xeon_clx_1lm()),
        registry(machine.topology()),
        allocator(machine, registry),
        initiator(machine.topology().numa_node(0)->cpuset()) {
    if (!hmat::load_into(registry, hmat::generate(machine.topology())).ok()) {
      return;
    }
    for (const topo::Object* node : machine.topology().numa_nodes()) {
      if (node->memory_kind() == topo::MemoryKind::kNVDIMM) {
        slow = node->logical_index();
      }
    }
    if (squeeze_fast) {
      const std::uint64_t segment_bytes =
          config.declared_value_bytes / config.segments;
      const std::uint64_t headroom =
          segment_bytes + config.declared_log_bytes + 256 * kMiB;
      const std::uint64_t fast_free = machine.available_bytes(fast);
      if (fast_free > headroom) {
        auto hog = machine.allocate(fast_free - headroom, fast,
                                    "resident.hog", 4096);
        if (!hog.ok()) return;
      }
    }
    auto created = apps::KvCacheRunner::create(
        machine, &allocator, initiator, config,
        apps::KvCachePlacement::all_on_node(slow));
    if (!created.ok()) return;
    runner = std::move(created).take();
    ok = true;
  }
};

// ---------------------------------------------------------------------------
// KV-cache kernel
// ---------------------------------------------------------------------------

TEST(KvCacheTest, RotationScheduleAndResultShape) {
  KvBed bed(small_kvcache(), /*squeeze_fast=*/false);
  ASSERT_TRUE(bed.ok);
  auto result = bed.runner->run_phases(13);
  ASSERT_TRUE(result.ok()) << result.error().to_string();
  EXPECT_EQ(bed.runner->phases_run(), 13u);
  ASSERT_EQ(result->phase_ns.size(), 13u);
  ASSERT_EQ(result->hot_segments.size(), 13u);
  // hot = (phase / 6) % 4: phases 0-5 -> seg0, 6-11 -> seg1, 12 -> seg2.
  EXPECT_EQ(result->hot_segments[0], 0u);
  EXPECT_EQ(result->hot_segments[5], 0u);
  EXPECT_EQ(result->hot_segments[6], 1u);
  EXPECT_EQ(result->hot_segments[12], 2u);
  EXPECT_GT(result->lookups_per_second, 0.0);
  EXPECT_TRUE(std::isfinite(result->checksum));
  EXPECT_NE(result->checksum, 0.0);
}

TEST(KvCacheTest, RotationShapeRunMatchesRecordedValues) {
  // Every key draw feeds the checksum, and the per-segment hit mix feeds the
  // traffic behind each phase time, so a sampler or kernel change that
  // alters any draw moves these bits. The values were recorded with a
  // search over the whole CDF, so they also hold the guide-table search to
  // the same draws.
  KvBed bed(rotation_shape_kvcache(), /*squeeze_fast=*/false);
  ASSERT_TRUE(bed.ok);
  auto result = bed.runner->run();
  ASSERT_TRUE(result.ok()) << result.error().to_string();
  EXPECT_EQ(result->checksum, 0x1.22438p+19);
  const double expected_phase_ns[] = {
      0x1.c97724e505057p+29, 0x1.c9a5259f56b95p+29, 0x1.c9a5259f56b94p+29,
      0x1.c8eb08c0a3eb8p+29, 0x1.c97724e505058p+29, 0x1.c9a5259f56b98p+29,
      0x1.c948cb6f47698p+29, 0x1.c91a17dbff9p+29,   0x1.c97724e50505p+29,
      0x1.c9a5259f56b9p+29,  0x1.c9d2cef8321fp+29,  0x1.c91a17dbff9p+29,
      0x1.c97724e50505p+29,  0x1.c9a5259f56b9p+29,  0x1.c97724e50505p+29,
      0x1.c9a5259f56b9p+29,
  };
  ASSERT_EQ(result->phase_ns.size(), std::size(expected_phase_ns));
  for (std::size_t phase = 0; phase < result->phase_ns.size(); ++phase) {
    EXPECT_EQ(result->phase_ns[phase], expected_phase_ns[phase])
        << "phase " << phase;
  }
}

TEST(KvCacheTest, ChecksumIsPlacementIndependentUnderPolicyMigration) {
  // Same seed, same schedule — one bed pinned to the slow node, one managed
  // by the online policy (which demonstrably migrates). The kernel's answer
  // must not depend on where its buffers live.
  KvBed pinned(small_kvcache(), /*squeeze_fast=*/false);
  ASSERT_TRUE(pinned.ok);
  auto pinned_result = pinned.runner->run();
  ASSERT_TRUE(pinned_result.ok());

  KvBed managed(small_kvcache(), /*squeeze_fast=*/false);
  ASSERT_TRUE(managed.ok);
  runtime::RuntimePolicy policy(managed.allocator, managed.initiator,
                                phase_policy_options());
  policy.attach(managed.runner->exec(),
                [&] { managed.runner->refresh_arrays(); });
  auto managed_result = managed.runner->run();
  ASSERT_TRUE(managed_result.ok());

  EXPECT_GE(policy.engine().stats().accepted, 1u);
  EXPECT_DOUBLE_EQ(pinned_result->checksum, managed_result->checksum);
  // Migration helped: managed run is no slower than the all-slow pin.
  EXPECT_LE(managed_result->seconds, pinned_result->seconds * 1.02);
}

TEST(KvCacheTest, PolicyPromotesEveryHotSegmentAndEvictsCooledOnes) {
  KvBed bed(small_kvcache());
  ASSERT_TRUE(bed.ok);
  runtime::RuntimePolicy policy(bed.allocator, bed.initiator,
                                phase_policy_options());
  policy.attach(bed.runner->exec(), [&] { bed.runner->refresh_arrays(); });
  auto result = bed.runner->run();
  ASSERT_TRUE(result.ok()) << result.error().to_string();

  std::set<std::uint32_t> promoted;
  std::set<std::uint32_t> evicted;
  for (const runtime::Decision& decision : policy.engine().decisions()) {
    for (unsigned segment = 0; segment < 4; ++segment) {
      if (decision.buffer.index != bed.runner->segment_buffer(segment).index) {
        continue;
      }
      if (decision.verdict == runtime::Verdict::kAccepted &&
          decision.to_node == bed.fast) {
        promoted.insert(decision.buffer.index);
      }
      if (decision.verdict == runtime::Verdict::kEvicted) {
        evicted.insert(decision.buffer.index);
      }
    }
  }
  // Every rotation window promoted its hot segment, and with fast memory
  // squeezed to one-segment headroom the cooled segments had to be evicted
  // to make room.
  EXPECT_EQ(promoted.size(), 4u) << policy.render_decision_log();
  EXPECT_GE(evicted.size(), 2u) << policy.render_decision_log();
}

TEST(KvCacheTest, RecordedRunReplaysByteIdentically) {
  apps::KvCacheConfig config = small_kvcache();
  KvBed live(config);
  ASSERT_TRUE(live.ok);
  runtime::RuntimePolicy policy(live.allocator, live.initiator,
                                phase_policy_options());
  policy.attach(live.runner->exec(), [&] { live.runner->refresh_arrays(); });
  trace::TraceRecorder recorder({1, "kvcache.phases"});
  recorder.attach(live.runner->exec(), &policy);
  auto result = live.runner->run();
  ASSERT_TRUE(result.ok());
  const std::string live_log = policy.render_decision_log();
  ASSERT_EQ(recorder.epochs_recorded(), config.phases);

  auto parsed = trace::parse(trace::serialize(recorder.trace()));
  ASSERT_TRUE(parsed.ok()) << parsed.error().message;

  KvBed replay_bed(config);
  ASSERT_TRUE(replay_bed.ok);
  runtime::RuntimePolicy replay_policy(replay_bed.allocator,
                                       replay_bed.initiator,
                                       phase_policy_options());
  trace::TraceReplayer replayer(replay_policy);
  const trace::ReplayStats stats = replayer.replay(*parsed);
  EXPECT_EQ(stats.epochs, config.phases);
  EXPECT_EQ(replay_policy.render_decision_log(), live_log);
  EXPECT_FALSE(live_log.empty());
}

// ---------------------------------------------------------------------------
// refresh_arrays() coverage across every registered app runner
// ---------------------------------------------------------------------------

/// After a mid-run machine.migrate + refresh_arrays(), another run must
/// succeed and all traffic telemetry must reference live buffers only — no
/// stale ids left in the execution context's merged counters.
void expect_live_telemetry(sim::SimMachine& machine,
                           sim::ExecutionContext& exec) {
  runtime::EpochSampler sampler({.phases_per_epoch = 1});
  const runtime::Epoch epoch = sampler.force_epoch(exec);
  EXPECT_FALSE(epoch.samples.empty());
  for (const runtime::EpochSample& sample : epoch.samples) {
    ASSERT_LT(sample.buffer.index, machine.total_buffer_count());
    EXPECT_FALSE(machine.info(sample.buffer).freed)
        << "stale buffer id " << sample.buffer.index << " in telemetry";
  }
}

/// Migrates one of the workload's own buffers to `destination` (whichever
/// live buffer on `from` the label predicate owns first).
void migrate_one(sim::SimMachine& machine, unsigned from, unsigned destination,
                 const std::string& label_prefix) {
  for (sim::BufferId id : machine.live_buffers_on(from)) {
    const sim::BufferInfo info = machine.info(id);
    if (info.label.rfind(label_prefix, 0) == 0) {
      ASSERT_TRUE(machine.migrate(id, destination).ok()) << info.label;
      return;
    }
  }
  FAIL() << "no live '" << label_prefix << "*' buffer on node " << from;
}

class RefreshCoverageTest : public ::testing::Test {
 protected:
  RefreshCoverageTest()
      : machine_(topo::xeon_clx_1lm()),
        registry_(machine_.topology()),
        allocator_(machine_, registry_),
        initiator_(machine_.topology().numa_node(0)->cpuset()) {
    EXPECT_TRUE(
        hmat::load_into(registry_, hmat::generate(machine_.topology())).ok());
  }

  unsigned nvdimm_node() const {
    for (const topo::Object* node : machine_.topology().numa_nodes()) {
      if (node->memory_kind() == topo::MemoryKind::kNVDIMM) {
        return node->logical_index();
      }
    }
    return 0;
  }

  sim::SimMachine machine_;
  attr::MemAttrRegistry registry_;
  alloc::HeterogeneousAllocator allocator_;
  support::Bitmap initiator_;
};

TEST_F(RefreshCoverageTest, StreamSurvivesMidRunMigration) {
  apps::StreamConfig config;
  config.backing_elements = 1u << 16;
  config.iterations = 2;
  apps::BufferPlacement placement;
  placement.forced_node = 0;
  auto runner = apps::StreamRunner::create(machine_, nullptr, initiator_,
                                           config, placement);
  ASSERT_TRUE(runner.ok());
  ASSERT_TRUE((*runner)->run_triad().ok());
  migrate_one(machine_, 0, nvdimm_node(), "stream.");
  (*runner)->refresh_arrays();
  auto result = (*runner)->run_triad();
  ASSERT_TRUE(result.ok()) << result.error().to_string();
  EXPECT_TRUE(std::isfinite(result->checksum));
  expect_live_telemetry(machine_, (*runner)->exec());
}

TEST_F(RefreshCoverageTest, Graph500SurvivesMidRunMigration) {
  apps::Graph500Config config;
  config.scale_declared = 20;
  config.scale_backing = 12;
  config.num_roots = 2;
  auto runner = apps::Graph500Runner::create(
      machine_, nullptr, initiator_, config,
      apps::Graph500Placement::all_on_node(0));
  ASSERT_TRUE(runner.ok());
  ASSERT_TRUE((*runner)->run().ok());
  migrate_one(machine_, 0, nvdimm_node(), "g500.");
  (*runner)->refresh_arrays();
  auto result = (*runner)->run();
  ASSERT_TRUE(result.ok()) << result.error().to_string();
  expect_live_telemetry(machine_, (*runner)->exec());
}

TEST_F(RefreshCoverageTest, SpmvSurvivesMidRunMigration) {
  apps::SpmvConfig config;
  config.backing_rows = 1u << 12;
  config.iterations = 2;
  auto runner = apps::SpmvRunner::create(machine_, nullptr, initiator_, config,
                                         apps::SpmvPlacement::all_on_node(0));
  ASSERT_TRUE(runner.ok());
  ASSERT_TRUE((*runner)->run().ok());
  migrate_one(machine_, 0, nvdimm_node(), "spmv.");
  (*runner)->refresh_arrays();
  auto result = (*runner)->run();
  ASSERT_TRUE(result.ok()) << result.error().to_string();
  expect_live_telemetry(machine_, (*runner)->exec());
}

TEST_F(RefreshCoverageTest, KvCacheSurvivesMidRunMigration) {
  apps::KvCacheConfig config = small_kvcache();
  config.phases = 6;
  auto runner = apps::KvCacheRunner::create(
      machine_, nullptr, initiator_, config,
      apps::KvCachePlacement::all_on_node(0));
  ASSERT_TRUE(runner.ok());
  ASSERT_TRUE((*runner)->run_phases(3).ok());
  migrate_one(machine_, 0, nvdimm_node(), "kv.");
  (*runner)->refresh_arrays();
  auto result = (*runner)->run_phases(3);
  ASSERT_TRUE(result.ok()) << result.error().to_string();
  EXPECT_TRUE(std::isfinite(result->checksum));
  expect_live_telemetry(machine_, (*runner)->exec());
}

// ---------------------------------------------------------------------------
// Cross-scenario chaos: phase shifts + faults + mid-run quarantine
// ---------------------------------------------------------------------------

TEST(KvCachePhaseChaosTest, EvacuationAndPhaseMigrationsShareEpochBudget) {
  apps::KvCacheConfig config = small_kvcache();
  KvBed bed(config);
  ASSERT_TRUE(bed.ok);
  bed.allocator.set_retry_policy({.max_transient_retries = 8});

  // Faults go live only after setup so creation itself cannot fail.
  fault::FaultInjector injector = fault::FaultInjector::preset("heavy", 4242);
  bed.machine.set_fault_injector(&injector);

  constexpr std::uint64_t kBudget = 1536ull * kMiB;
  runtime::RuntimePolicyOptions options = phase_policy_options();
  options.engine.epoch_budget_bytes = kBudget;
  runtime::RuntimePolicy policy(bed.allocator, bed.initiator, options);

  // Mid-run health event: the fast DRAM node degrades at epoch 8, right
  // after the first rotation's promotion — the monitor must quarantine it
  // and the evacuator must pull the promoted segment back off while the
  // rotation keeps asking for phase-driven promotions.
  const unsigned victim = bed.fast;
  policy.add_epoch_hook([&](std::uint64_t epoch, unsigned) {
    if (epoch == 8) {
      EXPECT_TRUE(bed.machine.set_node_degraded(victim, true).ok());
    }
    return 0.0;
  });
  health::HealthMonitor monitor(bed.machine, bed.registry);
  health::Evacuator evacuator(bed.allocator, policy.mutable_engine(),
                              bed.initiator);
  health::attach_health(policy, monitor, evacuator);
  policy.attach(bed.runner->exec(), [&] { bed.runner->refresh_arrays(); });

  auto result = bed.runner->run();
  bed.machine.set_fault_injector(nullptr);
  ASSERT_TRUE(result.ok()) << result.error().to_string();
  EXPECT_TRUE(std::isfinite(result->checksum));

  // Exact-sum invariant: in EVERY epoch, engine promotions/evictions plus
  // evacuation moves together stay within the single shared byte budget.
  std::map<std::uint64_t, std::uint64_t> per_epoch_bytes;
  std::uint64_t engine_migrations = 0;
  for (const runtime::Decision& decision : policy.engine().decisions()) {
    if (decision.verdict == runtime::Verdict::kAccepted ||
        decision.verdict == runtime::Verdict::kEvicted) {
      per_epoch_bytes[decision.epoch] += decision.bytes;
      ++engine_migrations;
    }
  }
  std::uint64_t evacuated_off_victim = 0;
  for (const health::EvacDecision& decision : evacuator.decisions()) {
    if (decision.verdict == health::EvacVerdict::kMoved) {
      per_epoch_bytes[decision.epoch] += decision.bytes;
      if (decision.from_node == victim) ++evacuated_off_victim;
    }
  }
  for (const auto& [epoch, bytes] : per_epoch_bytes) {
    EXPECT_LE(bytes, kBudget)
        << "epoch " << epoch << " overspent the shared budget: " << bytes
        << " > " << kBudget << "\n"
        << policy.render_decision_log() << monitor.render_transition_log();
  }
  // Neither side starved: the rotation still migrated through the engine
  // AND the evacuator moved buffers off the quarantined node.
  EXPECT_GE(engine_migrations, 1u) << policy.render_decision_log();
  EXPECT_GE(evacuated_off_victim, 1u)
      << monitor.render_transition_log() << policy.render_decision_log();
}


TEST(KvCachePhaseChaosTest, ChargesMatchMovedBytesUnderMigrateFaults) {
  // All three movers share one pool split between two tenants, while
  // migrations fail at random and, for a few epochs, all of them. Every
  // epoch, the bytes charged to the pool and to each tenant's slice must be
  // exactly the bytes the decision logs say moved: a failed move keeps no
  // charge, and an eviction is charged to the tenant whose promotion needed
  // the room.
  apps::KvCacheConfig config = small_kvcache();
  config.declared_value_bytes = 8 * kGiB;
  config.segments = 16;
  config.threads = 2;
  config.phases = 48;
  KvBed bed(config);
  ASSERT_TRUE(bed.ok);
  ASSERT_TRUE(power::feed_registry(bed.registry, bed.machine).ok());

  tenant::TenantRegistry tenants;
  bed.allocator.set_tenant_registry(&tenants);
  auto front = tenants.register_tenant("kv.front", tenant::Priority::kCritical);
  auto batch = tenants.register_tenant("kv.batch", tenant::Priority::kNormal);
  ASSERT_TRUE(front.ok() && batch.ok());
  const std::uint64_t segment_bytes =
      config.declared_value_bytes / config.segments;
  std::map<std::string, tenant::TenantId> tenant_of_label;
  for (unsigned segment = 0; segment < config.segments; ++segment) {
    const tenant::TenantHandle& owner = segment % 2 == 0 ? *front : *batch;
    const sim::BufferId buffer = bed.runner->segment_buffer(segment);
    ASSERT_TRUE(
        bed.allocator.adopt_tenant_charge(buffer, owner, segment_bytes).ok());
    tenant_of_label[bed.machine.info(buffer).label] = owner->id();
  }
  tenant::GlobalArbiter arbiter(tenants);

  const std::uint64_t budget = 3 * segment_bytes;
  runtime::RuntimePolicyOptions options = phase_policy_options();
  options.engine.epoch_budget_bytes = budget;
  runtime::RuntimePolicy policy(bed.allocator, bed.initiator, options);
  runtime::MigrationEngine& engine = policy.mutable_engine();
  engine.set_arbiter(&arbiter);

  fault::FaultInjector injector(11);
  injector.configure(fault::site::kMachineMigrateTransient,
                     {.probability = 0.2});
  bed.machine.set_fault_injector(&injector);
  policy.add_epoch_hook([&](std::uint64_t epoch, unsigned) {
    if (epoch == 6) {
      EXPECT_TRUE(bed.machine.set_node_degraded(bed.slow, true).ok());
    }
    if (epoch == 14) {
      EXPECT_TRUE(bed.machine.set_node_degraded(bed.slow, false).ok());
    }
    // A stall window: every migration after this hook in epoch 36 and
    // before it in epoch 39 fails.
    if (epoch == 36 || epoch == 39) {
      injector.configure(fault::site::kMachineMigrateStall,
                         {.probability = epoch == 36 ? 1.0 : 0.0});
    }
    return 0.0;
  });
  health::HealthMonitor monitor(bed.machine, bed.registry);
  health::Evacuator evacuator(bed.allocator, engine, bed.initiator);
  health::attach_health(policy, monitor, evacuator);
  power::PowerGovernor governor(bed.allocator, engine, bed.initiator);
  power::attach_governor(policy, governor);
  bed.machine.set_power_cap_watts(1.0);

  // Checked after every mover has run: each log's cursor marks where this
  // epoch's decisions start.
  std::size_t engine_seen = 0;
  std::size_t evacuator_seen = 0;
  std::size_t governor_seen = 0;
  std::uint64_t granted_before = 0;
  std::uint64_t checked_epochs = 0;
  policy.add_epoch_hook([&](std::uint64_t epoch, unsigned) {
    std::map<tenant::TenantId, std::uint64_t> moved_by_tenant;
    std::uint64_t moved = 0;
    auto charge = [&](const std::string& payer_label, std::uint64_t bytes) {
      const auto owner = tenant_of_label.find(payer_label);
      moved_by_tenant[owner == tenant_of_label.end() ? tenant::kNoTenant
                                                     : owner->second] += bytes;
      moved += bytes;
    };
    for (; engine_seen < engine.decisions().size(); ++engine_seen) {
      const runtime::Decision& decision = engine.decisions()[engine_seen];
      if (decision.verdict == runtime::Verdict::kAccepted) {
        charge(decision.label, decision.bytes);
      } else if (decision.verdict == runtime::Verdict::kEvicted) {
        charge(decision.reason.detail, decision.bytes);
      }
    }
    for (; evacuator_seen < evacuator.decisions().size(); ++evacuator_seen) {
      const health::EvacDecision& decision =
          evacuator.decisions()[evacuator_seen];
      if (decision.verdict == health::EvacVerdict::kMoved) {
        charge(decision.label, decision.bytes);
      }
    }
    for (; governor_seen < governor.decisions().size(); ++governor_seen) {
      const power::PowerDecision& decision =
          governor.decisions()[governor_seen];
      if (decision.verdict == power::PowerVerdict::kDrained) {
        charge(decision.label, decision.bytes);
      }
    }

    const std::uint64_t left = engine.broker().remaining(epoch);
    EXPECT_LE(left, budget) << "epoch " << epoch;
    EXPECT_EQ(budget - left, moved) << "epoch " << epoch;
    EXPECT_EQ(arbiter.stats().bytes_granted - granted_before, moved)
        << "epoch " << epoch;
    granted_before = arbiter.stats().bytes_granted;
    for (const tenant::ArbiterSlice& slice : arbiter.slices()) {
      EXPECT_LE(slice.granted_bytes, slice.slice_bytes)
          << "epoch " << epoch << " " << slice.name;
      EXPECT_EQ(slice.granted_bytes, moved_by_tenant[slice.id])
          << "epoch " << epoch << " " << slice.name;
    }
    ++checked_epochs;
    return 0.0;
  });
  policy.attach(bed.runner->exec(), [&] { bed.runner->refresh_arrays(); });

  auto result = bed.runner->run();
  bed.machine.set_fault_injector(nullptr);
  ASSERT_TRUE(result.ok()) << result.error().to_string();
  EXPECT_EQ(checked_epochs, config.phases);

  // The run must exercise what the checks are about: all three movers
  // moved buffers, and migrations failed under each of them.
  EXPECT_GT(engine.stats().accepted, 0u);
  EXPECT_GT(engine.stats().evicted, 0u);
  EXPECT_GT(engine.stats().failed, 0u);
  // A promotion failed after its evictions moved: its reservation kept the
  // evictions' bytes and refunded its own.
  bool partial_refund = false;
  const std::vector<runtime::Decision>& decisions = engine.decisions();
  for (std::size_t i = 1; i < decisions.size(); ++i) {
    partial_refund |=
        decisions[i].verdict == runtime::Verdict::kFailedMigrate &&
        decisions[i - 1].verdict == runtime::Verdict::kEvicted &&
        decisions[i - 1].reason.detail == decisions[i].label;
  }
  EXPECT_TRUE(partial_refund);
  EXPECT_GT(evacuator.stats().moved, 0u);
  EXPECT_GT(governor.stats().drained_buffers, 0u);
  std::uint64_t evacuator_failed = 0;
  for (const health::EvacDecision& decision : evacuator.decisions()) {
    if (decision.verdict == health::EvacVerdict::kFailedMigrate) {
      ++evacuator_failed;
    }
  }
  EXPECT_GT(evacuator_failed, 0u);
  std::uint64_t governor_failed = 0;
  for (const power::PowerDecision& decision : governor.decisions()) {
    if (decision.verdict == power::PowerVerdict::kFailedMigrate) {
      ++governor_failed;
    }
  }
  EXPECT_GT(governor_failed, 0u);
  EXPECT_GT(injector.injected(fault::site::kMachineMigrateStall), 0u);
}

// ---------------------------------------------------------------------------
// Both movers' decision logs, pinned across commits
// ---------------------------------------------------------------------------

/// Both movers' verdicts and rendered logs from one digest scenario run.
struct MoverLogs {
  std::set<runtime::Verdict> engine_verdicts;
  std::set<health::EvacVerdict> evacuator_verdicts;
  std::string engine_log;
  std::string evacuator_log;
};

/// One seeded run that drives both movers through most of their verdicts:
/// a rotating hot set squeezed into fast memory (promotions, evictions), an
/// epoch budget carved between two tenants (tenant-share and budget
/// deferrals), and the slow node holding the segments degraded at epoch 6
/// and cleared at epoch 14 (quarantined drains that move hot segments and
/// reject warm ones on breakeven, then re-probation). `injector`, when not
/// null, goes live at epoch 24 (failed migrations, an offline node, urgent
/// drains). `renders`, when not null, receives the engine's log rendered at
/// the end of every epoch.
void run_digest_scenario(fault::FaultInjector* injector, MoverLogs* logs,
                         std::vector<std::string>* renders = nullptr) {
  apps::KvCacheConfig config = small_kvcache();
  config.declared_value_bytes = 8 * kGiB;
  config.segments = 16;
  config.threads = 2;
  config.phases = 48;
  KvBed bed(config);
  ASSERT_TRUE(bed.ok);
  bed.allocator.set_retry_policy({.max_transient_retries = 8});

  tenant::TenantRegistry tenants;
  bed.allocator.set_tenant_registry(&tenants);
  auto front = tenants.register_tenant("kv.front", tenant::Priority::kCritical);
  auto batch = tenants.register_tenant("kv.batch", tenant::Priority::kNormal);
  ASSERT_TRUE(front.ok() && batch.ok());
  const std::uint64_t segment_bytes =
      config.declared_value_bytes / config.segments;
  for (unsigned segment = 0; segment < config.segments; ++segment) {
    ASSERT_TRUE(bed.allocator
                    .adopt_tenant_charge(bed.runner->segment_buffer(segment),
                                         segment % 2 == 0 ? *front : *batch,
                                         segment_bytes)
                    .ok());
  }
  tenant::GlobalArbiter arbiter(tenants);

  runtime::RuntimePolicyOptions options = phase_policy_options();
  options.engine.epoch_budget_bytes = 3 * segment_bytes;
  runtime::RuntimePolicy policy(bed.allocator, bed.initiator, options);
  policy.mutable_engine().set_arbiter(&arbiter);
  policy.add_epoch_hook([&](std::uint64_t epoch, unsigned) {
    if (epoch == 6) {
      EXPECT_TRUE(bed.machine.set_node_degraded(bed.slow, true).ok());
    }
    if (epoch == 14) {
      EXPECT_TRUE(bed.machine.set_node_degraded(bed.slow, false).ok());
    }
    if (epoch == 24 && injector != nullptr) {
      bed.machine.set_fault_injector(injector);
    }
    return 0.0;
  });
  health::HealthMonitor monitor(bed.machine, bed.registry);
  health::Evacuator evacuator(bed.allocator, policy.mutable_engine(),
                              bed.initiator);
  health::attach_health(policy, monitor, evacuator);
  if (renders != nullptr) {
    policy.add_epoch_hook([&](std::uint64_t, unsigned) {
      renders->push_back(policy.engine().render_decision_log());
      return 0.0;
    });
  }
  policy.attach(bed.runner->exec(), [&] { bed.runner->refresh_arrays(); });

  auto result = bed.runner->run();
  bed.machine.set_fault_injector(nullptr);
  ASSERT_TRUE(result.ok()) << result.error().to_string();

  for (const runtime::Decision& decision : policy.decisions()) {
    logs->engine_verdicts.insert(decision.verdict);
  }
  for (const health::EvacDecision& decision : evacuator.decisions()) {
    logs->evacuator_verdicts.insert(decision.verdict);
  }
  logs->engine_log = policy.render_decision_log();
  logs->evacuator_log = evacuator.render_log();
}

TEST(KvCachePhaseChaosTest, DecisionLogsMatchRecordedDigests) {
  // The digest scenario with the heavy fault preset from epoch 24 on.
  fault::FaultInjector injector = fault::FaultInjector::preset("heavy", 4242);
  MoverLogs logs;
  ASSERT_NO_FATAL_FAILURE(run_digest_scenario(&injector, &logs));

  // The run reaches every verdict but the engine's rejected:no-target (the
  // HMAT always ranks some target) and rejected:budget (with an arbiter
  // installed, a tenant's slice runs out before the shared pool does).
  for (runtime::Verdict verdict :
       {runtime::Verdict::kAccepted, runtime::Verdict::kEvicted,
        runtime::Verdict::kRejectedCapacity,
        runtime::Verdict::kRejectedNoBenefit,
        runtime::Verdict::kRejectedBreakeven,
        runtime::Verdict::kRejectedTenantShare,
        runtime::Verdict::kFailedMigrate}) {
    EXPECT_EQ(logs.engine_verdicts.count(verdict), 1u)
        << runtime::verdict_name(verdict);
  }
  for (health::EvacVerdict verdict :
       {health::EvacVerdict::kMoved, health::EvacVerdict::kSkippedCold,
        health::EvacVerdict::kRejectedBreakeven,
        health::EvacVerdict::kRejectedNoTarget,
        health::EvacVerdict::kDeferredBudget,
        health::EvacVerdict::kDeferredTenantShare,
        health::EvacVerdict::kFailedMigrate}) {
    EXPECT_EQ(logs.evacuator_verdicts.count(verdict), 1u)
        << health::evac_verdict_name(verdict);
  }

  EXPECT_EQ(logs.engine_log.size(), 12417u);
  EXPECT_EQ(support::fnv1a64(logs.engine_log), 0x23beeda4bdba58d1ull)
      << logs.engine_log;
  EXPECT_EQ(logs.evacuator_log.size(), 33034u);
  EXPECT_EQ(support::fnv1a64(logs.evacuator_log), 0x75a16d3014c82471ull)
      << logs.evacuator_log;
}

TEST(KvCachePhaseChaosTest, DecisionLogsWithoutFaultsMatchRecordedDigests) {
  // The digest scenario with no fault injector: no migration fails, so how
  // a failed move is charged cannot show here. The digests were recorded
  // before the movers charged through one MigrationBroker and pin that
  // nothing else about charging a move changed.
  MoverLogs logs;
  ASSERT_NO_FATAL_FAILURE(run_digest_scenario(nullptr, &logs));

  for (runtime::Verdict verdict :
       {runtime::Verdict::kAccepted, runtime::Verdict::kEvicted,
        runtime::Verdict::kRejectedBreakeven,
        runtime::Verdict::kRejectedTenantShare}) {
    EXPECT_EQ(logs.engine_verdicts.count(verdict), 1u)
        << runtime::verdict_name(verdict);
  }
  EXPECT_EQ(logs.evacuator_verdicts.count(health::EvacVerdict::kMoved), 1u);
  EXPECT_EQ(logs.engine_verdicts.count(runtime::Verdict::kFailedMigrate), 0u);
  EXPECT_EQ(logs.evacuator_verdicts.count(health::EvacVerdict::kFailedMigrate),
            0u);

  EXPECT_EQ(logs.engine_log.size(), 13124u);
  EXPECT_EQ(support::fnv1a64(logs.engine_log), 0x0ee549a50e5d2d76ull)
      << logs.engine_log;
  EXPECT_EQ(logs.evacuator_log.size(), 16450u);
  EXPECT_EQ(support::fnv1a64(logs.evacuator_log), 0x0cb7b5cbadaf3fd3ull)
      << logs.evacuator_log;
}

TEST(KvCachePhaseChaosTest, EpochByEpochRenderReachesRecordedDigest) {
  // The no-fault digest scenario with the engine's log rendered after every
  // epoch. Each render appends only the decisions logged since the one
  // before, so every render is a prefix of the last, and the last is the
  // log rendered once at the end.
  MoverLogs logs;
  std::vector<std::string> renders;
  ASSERT_NO_FATAL_FAILURE(run_digest_scenario(nullptr, &logs, &renders));
  ASSERT_GE(renders.size(), 48u);
  EXPECT_EQ(renders.back(), logs.engine_log);
  EXPECT_EQ(logs.engine_log.size(), 13124u);
  EXPECT_EQ(support::fnv1a64(logs.engine_log), 0x0ee549a50e5d2d76ull);
  std::size_t grew = 0;
  for (std::size_t i = 0; i < renders.size(); ++i) {
    ASSERT_EQ(logs.engine_log.compare(0, renders[i].size(), renders[i]), 0)
        << "render " << i << " is not a prefix of the final log";
    if (i > 0 && renders[i].size() > renders[i - 1].size()) ++grew;
  }
  EXPECT_GT(grew, 10u);
}

}  // namespace
}  // namespace hetmem
