// Self-healing memory targets (docs/RESILIENCE.md "Health & evacuation"):
// the HealthMonitor's per-node state machine, quarantine-aware ranking
// composition, allocator admission control (backpressure), the fault-site
// catalog, and the Evacuator's budgeted drains. The HealthConcurrency suite
// runs under the CI TSan lane: allocation threads race quarantine
// transitions and evacuation without torn rankings or double-migration.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <new>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "hetmem/alloc/allocator.hpp"
#include "hetmem/fault/fault.hpp"
#include "hetmem/health/evacuator.hpp"
#include "hetmem/health/health.hpp"
#include "hetmem/hmat/hmat.hpp"
#include "hetmem/runtime/policy.hpp"
#include "hetmem/simmem/array.hpp"
#include "hetmem/support/units.hpp"
#include "hetmem/topo/presets.hpp"

// Counts every global operator new in this test binary, so a test can show
// how a call's allocations scale. The array forms forward to these. The
// nothrow form (std::stable_sort's buffer) is replaced too: under
// AddressSanitizer it would otherwise come from the sanitizer's own
// operator new and be released through the free() below. The deletes stay
// out of line: inlined next to a `new`, GCC would flag the malloc/free
// pair as a new/free mismatch.
namespace {
std::atomic<std::size_t> g_heap_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_heap_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* block = std::malloc(size == 0 ? 1 : size)) return block;
  throw std::bad_alloc();
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_heap_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}
[[gnu::noinline]] void operator delete(void* block) noexcept {
  std::free(block);
}
[[gnu::noinline]] void operator delete(void* block, std::size_t) noexcept {
  std::free(block);
}

namespace hetmem {
namespace {

using support::kGiB;
using support::kMiB;

sim::BufferTraffic streaming_traffic(double bytes) {
  sim::BufferTraffic traffic;
  traffic.reads = bytes / 64.0;
  traffic.llc_misses = bytes / 64.0;
  traffic.memory_bytes = bytes;
  return traffic;
}

sim::BufferTraffic random_traffic(double misses) {
  sim::BufferTraffic traffic;
  traffic.reads = misses;
  traffic.llc_misses = misses;
  traffic.random_accesses = misses;
  traffic.random_misses = misses;
  traffic.memory_bytes = misses * 64.0;
  return traffic;
}

runtime::Epoch make_epoch(
    std::uint64_t index,
    std::vector<std::pair<std::uint32_t, sim::BufferTraffic>> samples) {
  runtime::Epoch epoch;
  epoch.index = index;
  epoch.duration_ns = 1e9;
  for (auto& [buffer, traffic] : samples) {
    epoch.total_memory_bytes += traffic.memory_bytes;
    epoch.samples.push_back(
        runtime::EpochSample{sim::BufferId{buffer}, traffic});
  }
  return epoch;
}

runtime::ClassifierOptions immediate_classifier() {
  runtime::ClassifierOptions options;
  options.ema_alpha = 1.0;
  options.hysteresis_epochs = 1;
  return options;
}

class HealthTest : public ::testing::Test {
 protected:
  HealthTest()
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

  std::size_t node_count() const {
    return machine_.topology().numa_nodes().size();
  }

  sim::SimMachine machine_;
  attr::MemAttrRegistry registry_;
  alloc::HeterogeneousAllocator allocator_;
  support::Bitmap initiator_;
};

// ---------------------------------------------------------------------------
// HealthMonitor state machine
// ---------------------------------------------------------------------------

TEST_F(HealthTest, DegradedNodeEscalatesThenRecoversThroughProbation) {
  health::HealthMonitor monitor(machine_, registry_);
  ASSERT_TRUE(machine_.set_node_degraded(0, true).ok());

  // Degraded regime = fault evidence every poll: suspect on the first,
  // quarantined after faulty_polls_to_quarantine consecutive faulty polls.
  monitor.poll();
  EXPECT_EQ(monitor.state(0), health::HealthState::kSuspect);
  EXPECT_EQ(monitor.quarantine().verdict(0),
            health::PlacementVerdict::kNormal)
      << "suspect must not affect placement yet";
  monitor.poll();
  EXPECT_EQ(monitor.state(0), health::HealthState::kQuarantined);
  EXPECT_EQ(monitor.quarantine().verdict(0),
            health::PlacementVerdict::kDeprioritize);

  // Stays quarantined while the regime persists.
  monitor.poll();
  EXPECT_EQ(monitor.state(0), health::HealthState::kQuarantined);

  // Recovery is one state per clean streak: quarantined -> suspect
  // (re-probation) -> healthy, clean_polls_to_recover polls each.
  ASSERT_TRUE(machine_.set_node_degraded(0, false).ok());
  for (unsigned i = 0; i < monitor.options().clean_polls_to_recover; ++i) {
    EXPECT_EQ(monitor.state(0), health::HealthState::kQuarantined);
    monitor.poll();
  }
  EXPECT_EQ(monitor.state(0), health::HealthState::kSuspect);
  for (unsigned i = 0; i < monitor.options().clean_polls_to_recover; ++i) {
    monitor.poll();
  }
  EXPECT_EQ(monitor.state(0), health::HealthState::kHealthy);
  EXPECT_EQ(monitor.quarantine().verdict(0),
            health::PlacementVerdict::kNormal);

  const std::string log = monitor.render_transition_log();
  EXPECT_NE(log.find("healthy -> suspect"), std::string::npos) << log;
  EXPECT_NE(log.find("suspect -> quarantined"), std::string::npos) << log;
  EXPECT_NE(log.find("quarantined -> suspect"), std::string::npos) << log;
  EXPECT_NE(log.find("re-probation"), std::string::npos) << log;
}

TEST_F(HealthTest, ErrorBurstJumpsStraightToQuarantine) {
  health::HealthMonitor monitor(machine_, registry_);
  fault::FaultInjector injector(77);
  injector.configure(fault::site::kMachineAllocTransient,
                     {.probability = 1.0});
  machine_.set_fault_injector(&injector);
  // Every allocation attempt fails with an injected transient, each adding
  // one to the node's transient_faults telemetry.
  for (unsigned i = 0; i < monitor.options().quarantine_errors; ++i) {
    EXPECT_FALSE(machine_.allocate(kMiB, 0, "doomed").ok());
  }
  machine_.set_fault_injector(nullptr);

  monitor.poll();
  EXPECT_EQ(monitor.state(0), health::HealthState::kQuarantined);
  ASSERT_FALSE(monitor.transitions().empty());
  const health::HealthTransition& transition = monitor.transitions().back();
  EXPECT_EQ(transition.from, health::HealthState::kHealthy);
  EXPECT_EQ(transition.to, health::HealthState::kQuarantined);
  EXPECT_NE(transition.reason.find("error burst"), std::string::npos)
      << transition.reason;
}

TEST_F(HealthTest, OfflineIsDetectedAndReturnEntersProbation) {
  health::HealthMonitor monitor(machine_, registry_);
  const std::uint64_t before = registry_.generation();
  ASSERT_TRUE(machine_.set_node_online(1, false).ok());
  monitor.poll();
  EXPECT_EQ(monitor.state(1), health::HealthState::kOffline);
  EXPECT_EQ(monitor.quarantine().verdict(1),
            health::PlacementVerdict::kExclude);
  EXPECT_GT(registry_.generation(), before)
      << "every transition must invalidate cached rankings";

  // An excluded node disappears from every ranking composition.
  const auto query = attr::Initiator::from_cpuset(initiator_);
  for (const attr::TargetValue& target :
       registry_.targets_ranked(attr::kCapacity, query)) {
    EXPECT_NE(target.target->logical_index(), 1u);
  }

  // Back online: re-probation through quarantined, never straight to healthy.
  ASSERT_TRUE(machine_.set_node_online(1, true).ok());
  monitor.poll();
  EXPECT_EQ(monitor.state(1), health::HealthState::kQuarantined);
  EXPECT_NE(monitor.render_transition_log().find("probation"),
            std::string::npos);
}

TEST_F(HealthTest, MonitorInstallsAndUninstallsQuarantineList) {
  EXPECT_EQ(registry_.quarantine_list(), nullptr);
  {
    health::HealthMonitor monitor(machine_, registry_);
    EXPECT_EQ(registry_.quarantine_list(), &monitor.quarantine());
  }
  EXPECT_EQ(registry_.quarantine_list(), nullptr)
      << "destroyed monitor must uninstall its list";
}

// ---------------------------------------------------------------------------
// QuarantineList + ranking composition (registry-level)
// ---------------------------------------------------------------------------

TEST_F(HealthTest, QuarantinedTargetsSinkAndExcludedVanish) {
  health::QuarantineList list(node_count());
  EXPECT_TRUE(list.all_clear());
  EXPECT_EQ(list.verdict(999), health::PlacementVerdict::kNormal)
      << "out-of-range nodes read as normal";
  registry_.set_quarantine_list(&list);

  const auto query = attr::Initiator::from_cpuset(initiator_);
  const auto baseline = registry_.targets_ranked(attr::kBandwidth, query);
  ASSERT_GE(baseline.size(), 2u);
  const unsigned best = baseline.front().target->logical_index();

  // Deprioritize: the former best target sinks to the bottom of the same
  // ranking, and best_target picks the runner-up.
  list.set(best, health::PlacementVerdict::kDeprioritize);
  registry_.invalidate_rankings();
  auto ranked = registry_.targets_ranked(attr::kBandwidth, query);
  ASSERT_EQ(ranked.size(), baseline.size());
  EXPECT_EQ(ranked.back().target->logical_index(), best);
  auto top = registry_.best_target(attr::kBandwidth, query);
  ASSERT_TRUE(top.ok());
  EXPECT_NE(top->target->logical_index(), best);

  // Cached rankings agree bit-for-bit with the uncached composition.
  auto cached = registry_.targets_ranked_cached(attr::kBandwidth, query);
  ASSERT_EQ(cached->targets.size(), ranked.size());
  for (std::size_t i = 0; i < ranked.size(); ++i) {
    EXPECT_EQ(cached->targets[i].target, ranked[i].target);
    EXPECT_EQ(cached->targets[i].value, ranked[i].value);
  }

  // Exclude: the target vanishes from plain and resilient rankings alike.
  list.set(best, health::PlacementVerdict::kExclude);
  registry_.invalidate_rankings();
  for (const attr::TargetValue& target :
       registry_.targets_ranked(attr::kBandwidth, query)) {
    EXPECT_NE(target.target->logical_index(), best);
  }
  for (const attr::TargetValue& target :
       registry_.targets_ranked_resilient(attr::kBandwidth, query)) {
    EXPECT_NE(target.target->logical_index(), best);
  }

  list.set(best, health::PlacementVerdict::kNormal);
  registry_.invalidate_rankings();
  auto restored = registry_.targets_ranked(attr::kBandwidth, query);
  ASSERT_EQ(restored.size(), baseline.size());
  EXPECT_EQ(restored.front().target->logical_index(), best);
  registry_.set_quarantine_list(nullptr);
}

// ---------------------------------------------------------------------------
// Allocator: admission control + offline rescue skip
// ---------------------------------------------------------------------------

TEST_F(HealthTest, AllTargetsQuarantinedBackpressuresThenRecovers) {
  health::HealthMonitor monitor(machine_, registry_);
  for (unsigned node = 0; node < node_count(); ++node) {
    ASSERT_TRUE(machine_.set_node_degraded(node, true).ok());
  }
  monitor.poll();
  monitor.poll();
  for (unsigned node = 0; node < node_count(); ++node) {
    ASSERT_EQ(monitor.state(node), health::HealthState::kQuarantined);
  }

  alloc::AllocRequest request;
  request.bytes = 64 * kMiB;
  request.attribute = attr::kCapacity;
  request.initiator = initiator_;
  request.label = "gated";
  request.admission_control = true;

  // Admission control on: capacity exists but every target is unhealthy, so
  // the request fails with a clean kBackpressure (not kOutOfCapacity).
  auto gated = allocator_.mem_alloc(request);
  ASSERT_FALSE(gated.ok());
  EXPECT_EQ(gated.error().code, support::Errc::kBackpressure)
      << gated.error().to_string();
  EXPECT_NE(gated.error().message.find("quarantined"), std::string::npos);
  EXPECT_GE(allocator_.stats().backpressure_rejections, 1u);

  // Best-effort callers still land (degraded placement beats failure).
  request.admission_control = false;
  request.label = "best-effort";
  auto best_effort = allocator_.mem_alloc(request);
  ASSERT_TRUE(best_effort.ok());
  ASSERT_TRUE(allocator_.mem_free(best_effort->buffer).ok());

  // Re-probation: clean polls walk every node back to healthy, after which
  // the gated request succeeds — the allocator recovered without restart.
  for (unsigned node = 0; node < node_count(); ++node) {
    ASSERT_TRUE(machine_.set_node_degraded(node, false).ok());
  }
  for (unsigned i = 0; i < 2 * monitor.options().clean_polls_to_recover; ++i) {
    monitor.poll();
  }
  for (unsigned node = 0; node < node_count(); ++node) {
    ASSERT_EQ(monitor.state(node), health::HealthState::kHealthy);
  }
  request.admission_control = true;
  request.label = "recovered";
  auto recovered = allocator_.mem_alloc(request);
  ASSERT_TRUE(recovered.ok()) << recovered.error().to_string();
  EXPECT_TRUE(allocator_.mem_free(recovered->buffer).ok());
}

TEST_F(HealthTest, AdmissionFastFailSkipsRankingWalkWhenNothingIsHealthy) {
  // Zero healthy capacity must fail BEFORE the ranking machinery runs: the
  // fast-fail is the allocator's overload floor, and walking (or warming)
  // rankings for a request that cannot land anywhere would burn cycles
  // exactly when the machine is sickest.
  health::QuarantineList list(node_count());
  registry_.set_quarantine_list(&list);
  for (unsigned node = 0; node < node_count(); ++node) {
    list.set(node, health::PlacementVerdict::kExclude);
  }

  registry_.reset_ranking_cache_stats();
  alloc::AllocRequest request;
  request.bytes = 64 * kMiB;
  request.attribute = attr::kCapacity;
  request.initiator = initiator_;
  request.label = "fast-fail";
  request.admission_control = true;
  auto gated = allocator_.mem_alloc(request);
  ASSERT_FALSE(gated.ok());
  EXPECT_EQ(gated.error().code, support::Errc::kBackpressure)
      << gated.error().to_string();
  EXPECT_NE(gated.error().message.find("quarantined"), std::string::npos);

  const auto cache = registry_.ranking_cache_stats();
  EXPECT_EQ(cache.hits + cache.misses, 0u)
      << "fast-fail must not touch the ranking cache";
  const auto stats = allocator_.stats();
  EXPECT_GE(stats.backpressure_health, 1u);
  EXPECT_EQ(stats.backpressure_rejections,
            stats.backpressure_health + stats.backpressure_quota +
                stats.backpressure_shed);
  registry_.set_quarantine_list(nullptr);
}

TEST_F(HealthTest, AdmissionControlRoutesAroundQuarantinedTarget) {
  health::QuarantineList list(node_count());
  registry_.set_quarantine_list(&list);
  const auto query = attr::Initiator::from_cpuset(initiator_);
  const auto baseline = registry_.targets_ranked(attr::kCapacity, query);
  ASSERT_GE(baseline.size(), 2u);
  const unsigned best = baseline.front().target->logical_index();
  list.set(best, health::PlacementVerdict::kDeprioritize);
  registry_.invalidate_rankings();

  alloc::AllocRequest request;
  request.bytes = 64 * kMiB;
  request.attribute = attr::kCapacity;
  request.initiator = initiator_;
  request.label = "routed";
  request.admission_control = true;
  auto allocation = allocator_.mem_alloc(request);
  ASSERT_TRUE(allocation.ok()) << allocation.error().to_string();
  EXPECT_NE(allocation->node, best)
      << "admission control must withhold the quarantined target";
  EXPECT_EQ(allocator_.stats().backpressure_rejections, 0u);
  EXPECT_TRUE(allocator_.mem_free(allocation->buffer).ok());
  registry_.set_quarantine_list(nullptr);
}

TEST_F(HealthTest, RescuePathSkipsOfflineTargetEarly) {
  // No monitor installed: the ranking itself still lists the node, but the
  // allocator's walk checks node_online() first and reports "offline"
  // instead of probing a dead target as if it were merely full.
  const auto query = attr::Initiator::from_cpuset(initiator_);
  const auto baseline = registry_.targets_ranked(attr::kBandwidth, query);
  ASSERT_GE(baseline.size(), 2u);
  const unsigned best = baseline.front().target->logical_index();
  ASSERT_TRUE(machine_.set_node_online(best, false).ok());

  alloc::AllocRequest request;
  request.bytes = 64 * kMiB;
  request.attribute = attr::kBandwidth;
  request.initiator = initiator_;
  request.label = "fallback";
  auto fallback = allocator_.mem_alloc(request);
  ASSERT_TRUE(fallback.ok()) << fallback.error().to_string();
  EXPECT_NE(fallback->node, best);
  EXPECT_TRUE(fallback->fell_back);
  EXPECT_TRUE(allocator_.mem_free(fallback->buffer).ok());

  request.policy = alloc::Policy::kStrict;
  request.label = "strict";
  auto strict = allocator_.mem_alloc(request);
  ASSERT_FALSE(strict.ok());
  EXPECT_NE(strict.error().message.find("offline"), std::string::npos)
      << strict.error().to_string();
  ASSERT_TRUE(machine_.set_node_online(best, true).ok());
}

// ---------------------------------------------------------------------------
// Fault-site catalog (fault::all_sites)
// ---------------------------------------------------------------------------

TEST(FaultSiteCatalogTest, EveryBuiltInSiteIsListedExactlyOnce) {
  const std::vector<const char*> constants = {
      fault::site::kMachineAllocTransient, fault::site::kMachineNodeOffline,
      fault::site::kMachineMigrateTransient, fault::site::kMachineEccBurst,
      fault::site::kMachineNodeDegraded, fault::site::kMachinePowerThrottle,
      fault::site::kMachineMigrateStall, fault::site::kRuntimeEpochOverrun,
      fault::site::kProbeFail,
      fault::site::kProbeNoise, fault::site::kHmatDropEntry,
      fault::site::kHmatFlipAccess, fault::site::kHmatTruncateLine,
      fault::site::kHmatDuplicateEntry, fault::site::kHmatGarbleValue};
  const std::vector<fault::SiteInfo>& sites = fault::all_sites();
  EXPECT_EQ(sites.size(), constants.size());
  std::set<std::string> names;
  for (const fault::SiteInfo& info : sites) {
    EXPECT_TRUE(names.insert(info.name).second)
        << "duplicate site " << info.name;
    EXPECT_FALSE(std::string(info.consulted_by).empty()) << info.name;
    EXPECT_FALSE(std::string(info.effect).empty()) << info.name;
  }
  for (const char* constant : constants) {
    EXPECT_TRUE(names.count(constant)) << constant << " missing from catalog";
  }
}

TEST(FaultSiteCatalogTest, HeavyPresetArmsHealthTelemetrySites) {
  fault::FaultInjector heavy = fault::FaultInjector::preset("heavy", 9);
  fault::FaultInjector none = fault::FaultInjector::preset("none", 9);
  for (int i = 0; i < 2000; ++i) {
    (void)heavy.should_fail(fault::site::kMachineEccBurst);
    (void)heavy.should_fail(fault::site::kMachineNodeDegraded);
    (void)none.should_fail(fault::site::kMachineEccBurst);
  }
  EXPECT_GT(heavy.injected(fault::site::kMachineEccBurst), 0u);
  EXPECT_GT(heavy.injected(fault::site::kMachineNodeDegraded), 0u);
  EXPECT_EQ(none.total_injected(), 0u);
}

// ---------------------------------------------------------------------------
// Evacuator
// ---------------------------------------------------------------------------

class EvacuatorTest : public HealthTest {
 protected:
  EvacuatorTest()
      : engine_(allocator_, initiator_, {}),
        evacuator_(allocator_, engine_, initiator_) {}

  std::map<std::uint32_t, unsigned> moved_counts() const {
    std::map<std::uint32_t, unsigned> counts;
    for (const health::EvacDecision& decision : evacuator_.decisions()) {
      if (decision.verdict == health::EvacVerdict::kMoved) {
        ++counts[decision.buffer.index];
      }
    }
    return counts;
  }

  runtime::MigrationEngine engine_;
  health::Evacuator evacuator_;
};

TEST_F(EvacuatorTest, OfflineDrainMovesEverythingMostCriticalFirst) {
  const unsigned slow = nvdimm_node();
  auto chased = machine_.allocate(kGiB, slow, "evac.random", 4096);
  auto streamed = machine_.allocate(kGiB, slow, "evac.stream", 4096);
  auto untracked = machine_.allocate(kGiB, slow, "evac.untracked", 4096);
  ASSERT_TRUE(chased.ok() && streamed.ok() && untracked.ok());

  runtime::OnlineClassifier classifier(immediate_classifier());
  classifier.observe(make_epoch(0, {{chased->index, random_traffic(4e6)},
                                    {streamed->index,
                                     streaming_traffic(1e9)}}));
  ASSERT_EQ(classifier.committed(*chased), prof::Sensitivity::kLatency);
  ASSERT_EQ(classifier.committed(*streamed), prof::Sensitivity::kBandwidth);

  ASSERT_TRUE(machine_.set_node_online(slow, false).ok());
  const double paid =
      evacuator_.drain_epoch(0, slow, health::HealthState::kOffline, 4,
                             &classifier);
  EXPECT_GT(paid, 0.0);
  EXPECT_TRUE(evacuator_.drained(slow));
  EXPECT_EQ(evacuator_.stats().moved, 3u);
  for (sim::BufferId buffer : {*chased, *streamed, *untracked}) {
    EXPECT_NE(machine_.info(buffer).node, slow);
    EXPECT_TRUE(machine_.node_online(machine_.info(buffer).node));
  }
  // Criticality order: latency before bandwidth before untracked.
  ASSERT_EQ(evacuator_.decisions().size(), 3u);
  EXPECT_EQ(evacuator_.decisions()[0].buffer.index, chased->index);
  EXPECT_EQ(evacuator_.decisions()[1].buffer.index, streamed->index);
  EXPECT_EQ(evacuator_.decisions()[2].buffer.index, untracked->index);
  // Exactly once per buffer, and the repeat drain is a no-op.
  for (const auto& [buffer, count] : moved_counts()) {
    EXPECT_EQ(count, 1u) << "buffer " << buffer;
  }
  evacuator_.drain_epoch(1, slow, health::HealthState::kOffline, 4,
                         &classifier);
  EXPECT_EQ(evacuator_.stats().moved, 3u);
}

TEST_F(EvacuatorTest, QuarantinedDrainMovesHotKeepsColdAndGatesBreakeven) {
  const unsigned slow = nvdimm_node();
  auto hot = machine_.allocate(kGiB, slow, "evac.hot", 4096);
  auto barely = machine_.allocate(2 * kGiB, slow, "evac.barely", 4096);
  auto untracked = machine_.allocate(kGiB, slow, "evac.cold", 4096);
  ASSERT_TRUE(hot.ok() && barely.ok() && untracked.ok());

  runtime::OnlineClassifier classifier(immediate_classifier());
  // hot: enough traffic to amortize its copy within the horizon;
  // barely: tracked but nearly idle — a 2 GiB copy can never break even.
  classifier.observe(make_epoch(0, {{hot->index, random_traffic(5e7)},
                                    {barely->index, random_traffic(1e3)}}));

  evacuator_.drain_epoch(0, slow, health::HealthState::kQuarantined, 4,
                         &classifier);
  EXPECT_NE(machine_.info(*hot).node, slow) << evacuator_.render_log();
  EXPECT_EQ(machine_.info(*barely).node, slow);
  EXPECT_EQ(machine_.info(*untracked).node, slow);
  EXPECT_EQ(evacuator_.stats().moved, 1u);

  bool breakeven_logged = false, cold_logged = false;
  for (const health::EvacDecision& decision : evacuator_.decisions()) {
    if (decision.buffer.index == barely->index) {
      EXPECT_EQ(decision.verdict, health::EvacVerdict::kRejectedBreakeven);
      breakeven_logged = true;
    }
    if (decision.buffer.index == untracked->index) {
      EXPECT_EQ(decision.verdict, health::EvacVerdict::kSkippedCold);
      cold_logged = true;
    }
  }
  EXPECT_TRUE(breakeven_logged && cold_logged) << evacuator_.render_log();

  // Offline escalation: the gate lifts and the stragglers drain urgently.
  ASSERT_TRUE(machine_.set_node_online(slow, false).ok());
  evacuator_.drain_epoch(1, slow, health::HealthState::kOffline, 4,
                         &classifier);
  EXPECT_TRUE(evacuator_.drained(slow)) << evacuator_.render_log();
}

TEST_F(EvacuatorTest, DrainSharesEngineBudgetAndRetriesNextEpoch) {
  runtime::MigrationEngine tight(allocator_, initiator_,
                                 {.epoch_budget_bytes = 2 * kGiB});
  health::Evacuator evacuator(allocator_, tight, initiator_);
  const unsigned slow = nvdimm_node();
  auto first = machine_.allocate(2 * kGiB, slow, "evac.a", 4096);
  auto second = machine_.allocate(2 * kGiB, slow, "evac.b", 4096);
  ASSERT_TRUE(first.ok() && second.ok());
  ASSERT_TRUE(machine_.set_node_online(slow, false).ok());

  evacuator.drain_epoch(0, slow, health::HealthState::kOffline, 4);
  EXPECT_EQ(evacuator.stats().moved, 1u);
  EXPECT_EQ(evacuator.stats().deferred, 1u);
  EXPECT_EQ(tight.broker().remaining(0), 0u);

  // Level-triggered: the deferred buffer drains when the next epoch's
  // budget opens.
  evacuator.drain_epoch(1, slow, health::HealthState::kOffline, 4);
  EXPECT_EQ(evacuator.stats().moved, 2u);
  EXPECT_TRUE(evacuator.drained(slow));
}

TEST_F(EvacuatorTest, WarmBreakevenRejectionsAllocateNothingPerBuffer) {
  // Two quarantined NVDIMM nodes, one holding 32 nearly idle buffers and one
  // holding 128: every buffer is priced and rejected on breakeven in every
  // drain. A warm drain's heap allocations must not grow with the buffer
  // count. Growth of the decisions vector is not counted: a drain that
  // reallocates it is skipped. The decision record keeps its own copy of the
  // label; these labels, like kv_rotation's "kv.segN", fit the small-string
  // buffer.
  unsigned nvdimm[2] = {};
  unsigned found = 0;
  for (const topo::Object* node : machine_.topology().numa_nodes()) {
    if (node->memory_kind() == topo::MemoryKind::kNVDIMM && found < 2) {
      nvdimm[found++] = node->logical_index();
    }
  }
  ASSERT_EQ(found, 2u);
  const unsigned counts[2] = {32, 128};
  runtime::OnlineClassifier classifier(immediate_classifier());
  std::vector<std::pair<std::uint32_t, sim::BufferTraffic>> samples;
  for (unsigned n = 0; n < 2; ++n) {
    for (unsigned i = 0; i < counts[n]; ++i) {
      auto buffer = machine_.allocate(
          256 * kMiB, nvdimm[n], "evac." + std::to_string(n) + "." +
                                     std::to_string(i),
          4096);
      ASSERT_TRUE(buffer.ok());
      samples.emplace_back(buffer->index, random_traffic(1e3));
    }
  }
  classifier.observe(make_epoch(0, std::move(samples)));

  std::uint64_t epoch = 0;
  auto warm_drain_allocations = [&](unsigned node) {
    evacuator_.drain_epoch(epoch++, node, health::HealthState::kQuarantined,
                           4, &classifier);
    for (int attempt = 0; attempt < 8; ++attempt) {
      const std::size_t capacity = evacuator_.decisions().capacity();
      const std::size_t before = g_heap_allocations.load();
      evacuator_.drain_epoch(epoch++, node, health::HealthState::kQuarantined,
                             4, &classifier);
      const std::size_t made = g_heap_allocations.load() - before;
      if (evacuator_.decisions().capacity() == capacity) return made;
    }
    ADD_FAILURE() << "every drain reallocated the decisions vector";
    return std::size_t{0};
  };
  const std::size_t small = warm_drain_allocations(nvdimm[0]);
  const std::size_t large = warm_drain_allocations(nvdimm[1]);
  EXPECT_EQ(small, large);

  ASSERT_EQ(evacuator_.stats().moved, 0u);
  for (const health::EvacDecision& decision : evacuator_.decisions()) {
    ASSERT_EQ(decision.verdict, health::EvacVerdict::kRejectedBreakeven)
        << evacuator_.render_log();
  }
}

TEST_F(HealthTest, EngineRendersEachDecisionOnce) {
  // The engine keeps the decision log it rendered and appends only the
  // decisions logged since, so a render with nothing new formats nothing:
  // its one allocation is the copy it returns, whether the log holds 100
  // decisions or 1,000. (The engine's test lives here for this file's
  // allocation counter.)
  const unsigned slow = nvdimm_node();
  runtime::OnlineClassifier classifier(immediate_classifier());
  std::vector<std::pair<std::uint32_t, sim::BufferTraffic>> samples;
  for (unsigned i = 0; i < 10; ++i) {
    auto buffer = machine_.allocate(2 * kGiB, slow,
                                    "barely.warm." + std::to_string(i), 4096);
    ASSERT_TRUE(buffer.ok());
    samples.emplace_back(buffer->index, random_traffic(1e5));
  }
  classifier.observe(make_epoch(0, std::move(samples)));

  auto second_render_allocations = [&](std::size_t decisions) {
    runtime::MigrationEngine engine(allocator_, initiator_, {});
    for (std::uint64_t epoch = 0; engine.decisions().size() < decisions;
         ++epoch) {
      engine.run_epoch(epoch, classifier, 4);
    }
    EXPECT_EQ(engine.decisions().size(), decisions);
    EXPECT_EQ(engine.stats().rejected, decisions) << "every move is rejected";
    const std::string first = engine.render_decision_log();
    const std::size_t before = g_heap_allocations.load();
    const std::string second = engine.render_decision_log();
    const std::size_t made = g_heap_allocations.load() - before;
    EXPECT_EQ(second, first);
    return made;
  };
  EXPECT_EQ(second_render_allocations(100), 1u);
  EXPECT_EQ(second_render_allocations(1000), 1u);
}

TEST_F(EvacuatorTest, NoHealthyTargetIsReportedNotForced) {
  auto buffer = machine_.allocate(kGiB, 0, "evac.stranded", 4096);
  ASSERT_TRUE(buffer.ok());
  for (unsigned node = 0; node < node_count(); ++node) {
    ASSERT_TRUE(machine_.set_node_online(node, false).ok());
  }
  evacuator_.drain_epoch(0, 0, health::HealthState::kOffline, 4);
  EXPECT_EQ(evacuator_.stats().moved, 0u);
  EXPECT_EQ(machine_.info(*buffer).node, 0u);
  ASSERT_FALSE(evacuator_.decisions().empty());
  EXPECT_EQ(evacuator_.decisions().back().verdict,
            health::EvacVerdict::kRejectedNoTarget);
}

TEST_F(EvacuatorTest, HealthyAndSuspectNodesAreNeverDrained) {
  auto buffer = machine_.allocate(kGiB, 0, "evac.stay", 4096);
  ASSERT_TRUE(buffer.ok());
  EXPECT_EQ(evacuator_.drain_epoch(0, 0, health::HealthState::kHealthy, 4),
            0.0);
  EXPECT_EQ(evacuator_.drain_epoch(0, 0, health::HealthState::kSuspect, 4),
            0.0);
  EXPECT_TRUE(evacuator_.decisions().empty());
  EXPECT_EQ(machine_.info(*buffer).node, 0u);
}

// ---------------------------------------------------------------------------
// attach_health: policy-integrated poll + drain, end to end
// ---------------------------------------------------------------------------

TEST_F(HealthTest, AttachHealthEvacuatesMidRunNodeLoss) {
  auto buffer = machine_.allocate(kGiB, 0, "hot.app", 1u << 16);
  ASSERT_TRUE(buffer.ok());
  sim::Array<double> array(machine_, *buffer);
  sim::ExecutionContext exec(machine_, initiator_, 4);

  runtime::RuntimePolicyOptions options;
  options.classifier.ema_alpha = 1.0;
  options.classifier.hysteresis_epochs = 1;
  runtime::RuntimePolicy policy(allocator_, initiator_, options);
  health::HealthMonitor monitor(machine_, registry_);
  health::Evacuator evacuator(allocator_, policy.mutable_engine(), initiator_);
  health::attach_health(policy, monitor, evacuator);
  unsigned refreshes = 0;
  policy.attach(exec, [&] {
    array.refresh_model();
    ++refreshes;
  });

  for (unsigned phase = 0; phase < 12; ++phase) {
    if (phase == 6) {
      ASSERT_TRUE(machine_.set_node_online(0, false).ok());
    }
    exec.run_phase("hot", 4,
                   [&](sim::ThreadCtx& ctx, unsigned, std::size_t begin,
                       std::size_t end) {
                     if (begin >= end) return;
                     array.record_bulk_random_reads(ctx, 4e6);
                   });
  }

  // The hook noticed the loss, drained the buffer to a live node, and the
  // post-migration callback refreshed the application's view.
  EXPECT_EQ(monitor.state(0), health::HealthState::kOffline);
  EXPECT_NE(machine_.info(*buffer).node, 0u) << evacuator.render_log();
  EXPECT_TRUE(machine_.node_online(machine_.info(*buffer).node));
  EXPECT_TRUE(evacuator.drained(0));
  EXPECT_EQ(evacuator.stats().moved, 1u);
  EXPECT_GE(refreshes, 1u);
  EXPECT_GE(allocator_.stats().migrations, 1u);
}

// ---------------------------------------------------------------------------
// Concurrency (TSan lane): allocators race quarantine + evacuation
// ---------------------------------------------------------------------------

TEST(HealthConcurrency, AllocatorsRaceQuarantineTransitionsAndEvacuation) {
  sim::SimMachine machine(topo::xeon_clx_1lm());
  attr::MemAttrRegistry registry(machine.topology());
  ASSERT_TRUE(
      hmat::load_into(registry, hmat::generate(machine.topology())).ok());
  alloc::HeterogeneousAllocator allocator(machine, registry);
  allocator.set_trace_enabled(false);
  const support::Bitmap initiator = machine.topology().numa_node(0)->cpuset();

  health::HealthMonitor monitor(machine, registry);
  runtime::MigrationEngine engine(allocator, initiator, {});
  health::Evacuator evacuator(allocator, engine, initiator);

  constexpr unsigned kWorkers = 6;
  constexpr unsigned kIterations = 200;
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> backpressures{0};
  std::vector<std::thread> threads;

  // Workers allocate/free and read rankings while the control thread flips
  // node 1's health and drains it. Invariants checked per reader: the
  // generation is monotone, and no snapshot contains a node the reader can
  // prove was excluded before the snapshot's generation (TSan checks the
  // rest: no torn rankings, no data races on the verdict array).
  for (unsigned tid = 0; tid < kWorkers; ++tid) {
    threads.emplace_back([&, tid] {
      const auto query = attr::Initiator::from_cpuset(initiator);
      std::string label = "w";
      label += std::to_string(tid);
      std::uint64_t last_generation = 0;
      for (unsigned i = 0; i < kIterations; ++i) {
        const std::uint64_t generation = registry.generation();
        EXPECT_GE(generation, last_generation);
        last_generation = generation;

        auto snapshot = registry.targets_ranked_cached(attr::kCapacity, query);
        EXPECT_FALSE(snapshot->targets.empty());

        alloc::AllocRequest request{
            .bytes = (1 + i % 8) * kMiB,
            .attribute = i % 2 == 0 ? attr::kCapacity : attr::kBandwidth,
            .initiator = initiator,
            .label = label,
            .attribute_rescue = true,
            .admission_control = (i % 3 == 0),
            .tenant = {}};
        auto allocation = allocator.mem_alloc(request);
        if (allocation.ok()) {
          EXPECT_TRUE(machine.node_online(allocation->node));
          EXPECT_TRUE(allocator.mem_free(allocation->buffer).ok());
        } else if (allocation.error().code ==
                   support::Errc::kBackpressure) {
          backpressures.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }

  std::thread control([&] {
    std::uint64_t epoch = 0;
    while (!stop.load(std::memory_order_acquire)) {
      ASSERT_TRUE(machine.set_node_degraded(1, true).ok());
      monitor.poll();
      monitor.poll();  // degraded for two polls -> quarantined
      if (epoch % 4 == 3) (void)machine.set_node_online(1, false);
      monitor.poll();
      for (unsigned node : monitor.nodes_needing_evacuation()) {
        evacuator.drain_epoch(epoch, node, monitor.state(node), 4);
      }
      (void)machine.set_node_online(1, true);
      ASSERT_TRUE(machine.set_node_degraded(1, false).ok());
      for (unsigned i = 0; i <= monitor.options().clean_polls_to_recover * 2;
           ++i) {
        monitor.poll();
      }
      ++epoch;
    }
  });

  for (std::thread& thread : threads) thread.join();
  stop.store(true, std::memory_order_release);
  control.join();

  // The transition log narrates a sane sequence: every edge is one the
  // state machine allows, and the ranking generation only ever grew.
  for (const health::HealthTransition& t : monitor.transitions()) {
    EXPECT_NE(t.from, t.to);
  }
  // No worker buffer was migrated: workers free their own allocations and
  // the evacuator only ever drains live buffers off node 1, each at most
  // once per stay (no double-migration of the same live buffer).
  std::map<std::uint32_t, unsigned> moved;
  for (const health::EvacDecision& decision : evacuator.decisions()) {
    if (decision.verdict == health::EvacVerdict::kMoved) {
      ++moved[decision.buffer.index];
    }
  }
  for (const auto& [buffer, count] : moved) {
    EXPECT_LE(count, 1u) << "buffer " << buffer << " double-migrated";
  }
}

}  // namespace
}  // namespace hetmem
