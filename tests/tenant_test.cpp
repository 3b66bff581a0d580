// Multi-tenant service tests (docs/TENANCY.md): the TenantRegistry
// lifecycle, per-tenant quota accounting, the degradation ladder's
// level/action/retry-after policy, the jittered backoff helper, the
// GlobalArbiter's weighted slices, and the allocator's tenant-aware
// admission path end to end on the xeon_clx_1lm preset.
#include "hetmem/tenant/tenant.hpp"

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "hetmem/alloc/allocator.hpp"
#include "hetmem/hmat/hmat.hpp"
#include "hetmem/memattr/memattr.hpp"
#include "hetmem/runtime/engine.hpp"
#include "hetmem/simmem/machine.hpp"
#include "hetmem/support/backoff.hpp"
#include "hetmem/support/units.hpp"
#include "hetmem/tenant/arbiter.hpp"
#include "hetmem/topo/presets.hpp"

namespace hetmem::tenant {
namespace {

using support::Backoff;
using support::BackoffOptions;
using support::Errc;
using support::kGiB;
using support::kMiB;
using support::parse_retry_after_ms;

// ---------------------------------------------------------------------------
// TenantRegistry lifecycle
// ---------------------------------------------------------------------------

TEST(TenantRegistry, RegisterFindDeregisterExactlyOnce) {
  TenantRegistry registry;
  auto a = registry.register_tenant("analytics", Priority::kNormal);
  ASSERT_TRUE(a.ok());
  EXPECT_EQ((*a)->id(), 1u);
  EXPECT_TRUE((*a)->live());
  EXPECT_EQ(registry.live_count(), 1u);

  // Duplicate names are refused; ids are never reused.
  auto dup = registry.register_tenant("analytics", Priority::kBestEffort);
  ASSERT_FALSE(dup.ok());
  EXPECT_EQ(dup.error().code, Errc::kAlreadyExists);
  auto b = registry.register_tenant("ingest", Priority::kCritical);
  ASSERT_TRUE(b.ok());
  EXPECT_EQ((*b)->id(), 2u);

  EXPECT_EQ(registry.find("analytics"), *a);
  EXPECT_EQ(registry.find(TenantId{2}), *b);
  EXPECT_EQ(registry.find("nope"), nullptr);
  EXPECT_EQ(registry.find(TenantId{99}), nullptr);

  ASSERT_TRUE(registry.deregister_tenant(*a).ok());
  EXPECT_FALSE((*a)->live());
  EXPECT_EQ(registry.live_count(), 1u);
  EXPECT_EQ(registry.find("analytics"), nullptr);
  // Second deregistration (stale handle) reports kNotFound — exactly-once.
  auto again = registry.deregister_tenant(*a);
  ASSERT_FALSE(again.ok());
  EXPECT_EQ(again.error().code, Errc::kNotFound);
}

TEST(TenantRegistry, RejectsBadRegistrations) {
  TenantRegistry registry;
  EXPECT_EQ(registry.register_tenant("", Priority::kNormal).error().code,
            Errc::kInvalidArgument);
  TenantQuota bad;
  bad.share_weight = 0.0;
  EXPECT_EQ(registry.register_tenant("x", Priority::kNormal, bad).error().code,
            Errc::kInvalidArgument);
  EXPECT_EQ(registry.deregister_tenant(nullptr).error().code,
            Errc::kInvalidArgument);
}

TEST(TenantRegistry, ShareFractionIsWeightOverLiveSum) {
  TenantRegistry registry;
  TenantQuota heavy;
  heavy.share_weight = 3.0;
  auto a = registry.register_tenant("a", Priority::kNormal, heavy);
  auto b = registry.register_tenant("b", Priority::kNormal);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_DOUBLE_EQ(registry.share_fraction(*a), 0.75);
  EXPECT_DOUBLE_EQ(registry.share_fraction(*b), 0.25);
  ASSERT_TRUE(registry.deregister_tenant(*a).ok());
  EXPECT_DOUBLE_EQ(registry.share_fraction(*b), 1.0);
  EXPECT_DOUBLE_EQ(registry.share_fraction(*a), 0.0) << "dead tenant has no share";
}

// ---------------------------------------------------------------------------
// Quota accounting on the Tenant handle
// ---------------------------------------------------------------------------

TEST(TenantQuotaAccounting, ChargeUnchargeAndTierMove) {
  TenantQuota quota;
  quota.total_cap_bytes = 10 * kGiB;
  quota.tier_cap_bytes[tier_index(topo::MemoryKind::kDRAM)] = 2 * kGiB;
  Tenant tenant(1, "t", Priority::kNormal, quota);

  EXPECT_EQ(tenant.try_charge(topo::MemoryKind::kDRAM, 2 * kGiB),
            ChargeResult::kOk);
  // Tier cap full: the failed charge must not leak into the total.
  EXPECT_EQ(tenant.try_charge(topo::MemoryKind::kDRAM, 1),
            ChargeResult::kTierCapExceeded);
  EXPECT_EQ(tenant.used_bytes(), 2 * kGiB);
  EXPECT_EQ(tenant.try_charge(topo::MemoryKind::kNVDIMM, 8 * kGiB),
            ChargeResult::kOk);
  EXPECT_EQ(tenant.try_charge(topo::MemoryKind::kNVDIMM, 1),
            ChargeResult::kTotalCapExceeded);

  // Migration re-homing moves the tier charge but not the total — and is
  // exempt from tier caps (an evacuation must not deadlock on a quota).
  tenant.move_charge(topo::MemoryKind::kNVDIMM, topo::MemoryKind::kDRAM,
                     4 * kGiB);
  EXPECT_EQ(tenant.used_bytes(topo::MemoryKind::kDRAM), 6 * kGiB);
  EXPECT_EQ(tenant.used_bytes(topo::MemoryKind::kNVDIMM), 4 * kGiB);
  EXPECT_EQ(tenant.used_bytes(), 10 * kGiB);

  tenant.uncharge(topo::MemoryKind::kDRAM, 6 * kGiB);
  tenant.uncharge(topo::MemoryKind::kNVDIMM, 4 * kGiB);
  EXPECT_EQ(tenant.used_bytes(), 0u);
}

// ---------------------------------------------------------------------------
// DegradationLadder policy
// ---------------------------------------------------------------------------

TEST(DegradationLadderPolicy, LevelsFollowFreeFractionThresholds) {
  const DegradationLadder ladder;
  EXPECT_EQ(ladder.level_for(0.80), OverloadLevel::kNormal);
  EXPECT_EQ(ladder.level_for(0.20), OverloadLevel::kSpillLowPriority);
  EXPECT_EQ(ladder.level_for(0.10), OverloadLevel::kShedBestEffort);
  EXPECT_EQ(ladder.level_for(0.01), OverloadLevel::kCriticalOnly);
}

TEST(DegradationLadderPolicy, ActionMatrixDegradesLowPriorityFirst) {
  const DegradationLadder ladder;
  using L = OverloadLevel;
  using P = Priority;
  using A = LadderAction;
  EXPECT_EQ(ladder.action(L::kNormal, P::kBestEffort), A::kPlace);
  EXPECT_EQ(ladder.action(L::kSpillLowPriority, P::kBestEffort), A::kSpill);
  EXPECT_EQ(ladder.action(L::kSpillLowPriority, P::kNormal), A::kPlace);
  EXPECT_EQ(ladder.action(L::kShedBestEffort, P::kBestEffort), A::kShed);
  EXPECT_EQ(ladder.action(L::kShedBestEffort, P::kNormal), A::kSpill);
  EXPECT_EQ(ladder.action(L::kShedBestEffort, P::kCritical), A::kPlace);
  EXPECT_EQ(ladder.action(L::kCriticalOnly, P::kNormal), A::kShed);
  EXPECT_EQ(ladder.action(L::kCriticalOnly, P::kBestEffort), A::kShed);
  EXPECT_EQ(ladder.action(L::kCriticalOnly, P::kCritical), A::kPlace);
}

TEST(DegradationLadderPolicy, RetryAfterGrowsWithLevelAndPriorityDistance) {
  const DegradationLadder ladder;  // base 4 ms
  EXPECT_EQ(ladder.retry_after_ms(OverloadLevel::kShedBestEffort,
                                  Priority::kBestEffort),
            4u << 4);
  EXPECT_EQ(ladder.retry_after_ms(OverloadLevel::kCriticalOnly,
                                  Priority::kNormal),
            4u << 4);
  EXPECT_EQ(ladder.retry_after_ms(OverloadLevel::kCriticalOnly,
                                  Priority::kBestEffort),
            4u << 5);
  EXPECT_GT(ladder.retry_after_ms(OverloadLevel::kCriticalOnly,
                                  Priority::kBestEffort),
            ladder.retry_after_ms(OverloadLevel::kShedBestEffort,
                                  Priority::kBestEffort));
}

TEST(TenantRegistry, OperatorOverrideOnlyRaisesTheLevel) {
  TenantRegistry registry;
  EXPECT_EQ(registry.effective_level(0.9), OverloadLevel::kNormal);
  registry.set_overload_override(OverloadLevel::kShedBestEffort);
  EXPECT_EQ(registry.effective_level(0.9), OverloadLevel::kShedBestEffort);
  // Measured pressure above the override still wins (max of the two).
  EXPECT_EQ(registry.effective_level(0.01), OverloadLevel::kCriticalOnly);
  registry.set_overload_override(std::nullopt);
  EXPECT_EQ(registry.effective_level(0.9), OverloadLevel::kNormal);
}

// ---------------------------------------------------------------------------
// Backoff helper
// ---------------------------------------------------------------------------

TEST(BackoffHelper, DeterministicPerSeedAndFlooredAtTheHint) {
  BackoffOptions options;
  options.seed = 42;
  Backoff a(options);
  Backoff b(options);
  for (int i = 0; i < 8; ++i) {
    const std::uint64_t delay = a.next_delay_ms(16);
    EXPECT_EQ(delay, b.next_delay_ms(16)) << "same seed, same schedule";
    EXPECT_GE(delay, 16u) << "the hint is a floor, never undercut";
    EXPECT_LE(delay, options.max_delay_ms);
  }
}

TEST(BackoffHelper, WindowGrowsThenCapsAndResets) {
  BackoffOptions options;
  options.max_delay_ms = 100;
  Backoff backoff(options);
  // Attempt 3 onward the window (16 * 2^3 = 128) exceeds the 100 ms cap, so
  // every later delay is within [16, 100] regardless of attempts.
  for (int i = 0; i < 10; ++i) {
    const std::uint64_t delay = backoff.next_delay_ms(16);
    EXPECT_GE(delay, 16u);
    EXPECT_LE(delay, 100u);
  }
  EXPECT_EQ(backoff.attempt(), 10u);
  backoff.reset();
  EXPECT_EQ(backoff.attempt(), 0u);
}

TEST(BackoffHelper, ParsesRetryAfterToken) {
  EXPECT_EQ(parse_retry_after_ms("shed ...; retry-after-ms=64"), 64u);
  EXPECT_EQ(parse_retry_after_ms("retry-after-ms=8; extra"), 8u);
  EXPECT_EQ(parse_retry_after_ms("no hint here"), 0u);
}

// ---------------------------------------------------------------------------
// GlobalArbiter
// ---------------------------------------------------------------------------

TEST(GlobalArbiterSlices, WeightsByPriorityAndShareWithDeficitBoost) {
  TenantRegistry registry;
  auto crit = registry.register_tenant("crit", Priority::kCritical);
  auto best = registry.register_tenant("best", Priority::kBestEffort);
  ASSERT_TRUE(crit.ok() && best.ok());

  GlobalArbiter arbiter(registry);
  arbiter.begin_epoch(1, 100);
  ASSERT_EQ(arbiter.slices().size(), 2u);
  // Weights 4 : 1 -> 80 / 20 split.
  EXPECT_EQ(arbiter.slice_remaining((*crit)->id()), 80u);
  EXPECT_EQ(arbiter.slice_remaining((*best)->id()), 20u);

  EXPECT_TRUE(arbiter.try_draw(1, (*crit)->id(), 60));
  EXPECT_EQ(arbiter.slice_remaining((*crit)->id()), 20u);
  EXPECT_FALSE(arbiter.try_draw(1, (*best)->id(), 30)) << "slice is 20";
  EXPECT_EQ(arbiter.stats().draws_denied, 1u);
  EXPECT_EQ(arbiter.stats().bytes_denied, 30u);

  // Untenanted draws and ids the epoch never sliced bypass arbitration.
  EXPECT_TRUE(arbiter.try_draw(1, kNoTenant, 1'000'000));
  EXPECT_TRUE(arbiter.try_draw(1, TenantId{777}, 1'000'000));

  // Next epoch: the denied tenant's weight gets a deficit boost
  // (1 + 30/100 = 1.3), so its slice grows at the other's expense.
  arbiter.begin_epoch(2, 100);
  EXPECT_GT(arbiter.slice_remaining((*best)->id()), 20u);
  EXPECT_LT(arbiter.slice_remaining((*crit)->id()), 80u);
  EXPECT_EQ(arbiter.stats().epochs, 2u);
  EXPECT_FALSE(arbiter.render_log().empty());
}

TEST(GlobalArbiterSlices, UnlimitedPoolMeansUnlimitedSlices) {
  TenantRegistry registry;
  auto t = registry.register_tenant("t", Priority::kNormal);
  ASSERT_TRUE(t.ok());
  GlobalArbiter arbiter(registry);
  arbiter.begin_epoch(1, UINT64_MAX);
  EXPECT_TRUE(arbiter.try_draw(1, (*t)->id(), UINT64_MAX / 2));
  EXPECT_TRUE(arbiter.try_draw(1, (*t)->id(), UINT64_MAX / 2));
  EXPECT_EQ(arbiter.stats().draws_denied, 0u);
}

// ---------------------------------------------------------------------------
// Allocator integration on xeon_clx_1lm
// ---------------------------------------------------------------------------

class TenantAllocTest : public ::testing::Test {
 protected:
  TenantAllocTest()
      : machine_(topo::xeon_clx_1lm()),
        registry_(machine_.topology()),
        allocator_(machine_, registry_) {
    EXPECT_TRUE(
        hmat::load_into(registry_, hmat::generate(machine_.topology())).ok());
    allocator_.set_tenant_registry(&tenants_);
  }

  alloc::AllocRequest request(std::uint64_t bytes, TenantHandle tenant,
                              attr::AttrId attribute = attr::kLatency) {
    alloc::AllocRequest r;
    r.bytes = bytes;
    r.attribute = attribute;
    r.initiator = machine_.topology().numa_node(0)->cpuset();
    r.label = "tenant-test";
    r.tenant = std::move(tenant);
    return r;
  }

  sim::SimMachine machine_;
  attr::MemAttrRegistry registry_;
  alloc::HeterogeneousAllocator allocator_;
  TenantRegistry tenants_;
};

TEST_F(TenantAllocTest, ChargesOnAllocRefundsOnFree) {
  auto t = tenants_.register_tenant("app", Priority::kNormal);
  ASSERT_TRUE(t.ok());
  auto allocation = allocator_.mem_alloc(request(64 * kMiB, *t));
  ASSERT_TRUE(allocation.ok()) << allocation.error().to_string();
  EXPECT_EQ((*t)->used_bytes(), 64 * kMiB);
  EXPECT_EQ((*t)->used_bytes(topo::MemoryKind::kDRAM), 64 * kMiB);
  EXPECT_EQ(allocator_.tenant_of(allocation->buffer), *t);
  EXPECT_EQ((*t)->stats().admitted, 1u);

  ASSERT_TRUE(allocator_.mem_free(allocation->buffer).ok());
  EXPECT_EQ((*t)->used_bytes(), 0u);
  EXPECT_EQ(allocator_.tenant_of(allocation->buffer), nullptr);
}

TEST_F(TenantAllocTest, UntenantedRequestsAreUntouched) {
  auto allocation = allocator_.mem_alloc(request(64 * kMiB, nullptr));
  ASSERT_TRUE(allocation.ok());
  EXPECT_EQ(allocator_.tenant_of(allocation->buffer), nullptr);
  EXPECT_TRUE(allocator_.mem_free(allocation->buffer).ok());
  EXPECT_EQ(allocator_.stats().backpressure_rejections, 0u);
}

TEST_F(TenantAllocTest, TierCapSpillsDownTheRankingNotFailure) {
  TenantQuota quota;
  quota.tier_cap_bytes[tier_index(topo::MemoryKind::kDRAM)] = kMiB;
  auto t = tenants_.register_tenant("cold", Priority::kNormal, quota);
  ASSERT_TRUE(t.ok());
  // Latency ranks DRAM (node 0) first, but the tenant's DRAM tier cap is
  // full at 1 MiB — the walk must fall through to the local NVDIMM instead
  // of failing the request.
  auto allocation = allocator_.mem_alloc(request(64 * kMiB, *t));
  ASSERT_TRUE(allocation.ok()) << allocation.error().to_string();
  EXPECT_EQ(machine_.topology().numa_node(allocation->node)->memory_kind(),
            topo::MemoryKind::kNVDIMM);
  EXPECT_EQ((*t)->used_bytes(topo::MemoryKind::kNVDIMM), 64 * kMiB);
  EXPECT_EQ((*t)->used_bytes(topo::MemoryKind::kDRAM), 0u);
  EXPECT_TRUE(allocator_.mem_free(allocation->buffer).ok());
}

TEST_F(TenantAllocTest, TotalCapIsQuotaBackpressureWithRetryHint) {
  TenantQuota quota;
  quota.total_cap_bytes = kGiB;
  auto t = tenants_.register_tenant("capped", Priority::kNormal, quota);
  ASSERT_TRUE(t.ok());
  auto refused = allocator_.mem_alloc(request(2 * kGiB, *t));
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.error().code, Errc::kBackpressure);
  EXPECT_GT(refused.error().retry_after_ms, 0u);
  EXPECT_EQ(parse_retry_after_ms(refused.error().message),
            refused.error().retry_after_ms)
      << refused.error().message;
  EXPECT_NE(refused.error().message.find("total cap"), std::string::npos);

  const auto stats = allocator_.stats();
  EXPECT_EQ(stats.backpressure_quota, 1u);
  EXPECT_EQ(stats.backpressure_rejections,
            stats.backpressure_health + stats.backpressure_quota +
                stats.backpressure_shed);
  EXPECT_EQ((*t)->stats().quota_rejections, 1u);
  EXPECT_EQ((*t)->used_bytes(), 0u) << "failed charge must not leak";
}

TEST_F(TenantAllocTest, StrictTierCapIsQuotaBackpressureToo) {
  TenantQuota quota;
  quota.tier_cap_bytes[tier_index(topo::MemoryKind::kDRAM)] = kMiB;
  auto t = tenants_.register_tenant("strict", Priority::kNormal, quota);
  ASSERT_TRUE(t.ok());
  auto r = request(64 * kMiB, *t);
  r.policy = alloc::Policy::kStrict;
  auto refused = allocator_.mem_alloc(r);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.error().code, Errc::kBackpressure);
  EXPECT_NE(refused.error().message.find("tier caps"), std::string::npos);
}

TEST_F(TenantAllocTest, OverrideShedsBestEffortButPlacesCritical) {
  auto best = tenants_.register_tenant("batch", Priority::kBestEffort);
  auto crit = tenants_.register_tenant("db", Priority::kCritical);
  ASSERT_TRUE(best.ok() && crit.ok());
  tenants_.set_overload_override(OverloadLevel::kShedBestEffort);

  auto shed = allocator_.mem_alloc(request(64 * kMiB, *best));
  ASSERT_FALSE(shed.ok());
  EXPECT_EQ(shed.error().code, Errc::kBackpressure);
  // L2 + best-effort: hint = 4 << (2 + 2) = 64 ms, carried both ways.
  EXPECT_EQ(shed.error().retry_after_ms, 64u);
  EXPECT_EQ(parse_retry_after_ms(shed.error().message), 64u);
  EXPECT_EQ((*best)->stats().shed, 1u);
  EXPECT_EQ(allocator_.stats().backpressure_shed, 1u);

  auto placed = allocator_.mem_alloc(request(64 * kMiB, *crit));
  ASSERT_TRUE(placed.ok()) << placed.error().to_string();
  EXPECT_TRUE(allocator_.mem_free(placed->buffer).ok());
  tenants_.set_overload_override(std::nullopt);
}

TEST_F(TenantAllocTest, DeadlineClampsTheRetryHint) {
  auto best = tenants_.register_tenant("batch", Priority::kBestEffort);
  ASSERT_TRUE(best.ok());
  tenants_.set_overload_override(OverloadLevel::kShedBestEffort);
  auto r = request(64 * kMiB, *best);
  r.deadline_ms = 7;
  auto shed = allocator_.mem_alloc(r);
  ASSERT_FALSE(shed.ok());
  EXPECT_EQ(shed.error().retry_after_ms, 7u)
      << "a hint beyond the caller's deadline is useless";
  tenants_.set_overload_override(std::nullopt);
}

TEST_F(TenantAllocTest, SpillSteersBestEffortOffHotNodes) {
  // Fill node 0 past the 90% spill occupancy threshold, then force the
  // spill level: a best-effort latency request must skip the hot DRAM node
  // and land on the other DRAM/NVDIMM target instead.
  auto filler = machine_.allocate(180 * kGiB, 0, "filler");
  ASSERT_TRUE(filler.ok());
  auto best = tenants_.register_tenant("batch", Priority::kBestEffort);
  ASSERT_TRUE(best.ok());
  tenants_.set_overload_override(OverloadLevel::kSpillLowPriority);

  auto allocation = allocator_.mem_alloc(request(64 * kMiB, *best));
  ASSERT_TRUE(allocation.ok()) << allocation.error().to_string();
  EXPECT_NE(allocation->node, 0u) << "hot node must be skipped on pass 0";
  EXPECT_EQ(allocator_.stats().tenant_spills, 1u);
  EXPECT_EQ((*best)->stats().spilled, 1u);

  // A critical tenant at the same level places normally — on the hot node.
  auto crit = tenants_.register_tenant("db", Priority::kCritical);
  ASSERT_TRUE(crit.ok());
  auto direct = allocator_.mem_alloc(request(64 * kMiB, *crit));
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ(direct->node, 0u);

  EXPECT_TRUE(allocator_.mem_free(allocation->buffer).ok());
  EXPECT_TRUE(allocator_.mem_free(direct->buffer).ok());
  ASSERT_TRUE(machine_.free(*filler).ok());
  tenants_.set_overload_override(std::nullopt);
}

TEST_F(TenantAllocTest, DeregisteredTenantIsRefusedButBuffersRefund) {
  auto t = tenants_.register_tenant("gone", Priority::kNormal);
  ASSERT_TRUE(t.ok());
  auto held = allocator_.mem_alloc(request(64 * kMiB, *t));
  ASSERT_TRUE(held.ok());
  ASSERT_TRUE(tenants_.deregister_tenant(*t).ok());

  auto refused = allocator_.mem_alloc(request(kMiB, *t));
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.error().code, Errc::kInvalidArgument);
  EXPECT_NE(refused.error().message.find("deregistered"), std::string::npos);

  // The outstanding buffer still refunds through the retained handle.
  EXPECT_EQ((*t)->used_bytes(), 64 * kMiB);
  ASSERT_TRUE(allocator_.mem_free(held->buffer).ok());
  EXPECT_EQ((*t)->used_bytes(), 0u);
}

TEST_F(TenantAllocTest, MigrationMovesTheTierCharge) {
  auto t = tenants_.register_tenant("mover", Priority::kNormal);
  ASSERT_TRUE(t.ok());
  auto allocation = allocator_.mem_alloc(request(64 * kMiB, *t));
  ASSERT_TRUE(allocation.ok());
  ASSERT_EQ(machine_.topology().numa_node(allocation->node)->memory_kind(),
            topo::MemoryKind::kDRAM);

  auto cost = allocator_.migrate(allocation->buffer, 2);  // NVDIMM
  ASSERT_TRUE(cost.ok()) << cost.error().to_string();
  EXPECT_EQ((*t)->used_bytes(topo::MemoryKind::kDRAM), 0u);
  EXPECT_EQ((*t)->used_bytes(topo::MemoryKind::kNVDIMM), 64 * kMiB);
  EXPECT_EQ((*t)->used_bytes(), 64 * kMiB);
  ASSERT_TRUE(allocator_.mem_free(allocation->buffer).ok());
  EXPECT_EQ((*t)->used_bytes(), 0u);
}

TEST_F(TenantAllocTest, HybridAndInterleavedRefuseTenantedRequests) {
  auto t = tenants_.register_tenant("split", Priority::kNormal);
  ASSERT_TRUE(t.ok());
  auto hybrid = allocator_.mem_alloc_hybrid(request(64 * kMiB, *t));
  ASSERT_FALSE(hybrid.ok());
  EXPECT_EQ(hybrid.error().code, Errc::kUnsupported);
  auto interleaved = allocator_.mem_alloc_interleaved(request(64 * kMiB, *t), 4);
  ASSERT_FALSE(interleaved.ok());
  EXPECT_EQ(interleaved.error().code, Errc::kUnsupported);
}

TEST_F(TenantAllocTest, EngineTenantDrawGatesOnArbiterSlices) {
  auto crit = tenants_.register_tenant("crit", Priority::kCritical);
  auto best = tenants_.register_tenant("best", Priority::kBestEffort);
  ASSERT_TRUE(crit.ok() && best.ok());
  auto held = allocator_.mem_alloc(request(64 * kMiB, *best));
  ASSERT_TRUE(held.ok());
  auto loose = allocator_.mem_alloc(request(64 * kMiB, nullptr));
  ASSERT_TRUE(loose.ok());

  runtime::EngineOptions options;
  options.epoch_budget_bytes = 100 * kMiB;
  runtime::MigrationEngine engine(
      allocator_, machine_.topology().numa_node(0)->cpuset(), options);
  GlobalArbiter arbiter(tenants_);
  engine.set_arbiter(&arbiter);

  // Weights 4:1 over a 100 MiB pool -> best-effort slice is 20 MiB: a
  // 64 MiB draw for its buffer is denied, while the untenanted buffer
  // bypasses slicing (classic mode unchanged).
  EXPECT_EQ(engine.broker().reserve(0, held->buffer, 64 * kMiB).refusal(),
            runtime::Refusal::kTenantShare);
  EXPECT_EQ(engine.broker().reserve(0, loose->buffer, 64 * kMiB).refusal(),
            runtime::Refusal::kNone);
  EXPECT_EQ(arbiter.stats().draws_denied, 1u);
  EXPECT_EQ(arbiter.stats().draws_granted, 1u);

  // Without an arbiter the draw is a no-op gate.
  engine.set_arbiter(nullptr);
  EXPECT_EQ(engine.broker().reserve(0, held->buffer, 64 * kMiB).refusal(),
            runtime::Refusal::kNone);

  EXPECT_TRUE(allocator_.mem_free(held->buffer).ok());
  EXPECT_TRUE(allocator_.mem_free(loose->buffer).ok());
}

}  // namespace
}  // namespace hetmem::tenant
