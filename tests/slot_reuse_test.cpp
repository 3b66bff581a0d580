// Buffer slot reuse (docs/CONCURRENCY.md "Slot reuse", docs/RECOVERY.md):
// a freed buffer's slot is recycled under the next generation, every API
// refuses the dead buffer's handle, per-slot state starts over for the new
// buffer, the buffer table stays bounded by the peak number of live
// buffers, and snapshots, traces and restores stay exact across reuse.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "hetmem/alloc/allocator.hpp"
#include "hetmem/capi.h"
#include "hetmem/hmat/hmat.hpp"
#include "hetmem/memattr/memattr.hpp"
#include "hetmem/recover/snapshot.hpp"
#include "hetmem/runtime/classifier.hpp"
#include "hetmem/runtime/epoch.hpp"
#include "hetmem/runtime/policy.hpp"
#include "hetmem/simmem/array.hpp"
#include "hetmem/simmem/exec.hpp"
#include "hetmem/simmem/machine.hpp"
#include "hetmem/support/rng.hpp"
#include "hetmem/support/units.hpp"
#include "hetmem/tenant/tenant.hpp"
#include "hetmem/topo/presets.hpp"
#include "hetmem/trace/trace.hpp"
#include "text_records.hpp"

namespace {

using namespace hetmem;
using support::Errc;
using support::kGiB;
using support::kMiB;

/// `prefix` followed by `n` (appended, not `"literal" + std::string`, which
/// GCC 12 -O3 flags with a false -Wrestrict).
std::string numbered(std::string prefix, std::uint64_t n) {
  prefix += std::to_string(n);
  return prefix;
}

/// Allocates `label`, frees it and allocates `next`: the second buffer
/// takes the first one's slot under the next generation.
struct Reused {
  sim::BufferId dead;
  sim::BufferId live;
};

Reused reuse_one_slot(sim::SimMachine& machine) {
  Reused out;
  auto dead = machine.allocate(kMiB, 0, "dead", 4096);
  EXPECT_TRUE(dead.ok());
  EXPECT_TRUE(machine.free(*dead).ok());
  auto live = machine.allocate(2 * kMiB, 1, "live", 4096);
  EXPECT_TRUE(live.ok());
  out.dead = *dead;
  out.live = *live;
  EXPECT_EQ(out.live.index, out.dead.index);
  EXPECT_EQ(out.live.generation, out.dead.generation + 1);
  return out;
}

TEST(SlotReuseTest, MachineRefusesStaleHandleAfterReuse) {
  sim::SimMachine machine(topo::xeon_clx_1lm());
  auto freed = machine.allocate(kMiB, 0, "freed", 4096);
  ASSERT_TRUE(freed.ok());
  ASSERT_TRUE(machine.free(*freed).ok());
  // Freed but not reused yet: the slot still describes the dead buffer.
  EXPECT_EQ(machine.info(*freed).label, "freed");
  EXPECT_TRUE(machine.info(*freed).freed);
  ASSERT_EQ(machine.free_slots().size(), 1u);
  EXPECT_EQ(machine.free_slots()[0], *freed);

  const Reused slot = reuse_one_slot(machine);
  EXPECT_EQ(machine.total_buffer_count(), 1u);
  EXPECT_TRUE(machine.free_slots().empty());

  const sim::BufferId stale = slot.dead;
  EXPECT_EQ(machine.free(stale).error().code, Errc::kInvalidArgument);
  EXPECT_EQ(machine.migrate(stale, 2).error().code, Errc::kInvalidArgument);
  EXPECT_FALSE(machine.info_checked(stale).ok());
  EXPECT_EQ(machine.info(stale).label, "<invalid-buffer>");
  EXPECT_TRUE(machine.residency(stale).freed);
  EXPECT_EQ(machine.backing(stale), nullptr);
  EXPECT_EQ(std::as_const(machine).backing(stale), nullptr);

  // The buffer that took the slot is untouched by all of the above.
  const sim::BufferInfo info = machine.info(slot.live);
  EXPECT_EQ(info.label, "live");
  EXPECT_EQ(info.node, 1u);
  EXPECT_FALSE(info.freed);
  EXPECT_EQ(machine.residency(slot.live).declared_bytes, 2 * kMiB);
  EXPECT_NE(machine.backing(slot.live), nullptr);
  EXPECT_EQ(machine.used_bytes(1), 2 * kMiB);
  EXPECT_EQ(machine.live_buffers_on(1), std::vector<sim::BufferId>{slot.live});
  EXPECT_TRUE(machine.migrate(slot.live, 2).ok());
  EXPECT_TRUE(machine.free(slot.live).ok());
  EXPECT_EQ(machine.live_buffer_count(), 0u);
}

/// A machine, an HMAT-loaded registry and an allocator over xeon_clx_1lm.
struct Stack {
  sim::SimMachine machine{topo::xeon_clx_1lm()};
  attr::MemAttrRegistry registry{machine.topology()};
  alloc::HeterogeneousAllocator allocator{machine, registry};
  support::Bitmap initiator = machine.topology().numa_node(0)->cpuset();
  bool ok = hmat::load_into(registry, hmat::generate(machine.topology())).ok();

  support::Result<alloc::Allocation> alloc(std::uint64_t bytes,
                                           std::string label,
                                           tenant::TenantHandle owner) {
    alloc::AllocRequest request;
    request.bytes = bytes;
    request.initiator = initiator;
    request.label = std::move(label);
    request.tenant = std::move(owner);
    return allocator.mem_alloc(request);
  }
};

TEST(SlotReuseTest, AllocatorRefusesStaleHandleAfterReuse) {
  Stack stack;
  ASSERT_TRUE(stack.ok);
  tenant::TenantRegistry tenants;
  stack.allocator.set_tenant_registry(&tenants);
  auto first = tenants.register_tenant("first", tenant::Priority::kNormal);
  auto second = tenants.register_tenant("second", tenant::Priority::kNormal);
  ASSERT_TRUE(first.ok() && second.ok());

  auto dead = stack.alloc(8 * kMiB, "dead", *first);
  ASSERT_TRUE(dead.ok());
  ASSERT_TRUE(stack.allocator.mem_free(dead->buffer).ok());
  auto live = stack.alloc(4 * kMiB, "live", *second);
  ASSERT_TRUE(live.ok());
  ASSERT_EQ(live->buffer.index, dead->buffer.index);
  ASSERT_NE(live->buffer, dead->buffer);

  const sim::BufferId stale = dead->buffer;
  EXPECT_FALSE(stack.allocator.mem_free(stale).ok());
  EXPECT_FALSE(stack.allocator.migrate(stale, 2).ok());
  EXPECT_EQ(stack.allocator.tenant_of(stale), nullptr);
  EXPECT_EQ(stack.allocator.tenant_of(live->buffer), *second);
  // Neither refusal touched the live buffer's charge or the dead one's
  // refund.
  EXPECT_EQ((*first)->used_bytes(), 0u);
  EXPECT_EQ((*second)->used_bytes(), 4 * kMiB);
  EXPECT_EQ(stack.allocator.stats().frees, 1u);

  ASSERT_TRUE(stack.allocator.migrate(live->buffer, 2).ok());
  EXPECT_EQ((*second)->used_bytes(topo::MemoryKind::kNVDIMM), 4 * kMiB);
  ASSERT_TRUE(stack.allocator.mem_free(live->buffer).ok());
  EXPECT_EQ((*second)->used_bytes(), 0u);
}

TEST(SlotReuseTest, CApiRefusesStaleHandleAfterReuse) {
  hetmem_context* ctx = hetmem_context_create("xeon_clx_1lm");
  ASSERT_NE(ctx, nullptr);
  const int64_t dead = hetmem_alloc(ctx, 1ull << 30, HETMEM_ATTR_LATENCY,
                                    "0-39", HETMEM_POLICY_RANKED_FALLBACK,
                                    "dead");
  ASSERT_GE(dead, 0);
  ASSERT_EQ(hetmem_free(ctx, dead), HETMEM_SUCCESS);
  const int64_t live = hetmem_alloc(ctx, 1ull << 30, HETMEM_ATTR_LATENCY,
                                    "0-39", HETMEM_POLICY_RANKED_FALLBACK,
                                    "live");
  ASSERT_GE(live, 0);
  // Same slot (low 32 bits), next generation above it.
  EXPECT_NE(live, dead);
  EXPECT_EQ(live & 0xffffffff, dead & 0xffffffff);
  EXPECT_EQ(live >> 32, (dead >> 32) + 1);

  EXPECT_EQ(hetmem_free(ctx, dead), HETMEM_ERR_INVALID);
  EXPECT_EQ(hetmem_buffer_node(ctx, dead), HETMEM_ERR_INVALID);
  EXPECT_EQ(hetmem_migrate(ctx, dead, 2, nullptr), HETMEM_ERR_INVALID);

  EXPECT_EQ(hetmem_buffer_node(ctx, live), 0);
  double cost = 0.0;
  EXPECT_EQ(hetmem_migrate(ctx, live, 2, &cost), HETMEM_SUCCESS);
  EXPECT_EQ(hetmem_buffer_node(ctx, live), 2);
  EXPECT_EQ(hetmem_free(ctx, live), HETMEM_SUCCESS);
  EXPECT_EQ(hetmem_buffer_node(ctx, live), HETMEM_ERR_INVALID);
  hetmem_context_destroy(ctx);
}

// ---------------------------------------------------------------------------
// Bounded tables under churn
// ---------------------------------------------------------------------------

constexpr unsigned kChurnCycles = 200000;
constexpr std::size_t kMaxLive = 64;

TEST(SlotReuseTest, MachineChurnKeepsTheTableBoundedByLiveBuffers) {
  sim::SimMachine machine(topo::xeon_clx_1lm());
  support::Xoshiro256 rng(0x5107);
  std::vector<sim::BufferId> live;
  std::size_t allocations = 0;
  for (unsigned cycle = 0; cycle < kChurnCycles; ++cycle) {
    if (live.size() < kMaxLive && (live.empty() || rng.next_below(2) == 0)) {
      auto id = machine.allocate(kMiB, static_cast<unsigned>(cycle % 4),
                                 "churn", 64);
      ASSERT_TRUE(id.ok());
      live.push_back(*id);
      ++allocations;
    } else {
      const std::size_t victim = rng.next_below(live.size());
      ASSERT_TRUE(machine.free(live[victim]).ok());
      live[victim] = live.back();
      live.pop_back();
    }
  }
  EXPECT_GT(allocations, 50 * kMaxLive);
  EXPECT_LE(machine.total_buffer_count(), kMaxLive);
  EXPECT_EQ(machine.live_buffer_count(), live.size());
  std::uint64_t used = 0;
  for (unsigned node = 0; node < 4; ++node) used += machine.used_bytes(node);
  EXPECT_EQ(used, live.size() * kMiB);
}

TEST(SlotReuseTest, TenantChurnKeepsTablesBoundedByLiveBuffers) {
  Stack stack;
  ASSERT_TRUE(stack.ok);
  stack.allocator.set_trace_enabled(false);
  tenant::TenantRegistry tenants;
  stack.allocator.set_tenant_registry(&tenants);
  std::vector<tenant::TenantHandle> owners;
  for (int t = 0; t < 4; ++t) {
    tenant::TenantQuota quota;
    quota.total_cap_bytes = 48 * kMiB;
    auto owner = tenants.register_tenant(numbered("t", t),
                                         tenant::Priority::kNormal, quota);
    ASSERT_TRUE(owner.ok());
    owners.push_back(*owner);
  }
  struct Held {
    sim::BufferId id;
    std::size_t owner = 0;
  };
  support::Xoshiro256 rng(0x7e2a);
  std::vector<Held> live;
  std::size_t admitted = 0;
  for (unsigned cycle = 0; cycle < kChurnCycles; ++cycle) {
    if (live.size() < kMaxLive && (live.empty() || rng.next_below(2) == 0)) {
      const std::size_t owner = rng.next_below(owners.size());
      auto allocation = stack.alloc(kMiB, "churn", owners[owner]);
      if (!allocation.ok()) continue;  // a quota refusal is an outcome
      live.push_back({allocation->buffer, owner});
      ++admitted;
    } else {
      const std::size_t victim = rng.next_below(live.size());
      ASSERT_TRUE(stack.allocator.mem_free(live[victim].id).ok());
      // The dead handle stays refused once its slot is reused.
      live[victim] = live.back();
      live.pop_back();
    }
  }
  EXPECT_GT(admitted, 50 * kMaxLive);
  EXPECT_LE(stack.machine.total_buffer_count(), kMaxLive);
  for (std::size_t t = 0; t < owners.size(); ++t) {
    std::uint64_t held = 0;
    for (const Held& h : live) held += h.owner == t ? kMiB : 0;
    EXPECT_EQ(owners[t]->used_bytes(), held) << "tenant " << t;
  }
  for (const Held& h : live) {
    EXPECT_EQ(stack.allocator.tenant_of(h.id), owners[h.owner]);
  }
}

// ---------------------------------------------------------------------------
// Per-slot state starts over
// ---------------------------------------------------------------------------

TEST(SlotReuseTest, RecycledSlotStartsWithZeroTrafficAndFreshClassifierState) {
  sim::SimMachine machine(topo::xeon_clx_1lm());
  sim::ExecutionContext exec(machine,
                             machine.topology().numa_node(0)->cpuset(), 2);
  runtime::EpochSampler sampler;
  runtime::OnlineClassifier classifier;

  // A pointer-chased buffer, hot on both threads: latency-sensitive.
  auto dead = machine.allocate(kGiB, 0, "chased", 4096);
  ASSERT_TRUE(dead.ok());
  exec.run_phase("chase", 2,
                 [&](sim::ThreadCtx& ctx, unsigned, std::size_t begin,
                     std::size_t end) {
                   if (begin < end) ctx.record_rand_read(0, *dead, 4e6, 0.9);
                 });
  classifier.observe(sampler.force_epoch(exec));
  ASSERT_TRUE(classifier.tracked(*dead));
  ASSERT_EQ(classifier.committed(*dead), prof::Sensitivity::kLatency);

  // Its slot's next buffer is streamed lightly, by thread 0 only.
  ASSERT_TRUE(machine.free(*dead).ok());
  auto live = machine.allocate(kGiB, 0, "streamed", 4096);
  ASSERT_TRUE(live.ok());
  ASSERT_EQ(live->index, dead->index);
  const sim::PhaseResult& phase = exec.run_phase(
      "stream", 2,
      [&](sim::ThreadCtx& ctx, unsigned thread, std::size_t, std::size_t) {
        if (thread == 0) ctx.record_seq_read(0, *live, 64.0 * kMiB, 1.0);
      });
  EXPECT_EQ(phase.nodes[0].working_set_bytes, kGiB);

  // Thread 1 still holds the dead buffer's counters; no merge counts them.
  const std::vector<sim::BufferTraffic> merged = exec.merged_buffer_traffic();
  const sim::BufferTraffic& counted = merged[live->index];
  EXPECT_EQ(counted.reads, 64.0 * kMiB / 64.0);
  EXPECT_EQ(counted.memory_bytes, 64.0 * kMiB);
  EXPECT_EQ(counted.random_accesses, 0.0);
  EXPECT_EQ(exec.traffic_buffer(live->index), *live);

  const runtime::Epoch epoch = sampler.force_epoch(exec);
  ASSERT_EQ(epoch.samples.size(), 1u);
  EXPECT_EQ(epoch.samples[0].buffer, *live);
  EXPECT_EQ(epoch.samples[0].traffic.memory_bytes, 64.0 * kMiB);
  EXPECT_EQ(epoch.samples[0].traffic.random_misses, 0.0);

  classifier.observe(epoch);
  EXPECT_FALSE(classifier.tracked(*dead));
  const runtime::OnlineClassifier::BufferState* state =
      classifier.state_of(*live);
  ASSERT_NE(state, nullptr);
  // Seeded from its own first epoch, not blended into the dead buffer's EMA.
  EXPECT_EQ(state->ema.memory_bytes, 64.0 * kMiB);
  EXPECT_EQ(state->ema.random_misses, 0.0);
  EXPECT_EQ(state->disagreement_streak, 0u);
  EXPECT_NE(state->committed, prof::Sensitivity::kLatency);
}

// ---------------------------------------------------------------------------
// Snapshots and traces across reuse
// ---------------------------------------------------------------------------

runtime::RuntimePolicyOptions churn_options() {
  runtime::RuntimePolicyOptions options;
  options.classifier.ema_alpha = 0.85;
  options.classifier.hysteresis_epochs = 2;
  options.engine.expected_future_epochs = 50.0;
  return options;
}

/// A tenanted allocator stack with a policy, driven by seeded churn: every
/// instance built and driven alike holds the same ids.
struct ChurnStack : Stack {
  tenant::TenantRegistry tenants;
  std::vector<tenant::TenantHandle> owners;
  runtime::RuntimePolicy policy{allocator, initiator, churn_options()};
  std::vector<sim::BufferId> live;
  std::size_t peak_live = 0;

  ChurnStack() {
    allocator.set_tenant_registry(&tenants);
    for (const char* name : {"left", "right"}) {
      auto owner = tenants.register_tenant(name, tenant::Priority::kNormal);
      ok = ok && owner.ok();
      if (owner.ok()) owners.push_back(*owner);
    }
  }

  /// `cycles` seeded allocations (1-8 MiB, alternating tenants) and frees,
  /// at most `max_live` live at once.
  void churn(std::uint64_t seed, unsigned cycles, std::size_t max_live) {
    support::Xoshiro256 rng(seed);
    for (unsigned cycle = 0; cycle < cycles; ++cycle) {
      if (live.size() < max_live && (live.empty() || rng.next_below(3) != 0)) {
        auto allocation =
            alloc((1 + rng.next_below(8)) * kMiB, numbered("c", cycle),
                  owners[cycle % owners.size()]);
        ASSERT_TRUE(allocation.ok());
        live.push_back(allocation->buffer);
        peak_live = std::max(peak_live, live.size());
      } else {
        const std::size_t victim = rng.next_below(live.size());
        ASSERT_TRUE(allocator.mem_free(live[victim]).ok());
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(victim));
      }
    }
  }

  /// Replays a hot-set rotation over the live buffers.
  void run_epochs(unsigned epochs) {
    trace::SynthOptions synth;
    synth.epochs = epochs;
    trace::TraceReplayer replayer(policy);
    (void)replayer.replay(trace::synthesize_rotation(live, 2, 0.01, synth));
  }

  [[nodiscard]] std::string snapshot_text() const {
    recover::CaptureSources sources;
    sources.machine = &machine;
    sources.allocator = &allocator;
    sources.tenants = &tenants;
    sources.policy = &policy;
    return recover::serialize(recover::capture(sources));
  }
};

TEST(SlotReuseTest, ChurnedSnapshotIsBoundedAndRestoreContinuesByteIdentically) {
  constexpr std::size_t kPeak = 12;
  ChurnStack original;
  ASSERT_TRUE(original.ok);
  original.churn(11, 3000, kPeak);
  original.run_epochs(6);
  ASSERT_FALSE(original.policy.render_decision_log().empty());
  const std::string text = original.snapshot_text();

  // O(peak live) records, though 3000 requests went through the table.
  std::size_t slot_records = 0;
  std::size_t cstates = 0;
  for (const std::string& line : hetmem_test::lines_of(text)) {
    const std::string tag = hetmem_test::first_word(line);
    slot_records += tag == "buffer" || tag == "free" ? 1 : 0;
    cstates += tag == "cstate" ? 1 : 0;
  }
  EXPECT_LE(original.machine.total_buffer_count(), original.peak_live);
  EXPECT_LE(slot_records, original.peak_live);
  EXPECT_LE(cstates, original.peak_live);
  EXPECT_GT(cstates, 0u);

  // Restore into a fresh stack (rebuild mode: no live buffer yet).
  auto snap = recover::parse(text);
  ASSERT_TRUE(snap.ok()) << snap.error().message;
  ChurnStack restored;
  ASSERT_TRUE(restored.ok);
  recover::RestoreTargets targets;
  targets.machine = &restored.machine;
  targets.allocator = &restored.allocator;
  targets.tenants = &restored.tenants;
  targets.policy = &restored.policy;
  const support::Status applied = recover::restore(*snap, targets);
  ASSERT_TRUE(applied.ok()) << applied.error().message;
  EXPECT_EQ(restored.snapshot_text(), text);

  // Both continue alike: more churn reuses the restored free list, then
  // more epochs.
  original.live = original.machine.live_buffers();
  restored.live = restored.machine.live_buffers();
  ASSERT_EQ(restored.live, original.live);
  original.churn(12, 400, kPeak);
  restored.churn(12, 400, kPeak);
  ASSERT_EQ(restored.live, original.live);
  original.run_epochs(6);
  restored.run_epochs(6);
  EXPECT_EQ(restored.policy.render_decision_log(),
            original.policy.render_decision_log());
  EXPECT_EQ(restored.snapshot_text(), original.snapshot_text());
}

/// A `hetmem-snap/1` text recorded before slots were reused: four buffers
/// allocated through a tenanted allocator (keep0, gone1, keep2, gone3),
/// gone3 and gone1 freed, then three epochs of a rotation over keep0 and
/// keep2 replayed through a RuntimePolicy.
constexpr const char* kRecordedV1Snapshot = R"(hetmem-snap/1
preset 0 xeon_clx_1lm
machine 4 0x0p+0
node 0 0 0 0 0 0 0 0 1
node 1 0 0 0 0 0 0 0 1
node 2 0 0 0 0 0 0 0 1
node 3 0 0 0 0 0 0 0 1
npower 0 0x0p+0 0
npower 1 0x0p+0 0
npower 2 0x0p+0 0
npower 3 0x0p+0 0
buffers 4
buffer 0 0 67108864 65536 0 1 keep0
buffer 1 2 67108864 65536 1 0 gone1
buffer 2 0 33554432 65536 0 1 keep2
buffer 3 2 33554432 65536 1 0 gone3
tenant 1 1 0x1p+0 18446744073709551615 18446744073709551615 18446744073709551615 18446744073709551615 18446744073709551615 18446744073709551615 2 0 0 0 1 owner
tnext 2
astats 4 0 0 2 2 201326592 100663296 0 0 0 0 0 0 0 0
sampler 716632666546416052 6139096880363046005 6727192872932819891 8129731167615341197 0x0p+0 0 3 0x1p+0 0x0p+0
period 0 0x1p+0
period 1 0x1p+0
period 2 0x1p+0
classifier 0x1.dcc1306666666p+27 3
cstate 0 1 0x1.3592000000001p+19 0x0p+0 0x1.2c48800000001p+19 0x1.2c48800000001p+25 0x1.3592000000001p+19 0x1.2c48800000001p+19 0 0 0
cstate 1 0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 2 2 0
cstate 2 1 0x1.9fc58p+21 0x0p+0 0x1.934c6p+21 0x1.934c6p+27 0x1.9fc58p+21 0x1.934c6p+21 0 0 0
engine 4 2 0 2 0 100663296 0x1.e866666666667p+24 67108864
dlog epoch 0 accepted keep0 (buffer 0, latency) node 2 -> 0 64.0MiB benefit/epoch 92.958 ms, cost 21.339 ms — breakeven 0.2 epochs
dlog epoch 0 rejected:breakeven keep2 (buffer 2, latency) node 2 -> 0 32.0MiB benefit/epoch 0.930 ms, cost 10.669 ms — breakeven 11.5 epochs exceeds horizon 10.0
dlog epoch 1 rejected:breakeven keep2 (buffer 2, latency) node 2 -> 0 32.0MiB benefit/epoch 0.930 ms, cost 10.669 ms — breakeven 11.5 epochs exceeds horizon 10.0
dlog epoch 2 accepted keep2 (buffer 2, latency) node 2 -> 0 32.0MiB benefit/epoch 79.154 ms, cost 10.669 ms — breakeven 0.1 epochs
checksum ea4f367845025bc3
end
)";

TEST(SlotReuseTest, RecordedV1SnapshotStillRestores) {
  auto snap = recover::parse(kRecordedV1Snapshot);
  ASSERT_TRUE(snap.ok()) << snap.error().message;
  EXPECT_EQ(snap->buffers_total, 4u);
  ASSERT_EQ(snap->buffers.size(), 2u);
  // /1 freed slots become the free list, lowest index reused first.
  EXPECT_EQ(snap->free_slots,
            (std::vector<sim::BufferId>{{1, 0}, {3, 0}}));

  Stack stack;
  ASSERT_TRUE(stack.ok);
  tenant::TenantRegistry tenants;
  stack.allocator.set_tenant_registry(&tenants);
  runtime::RuntimePolicyOptions options;
  options.classifier.ema_alpha = 0.85;
  options.classifier.hysteresis_epochs = 2;
  runtime::RuntimePolicy policy(stack.allocator, stack.initiator, options);
  recover::RestoreTargets targets;
  targets.machine = &stack.machine;
  targets.allocator = &stack.allocator;
  targets.tenants = &tenants;
  targets.policy = &policy;
  const support::Status applied = recover::restore(*snap, targets);
  ASSERT_TRUE(applied.ok()) << applied.error().message;

  const sim::BufferInfo keep0 = stack.machine.info({0, 0});
  EXPECT_EQ(keep0.label, "keep0");
  EXPECT_EQ(keep0.node, 0u);
  EXPECT_FALSE(keep0.freed);
  EXPECT_EQ(stack.machine.info({2, 0}).label, "keep2");
  EXPECT_EQ(stack.machine.live_buffer_count(), 2u);
  EXPECT_EQ(stack.machine.used_bytes(0), 96 * kMiB);
  tenant::TenantHandle owner = tenants.find(1);
  ASSERT_NE(owner, nullptr);
  EXPECT_EQ(owner->used_bytes(), 96 * kMiB);
  EXPECT_EQ(stack.allocator.tenant_of({2, 0}), owner);
  EXPECT_TRUE(policy.classifier().tracked({0, 0}));
  EXPECT_EQ(policy.engine().render_decision_log(), snap->decision_log);

  // The next allocations reuse the freed slots under generation 1.
  auto reused = stack.alloc(kMiB, "new", nullptr);
  ASSERT_TRUE(reused.ok());
  EXPECT_EQ(reused->buffer, (sim::BufferId{1, 1}));

  // A capture writes /2, and /2 reads back to the same text.
  recover::CaptureSources sources;
  sources.machine = &stack.machine;
  sources.allocator = &stack.allocator;
  sources.tenants = &tenants;
  sources.policy = &policy;
  const std::string text = recover::serialize(recover::capture(sources));
  EXPECT_EQ(text.rfind("hetmem-snap/2\n", 0), 0u);
  auto again = recover::parse(text);
  ASSERT_TRUE(again.ok()) << again.error().message;
  EXPECT_EQ(recover::serialize(*again), text);
}

constexpr unsigned kTraceThreads = 2;

/// The trace tests' testbed: squeezed fast memory and three 1 GiB buffers
/// on the NVDIMM node.
struct TraceBed : Stack {
  unsigned slow = 2;
  std::vector<sim::BufferId> segments;

  TraceBed() {
    const std::uint64_t fast_free = machine.available_bytes(0);
    auto hog = machine.allocate(fast_free - 3 * kGiB / 2, 0, "hog", 4096);
    ok = ok && hog.ok();
    for (unsigned i = 0; i < 3; ++i) {
      auto segment = machine.allocate(kGiB, slow, numbered("seg", i),
                                      1u << 16);
      ok = ok && segment.ok();
      if (segment.ok()) segments.push_back(*segment);
    }
  }

  /// Frees seg1 and allocates seg3, which takes seg1's slot.
  sim::BufferId replace_segment() {
    EXPECT_TRUE(allocator.mem_free(segments[1]).ok());
    auto next = machine.allocate(kGiB, slow, "seg3", 1u << 16);
    EXPECT_TRUE(next.ok());
    EXPECT_EQ(next->index, segments[1].index);
    return next.ok() ? *next : sim::BufferId{};
  }
};

TEST(SlotReuseTest, TraceRecordedAcrossReuseReplaysToTheLiveLog) {
  TraceBed live;
  ASSERT_TRUE(live.ok);
  sim::ExecutionContext exec(live.machine, live.initiator, kTraceThreads);
  runtime::RuntimePolicy policy(live.allocator, live.initiator,
                                churn_options());
  trace::TraceRecorder recorder({1, "reuse"});
  recorder.attach(exec, &policy);
  auto chase = [&](sim::BufferId buffer, unsigned phases) {
    sim::Array<double> chased(live.machine, buffer);
    for (unsigned phase = 0; phase < phases; ++phase) {
      exec.run_phase("chase", kTraceThreads,
                     [&](sim::ThreadCtx& ctx, unsigned, std::size_t begin,
                         std::size_t end) {
                       if (begin < end) chased.record_bulk_random_reads(ctx, 4e6);
                     });
    }
  };
  chase(live.segments[1], 8);
  const sim::BufferId seg3 = live.replace_segment();
  ASSERT_EQ(seg3.generation, 1u);
  chase(seg3, 8);
  const std::string live_log = policy.render_decision_log();
  ASSERT_NE(live_log.find("seg3"), std::string::npos) << live_log;

  // The trace names seg3 by its packed id.
  const std::string text = trace::serialize(recorder.trace());
  EXPECT_NE(text.find(numbered("\ns ", seg3.packed()) + ' '),
            std::string::npos);
  auto parsed = trace::parse(text);
  ASSERT_TRUE(parsed.ok()) << parsed.error().message;
  ASSERT_EQ(parsed->epochs.size(), 16u);

  // Replay on a fresh bed that frees and reallocates at the same epoch.
  TraceBed replay;
  ASSERT_TRUE(replay.ok);
  runtime::RuntimePolicy replayed(replay.allocator, replay.initiator,
                                  churn_options());
  auto replay_epochs = [&](std::size_t begin, std::size_t end) {
    for (std::size_t e = begin; e < end; ++e) {
      (void)replayed.replay_epoch(parsed->epochs[e], parsed->threads);
    }
  };
  replay_epochs(0, 8);
  EXPECT_EQ(replay.replace_segment(), seg3);
  replay_epochs(8, 16);
  EXPECT_EQ(replayed.render_decision_log(), live_log);
}

}  // namespace
