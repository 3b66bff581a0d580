// C API tests: the hwloc-shaped interface, exercised the way a C runtime
// would use it (string cpusets, integer handles, negative-error returns).
#include "hetmem/capi.h"

#include <gtest/gtest.h>

#include <cstring>
#include <string>

namespace {

class CapiTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ctx_ = hetmem_context_create("xeon_clx_1lm");
    ASSERT_NE(ctx_, nullptr);
  }
  void TearDown() override { hetmem_context_destroy(ctx_); }

  hetmem_context* ctx_ = nullptr;
  const char* kPackage0 = "0-39";  // socket 0's PUs on xeon_clx_1lm
};

TEST(CapiLifecycle, UnknownPresetReturnsNull) {
  EXPECT_EQ(hetmem_context_create("no-such-machine"), nullptr);
  EXPECT_EQ(hetmem_context_create(nullptr), nullptr);
}

TEST(CapiLifecycle, ListPresets) {
  const int total = hetmem_list_presets(nullptr, 0);
  ASSERT_GE(total, 8);
  std::vector<const char*> names(static_cast<size_t>(total));
  EXPECT_EQ(hetmem_list_presets(names.data(), names.size()), total);
  bool found = false;
  for (const char* name : names) found |= std::strcmp(name, "knl_snc4_flat") == 0;
  EXPECT_TRUE(found);
  // Every listed preset constructs.
  for (const char* name : names) {
    hetmem_context* ctx = hetmem_context_create(name);
    ASSERT_NE(ctx, nullptr) << name;
    hetmem_context_destroy(ctx);
  }
}

TEST(CapiLifecycle, DestroyNullIsSafe) { hetmem_context_destroy(nullptr); }

TEST_F(CapiTest, TopologyQueries) {
  EXPECT_EQ(hetmem_numa_count(ctx_), 4);
  EXPECT_EQ(hetmem_pu_count(ctx_), 80);
  EXPECT_EQ(hetmem_node_capacity(ctx_, 0), 192ull << 30);
  EXPECT_EQ(hetmem_node_capacity(ctx_, 2), 768ull << 30);
  EXPECT_EQ(hetmem_node_capacity(ctx_, 99), 0u);
  EXPECT_STREQ(hetmem_node_kind_debug(ctx_, 0), "DRAM");
  EXPECT_STREQ(hetmem_node_kind_debug(ctx_, 2), "NVDIMM");
  EXPECT_EQ(hetmem_node_kind_debug(ctx_, 99), nullptr);
}

TEST_F(CapiTest, NodeCpusetStringRoundTrip) {
  char buf[64];
  const int needed = hetmem_node_cpuset(ctx_, 0, buf, sizeof(buf));
  ASSERT_GT(needed, 0);
  EXPECT_STREQ(buf, "0-39");
  // Truncation still NUL-terminates and reports the full length.
  char tiny[3];
  EXPECT_EQ(hetmem_node_cpuset(ctx_, 0, tiny, sizeof(tiny)), needed);
  EXPECT_EQ(tiny[2], '\0');
}

TEST_F(CapiTest, LocalNodes) {
  unsigned nodes[8];
  const int count = hetmem_local_nodes(ctx_, kPackage0, nodes, 8);
  ASSERT_EQ(count, 2);
  EXPECT_EQ(nodes[0], 0u);
  EXPECT_EQ(nodes[1], 2u);
  EXPECT_EQ(hetmem_local_nodes(ctx_, "zz", nodes, 8), HETMEM_ERR_PARSE);
}

TEST_F(CapiTest, GetValueAndBestTarget) {
  double value = 0.0;
  ASSERT_EQ(hetmem_memattr_get_value(ctx_, HETMEM_ATTR_LATENCY, 0, kPackage0,
                                     &value),
            HETMEM_SUCCESS);
  EXPECT_DOUBLE_EQ(value, 26.0);  // advertised HMAT figure
  ASSERT_EQ(hetmem_memattr_get_value(ctx_, HETMEM_ATTR_CAPACITY, 2, nullptr,
                                     &value),
            HETMEM_SUCCESS);
  EXPECT_DOUBLE_EQ(value, static_cast<double>(768ull << 30));

  unsigned node = 99;
  ASSERT_EQ(hetmem_memattr_get_best_target(ctx_, HETMEM_ATTR_LATENCY,
                                           kPackage0, &node, &value),
            HETMEM_SUCCESS);
  EXPECT_EQ(node, 0u);
  ASSERT_EQ(hetmem_memattr_get_best_target(ctx_, HETMEM_ATTR_CAPACITY,
                                           kPackage0, &node, &value),
            HETMEM_SUCCESS);
  EXPECT_EQ(node, 2u);
}

TEST_F(CapiTest, BestInitiator) {
  char buf[64];
  double value = 0.0;
  const int needed = hetmem_memattr_get_best_initiator(
      ctx_, HETMEM_ATTR_LATENCY, 0, buf, sizeof(buf), &value);
  ASSERT_GT(needed, 0);
  EXPECT_STREQ(buf, "0-39");
  EXPECT_GT(value, 0.0);
}

TEST_F(CapiTest, ErrorCodes) {
  double value = 0.0;
  // Per-initiator attribute without initiator.
  EXPECT_EQ(hetmem_memattr_get_value(ctx_, HETMEM_ATTR_LATENCY, 0, nullptr,
                                     &value),
            HETMEM_ERR_INVALID);
  // Unknown attribute id.
  EXPECT_EQ(hetmem_memattr_get_value(ctx_, 999, 0, kPackage0, &value),
            HETMEM_ERR_INVALID);
  // Bad cpuset.
  EXPECT_EQ(hetmem_memattr_get_best_target(ctx_, HETMEM_ATTR_LATENCY, "x,,y",
                                           nullptr, &value),
            HETMEM_ERR_INVALID);  // node out-param is null -> invalid
  unsigned node = 0;
  EXPECT_EQ(hetmem_memattr_get_best_target(ctx_, HETMEM_ATTR_LATENCY, "x,,y",
                                           &node, &value),
            HETMEM_ERR_PARSE);
}

TEST_F(CapiTest, CustomAttributeRoundTrip) {
  const int id = hetmem_memattr_register(ctx_, "Endurance",
                                         /*higher_is_better=*/1,
                                         /*need_initiator=*/0);
  ASSERT_GE(id, 8);
  EXPECT_EQ(hetmem_memattr_find(ctx_, "Endurance"), id);
  EXPECT_EQ(hetmem_memattr_find(ctx_, "NoSuch"), HETMEM_ERR_NOENT);
  ASSERT_EQ(hetmem_memattr_set_value(ctx_, id, 0, nullptr, 1e16),
            HETMEM_SUCCESS);
  ASSERT_EQ(hetmem_memattr_set_value(ctx_, id, 2, nullptr, 1e6),
            HETMEM_SUCCESS);
  unsigned node = 99;
  double value = 0.0;
  ASSERT_EQ(hetmem_memattr_get_best_target(ctx_, id, kPackage0, &node, &value),
            HETMEM_SUCCESS);
  EXPECT_EQ(node, 0u);
  EXPECT_DOUBLE_EQ(value, 1e16);
  // Duplicate registration fails.
  EXPECT_EQ(hetmem_memattr_register(ctx_, "Endurance", 1, 0),
            HETMEM_ERR_INVALID);
}

TEST_F(CapiTest, AllocFreeMigrate) {
  const int64_t buffer =
      hetmem_alloc(ctx_, 8ull << 30, HETMEM_ATTR_LATENCY, kPackage0,
                   HETMEM_POLICY_RANKED_FALLBACK, "capi-buf");
  ASSERT_GE(buffer, 0);
  EXPECT_EQ(hetmem_buffer_node(ctx_, buffer), 0);
  EXPECT_EQ(hetmem_node_available(ctx_, 0), (192ull - 8) << 30);

  double cost = 0.0;
  ASSERT_EQ(hetmem_migrate(ctx_, buffer, 2, &cost), HETMEM_SUCCESS);
  EXPECT_GT(cost, 0.0);
  EXPECT_EQ(hetmem_buffer_node(ctx_, buffer), 2);

  ASSERT_EQ(hetmem_free(ctx_, buffer), HETMEM_SUCCESS);
  EXPECT_EQ(hetmem_free(ctx_, buffer), HETMEM_ERR_INVALID);  // double free
  EXPECT_EQ(hetmem_node_available(ctx_, 0), 192ull << 30);
}

TEST_F(CapiTest, StrictPolicyFailsWhenFull) {
  const int64_t big =
      hetmem_alloc(ctx_, 192ull << 30, HETMEM_ATTR_LATENCY, kPackage0,
                   HETMEM_POLICY_STRICT, "filler");
  ASSERT_GE(big, 0);
  EXPECT_EQ(hetmem_alloc(ctx_, 1 << 20, HETMEM_ATTR_LATENCY, kPackage0,
                         HETMEM_POLICY_STRICT, "overflow"),
            HETMEM_ERR_NOMEM);
  // Ranked fallback succeeds onto the NVDIMM.
  const int64_t spill =
      hetmem_alloc(ctx_, 1 << 20, HETMEM_ATTR_LATENCY, kPackage0,
                   HETMEM_POLICY_RANKED_FALLBACK, "spill");
  ASSERT_GE(spill, 0);
  EXPECT_EQ(hetmem_buffer_node(ctx_, spill), 2);
}

TEST_F(CapiTest, BadPolicyAndHandlesRejected) {
  EXPECT_EQ(hetmem_alloc(ctx_, 1024, HETMEM_ATTR_LATENCY, kPackage0, 42, "x"),
            HETMEM_ERR_INVALID);
  EXPECT_EQ(hetmem_buffer_node(ctx_, -1), HETMEM_ERR_INVALID);
  EXPECT_EQ(hetmem_buffer_node(ctx_, 1 << 20), HETMEM_ERR_INVALID);
}

TEST_F(CapiTest, TenantLifecycleAndQuotaBackpressure) {
  const int64_t tenant = hetmem_tenant_register(
      ctx_, "analytics", HETMEM_PRIORITY_NORMAL, 1ull << 30, 1.0);
  ASSERT_GE(tenant, 1);
  EXPECT_EQ(hetmem_tenant_register(ctx_, "analytics", HETMEM_PRIORITY_NORMAL,
                                   0, 1.0),
            HETMEM_ERR_INVALID)
      << "duplicate name";
  EXPECT_EQ(hetmem_tenant_register(ctx_, "bad", 42, 0, 1.0),
            HETMEM_ERR_INVALID);

  // Within quota: charged, then refunded on free.
  const int64_t held =
      hetmem_alloc_tenant(ctx_, 64ull << 20, HETMEM_ATTR_LATENCY, kPackage0,
                          HETMEM_POLICY_RANKED_FALLBACK, "held", tenant);
  ASSERT_GE(held, 0);
  EXPECT_EQ(hetmem_tenant_used_bytes(ctx_, tenant), 64ull << 20);

  // Over the 1 GiB total cap: structured backpressure, not ENOMEM — with
  // the per-reason counter and the machine-readable retry hint exposed.
  EXPECT_EQ(hetmem_alloc_tenant(ctx_, 2ull << 30, HETMEM_ATTR_LATENCY,
                                kPackage0, HETMEM_POLICY_RANKED_FALLBACK,
                                "too-big", tenant),
            HETMEM_ERR_AGAIN);
  EXPECT_EQ(hetmem_backpressure_rejections(ctx_, HETMEM_BACKPRESSURE_QUOTA),
            1u);
  EXPECT_EQ(hetmem_backpressure_rejections(ctx_, HETMEM_BACKPRESSURE_TOTAL),
            1u);
  EXPECT_EQ(hetmem_backpressure_rejections(ctx_, HETMEM_BACKPRESSURE_HEALTH),
            0u);
  EXPECT_EQ(hetmem_backpressure_rejections(ctx_, HETMEM_BACKPRESSURE_SHED),
            0u);
  EXPECT_GT(hetmem_last_retry_after_ms(ctx_), 0u);

  EXPECT_EQ(hetmem_free(ctx_, held), HETMEM_SUCCESS);
  EXPECT_EQ(hetmem_tenant_used_bytes(ctx_, tenant), 0u);

  EXPECT_EQ(hetmem_tenant_deregister(ctx_, tenant), HETMEM_SUCCESS);
  EXPECT_EQ(hetmem_tenant_deregister(ctx_, tenant), HETMEM_ERR_NOENT);
  EXPECT_EQ(hetmem_alloc_tenant(ctx_, 1024, HETMEM_ATTR_LATENCY, kPackage0,
                                HETMEM_POLICY_RANKED_FALLBACK, "late", tenant),
            HETMEM_ERR_NOENT);
}

TEST(CapiProbed, ProbedContextHasMeasuredValues) {
  hetmem_context* ctx = hetmem_context_create_probed("knl_snc4_flat");
  ASSERT_NE(ctx, nullptr);
  unsigned node = 0;
  double value = 0.0;
  // Cluster 0's PUs.
  ASSERT_EQ(hetmem_memattr_get_best_target(ctx, HETMEM_ATTR_BANDWIDTH, "0-63",
                                           &node, &value),
            HETMEM_SUCCESS);
  EXPECT_EQ(node, 4u);  // MCDRAM
  EXPECT_STREQ(hetmem_node_kind_debug(ctx, node), "HBM");
  hetmem_context_destroy(ctx);
}

TEST_F(CapiTest, PowerTelemetryAndCap) {
  // A fresh context draws its static floor: node 0 on xeon_clx_1lm is
  // 192 GiB DRAM at 0.10 W/GiB (docs/POWER.md calibration table).
  EXPECT_NEAR(hetmem_power_draw_watts(ctx_, 0), 19.2, 1e-9);
  EXPECT_EQ(hetmem_power_draw_watts(ctx_, 9999),
            static_cast<double>(HETMEM_ERR_INVALID));

  // Cap lifecycle: unset by default, round-trips, rejects negative watts.
  EXPECT_EQ(hetmem_power_cap_watts(ctx_), 0.0);
  EXPECT_EQ(hetmem_set_power_cap_watts(ctx_, 150.0), HETMEM_SUCCESS);
  EXPECT_EQ(hetmem_power_cap_watts(ctx_), 150.0);
  EXPECT_EQ(hetmem_set_power_cap_watts(ctx_, -1.0), HETMEM_ERR_INVALID);
  EXPECT_EQ(hetmem_power_cap_watts(ctx_), 150.0);
  EXPECT_EQ(hetmem_set_power_cap_watts(ctx_, 0.0), HETMEM_SUCCESS);
  EXPECT_EQ(hetmem_set_power_cap_watts(nullptr, 1.0), HETMEM_ERR_INVALID);

  // Throttle counters start clean; bad nodes read as zero, not an error.
  EXPECT_EQ(hetmem_throttle_events(ctx_, 0), 0u);
  EXPECT_EQ(hetmem_throttle_events(ctx_, 9999), 0u);

  // The energy attributes are published at context creation and rank
  // lower-first: DRAM (node 0) beats Optane (node 2) for the same socket.
  double dram_energy = 0.0, nvdimm_energy = 0.0;
  ASSERT_EQ(hetmem_memattr_get_value(ctx_, HETMEM_ATTR_ENERGY_PER_BYTE, 0,
                                     nullptr, &dram_energy),
            HETMEM_SUCCESS);
  ASSERT_EQ(hetmem_memattr_get_value(ctx_, HETMEM_ATTR_ENERGY_PER_BYTE, 2,
                                     nullptr, &nvdimm_energy),
            HETMEM_SUCCESS);
  EXPECT_LT(dram_energy, nvdimm_energy);
  unsigned node = 99;
  double value = 0.0;
  ASSERT_EQ(hetmem_memattr_get_best_target(ctx_, HETMEM_ATTR_ENERGY_PER_BYTE,
                                           kPackage0, &node, &value),
            HETMEM_SUCCESS);
  EXPECT_EQ(node, 0u);  // cheapest energy per byte: local DRAM
}

// The crash-resilience lifecycle (docs/RECOVERY.md): build up placements,
// tenant charges, and backpressure counters; save; destroy the context
// entirely; restore from the file; every observable statistic matches, and
// the restored context keeps working (charges refund on free).
TEST_F(CapiTest, SnapshotSaveRestoreLifecycle) {
  const std::string path = ::testing::TempDir() + "capi-snap.hetmem";

  const int64_t tenant = hetmem_tenant_register(
      ctx_, "snap-tenant", HETMEM_PRIORITY_NORMAL, 1ull << 30, 1.0);
  ASSERT_GE(tenant, 1);
  const int64_t held =
      hetmem_alloc_tenant(ctx_, 64ull << 20, HETMEM_ATTR_LATENCY, kPackage0,
                          HETMEM_POLICY_RANKED_FALLBACK, "held", tenant);
  ASSERT_GE(held, 0);
  // Over-cap request: leaves a quota-rejection fingerprint to restore.
  EXPECT_EQ(hetmem_alloc_tenant(ctx_, 2ull << 30, HETMEM_ATTR_LATENCY,
                                kPackage0, HETMEM_POLICY_RANKED_FALLBACK,
                                "too-big", tenant),
            HETMEM_ERR_AGAIN);
  const int64_t roaming =
      hetmem_alloc(ctx_, 8ull << 20, HETMEM_ATTR_LATENCY, kPackage0,
                   HETMEM_POLICY_RANKED_FALLBACK, "roaming");
  ASSERT_GE(roaming, 0);
  double cost = 0.0;
  ASSERT_EQ(hetmem_migrate(ctx_, roaming, 2, &cost), HETMEM_SUCCESS);
  // A freed slot, so the snapshot carries a free-list entry.
  const int64_t gone = hetmem_alloc(ctx_, 1 << 20, HETMEM_ATTR_LATENCY,
                                    kPackage0, HETMEM_POLICY_RANKED_FALLBACK,
                                    "gone");
  ASSERT_GE(gone, 0);
  ASSERT_EQ(hetmem_free(ctx_, gone), HETMEM_SUCCESS);

  const uint64_t avail0 = hetmem_node_available(ctx_, 0);
  const uint64_t avail2 = hetmem_node_available(ctx_, 2);

  ASSERT_EQ(hetmem_snapshot_save(ctx_, path.c_str()), HETMEM_SUCCESS);
  EXPECT_EQ(hetmem_snapshot_save(ctx_, nullptr), HETMEM_ERR_INVALID);
  hetmem_context_destroy(ctx_);
  ctx_ = nullptr;

  hetmem_context* restored = hetmem_snapshot_restore(path.c_str());
  ASSERT_NE(restored, nullptr);
  ctx_ = restored;  // TearDown destroys it

  // Identical placements, charges, and counters.
  EXPECT_EQ(hetmem_buffer_node(ctx_, held), 0);
  EXPECT_EQ(hetmem_buffer_node(ctx_, roaming), 2);
  EXPECT_EQ(hetmem_buffer_node(ctx_, gone), HETMEM_ERR_INVALID);  // stays freed
  EXPECT_EQ(hetmem_node_available(ctx_, 0), avail0);
  EXPECT_EQ(hetmem_node_available(ctx_, 2), avail2);
  EXPECT_EQ(hetmem_tenant_used_bytes(ctx_, tenant), 64ull << 20);
  EXPECT_EQ(hetmem_backpressure_rejections(ctx_, HETMEM_BACKPRESSURE_QUOTA),
            1u);
  EXPECT_EQ(hetmem_backpressure_rejections(ctx_, HETMEM_BACKPRESSURE_TOTAL),
            1u);

  // The restored context is fully live: the charge refunds on free and the
  // tenant can be deregistered.
  EXPECT_EQ(hetmem_free(ctx_, held), HETMEM_SUCCESS);
  EXPECT_EQ(hetmem_tenant_used_bytes(ctx_, tenant), 0u);
  EXPECT_EQ(hetmem_tenant_deregister(ctx_, tenant), HETMEM_SUCCESS);

  // Breakers come up closed; unknown names and bad handles are rejected.
  EXPECT_EQ(hetmem_breaker_state(ctx_, "migration"), HETMEM_BREAKER_CLOSED);
  EXPECT_EQ(hetmem_breaker_state(ctx_, "evacuation"), HETMEM_BREAKER_CLOSED);
  EXPECT_EQ(hetmem_breaker_state(ctx_, "no-such"), HETMEM_ERR_NOENT);
  EXPECT_EQ(hetmem_breaker_state(nullptr, "migration"), HETMEM_ERR_INVALID);

  // A missing file never yields a context.
  EXPECT_EQ(hetmem_snapshot_restore("/nonexistent/snap"), nullptr);
}

// The paper's portability story, through the C API: the same three lines
// of "application code" run against two machines.
TEST(CapiPortability, SameCallsBothMachines) {
  for (const char* preset : {"xeon_clx_1lm", "knl_snc4_flat"}) {
    hetmem_context* ctx = hetmem_context_create(preset);
    ASSERT_NE(ctx, nullptr);
    char cpuset[64];
    ASSERT_GT(hetmem_node_cpuset(ctx, 0, cpuset, sizeof(cpuset)), 0);
    const int64_t buffer = hetmem_alloc(ctx, 1 << 20, HETMEM_ATTR_LATENCY,
                                        cpuset, HETMEM_POLICY_RANKED_FALLBACK,
                                        "portable");
    ASSERT_GE(buffer, 0) << preset;
    EXPECT_EQ(hetmem_free(ctx, buffer), HETMEM_SUCCESS);
    hetmem_context_destroy(ctx);
  }
}

}  // namespace
