#include "hetmem/topo/presets.hpp"

#include <gtest/gtest.h>

#include <string>

#include "hetmem/support/units.hpp"

namespace hetmem::topo {
namespace {

using support::kGiB;
using support::kTiB;

// --- parameterized invariants over every preset ---

class PresetInvariantsTest : public ::testing::TestWithParam<NamedTopology> {};

// Keyed by preset index, as in chaos_test: gtest prints a NamedTopology
// parameter as its pointer bytes, which move under ASLR, so a test keyed by
// one gets a new ctest name at every test discovery.
class PresetValidationTest : public ::testing::TestWithParam<int> {};

TEST_P(PresetValidationTest, Validates) {
  Topology topology =
      all_presets()[static_cast<std::size_t>(GetParam())].factory();
  auto status = topology.validate();
  EXPECT_TRUE(status.ok()) << status.error().to_string();
}

TEST_P(PresetInvariantsTest, LogicalIndicesDenseAndSorted) {
  Topology topology = GetParam().factory();
  for (std::size_t i = 0; i < topology.numa_nodes().size(); ++i) {
    EXPECT_EQ(topology.numa_nodes()[i]->logical_index(), i);
    EXPECT_EQ(topology.numa_nodes()[i]->os_index(), i)
        << "presets attach nodes in OS order";
  }
}

TEST_P(PresetInvariantsTest, EveryNumaNodeHasLocality) {
  Topology topology = GetParam().factory();
  for (const Object* node : topology.numa_nodes()) {
    // NAM nodes are machine-local, so even they cover all PUs.
    EXPECT_FALSE(node->cpuset().empty())
        << "node L#" << node->logical_index() << " has empty locality";
    EXPECT_TRUE(node->cpuset().is_subset_of(topology.complete_cpuset()));
    EXPECT_GT(node->capacity_bytes(), 0u);
  }
}

TEST_P(PresetInvariantsTest, EveryPuHasAtLeastOneLocalNode) {
  Topology topology = GetParam().factory();
  for (const Object* pu : topology.pus()) {
    auto local = topology.local_numa_nodes(pu->cpuset());
    EXPECT_FALSE(local.empty()) << "PU L#" << pu->logical_index();
  }
}

TEST_P(PresetInvariantsTest, CoveringObjectOfFullCpusetCoversAllPus) {
  Topology topology = GetParam().factory();
  // On single-package machines the deepest object with the full cpuset is
  // the package, not the machine — only the cpuset itself is guaranteed.
  const Object* covering = topology.covering_object(topology.complete_cpuset());
  ASSERT_NE(covering, nullptr);
  EXPECT_TRUE(covering->cpuset() == topology.complete_cpuset());
}

INSTANTIATE_TEST_SUITE_P(
    AllPresets, PresetInvariantsTest, ::testing::ValuesIn(all_presets()),
    [](const ::testing::TestParamInfo<NamedTopology>& param_info) {
      return param_info.param.name;
    });

INSTANTIATE_TEST_SUITE_P(
    AllPresets, PresetValidationTest,
    ::testing::Range(0, static_cast<int>(all_presets().size())),
    [](const ::testing::TestParamInfo<int>& param_info) {
      return std::string(
          all_presets()[static_cast<std::size_t>(param_info.param)].name);
    });

// --- per-preset shape checks against the paper's figures ---

TEST(KnlSnc4Flat, MatchesSection6Setup) {
  Topology topology = knl_snc4_flat();
  EXPECT_EQ(topology.pus().size(), 64u * 4);  // 64 cores x 4 threads
  ASSERT_EQ(topology.numa_nodes().size(), 8u);
  // DRAM nodes 0-3, MCDRAM 4-7 (footnote 21 numbering).
  for (unsigned i = 0; i < 4; ++i) {
    EXPECT_EQ(topology.numa_node(i)->memory_kind(), MemoryKind::kDRAM);
    EXPECT_EQ(topology.numa_node(i)->capacity_bytes(), 24 * kGiB);
    EXPECT_EQ(topology.numa_node(i + 4)->memory_kind(), MemoryKind::kHBM);
    EXPECT_EQ(topology.numa_node(i + 4)->capacity_bytes(), 4 * kGiB);
  }
  // Each cluster's DRAM and HBM share a 64-PU locality.
  EXPECT_TRUE(topology.numa_node(0)->cpuset() == topology.numa_node(4)->cpuset());
  EXPECT_EQ(topology.numa_node(0)->cpuset().count(), 64u);
}

TEST(KnlSnc4Hybrid50, HasMemorySideCaches) {
  Topology topology = knl_snc4_hybrid50();
  EXPECT_EQ(topology.pus().size(), 72u * 4);
  unsigned cached = 0;
  for (const Object* node : topology.numa_nodes()) {
    if (node->memory_side_cache().has_value()) {
      ++cached;
      EXPECT_EQ(node->memory_kind(), MemoryKind::kDRAM);
      EXPECT_EQ(node->memory_side_cache()->size_bytes, 2 * kGiB);
    }
  }
  EXPECT_EQ(cached, 4u);
}

TEST(XeonClxSnc1lm, MatchesFigure2) {
  Topology topology = xeon_clx_snc_1lm();
  EXPECT_EQ(topology.pus().size(), 2u * 20 * 2);
  ASSERT_EQ(topology.numa_nodes().size(), 6u);
  // Fig. 5 node order: 0,1 DRAM / 2 NVDIMM / 3,4 DRAM / 5 NVDIMM.
  const MemoryKind expected[] = {MemoryKind::kDRAM, MemoryKind::kDRAM,
                                 MemoryKind::kNVDIMM, MemoryKind::kDRAM,
                                 MemoryKind::kDRAM, MemoryKind::kNVDIMM};
  for (unsigned i = 0; i < 6; ++i) {
    EXPECT_EQ(topology.numa_node(i)->memory_kind(), expected[i]) << "node " << i;
  }
  EXPECT_EQ(topology.numa_node(0)->capacity_bytes(), 96 * kGiB);
  EXPECT_EQ(topology.numa_node(2)->capacity_bytes(), 768 * kGiB);
  // NVDIMM locality covers the whole package (both SNCs).
  EXPECT_EQ(topology.numa_node(2)->cpuset().count(), 40u);
  EXPECT_TRUE(topology.numa_node(0)->cpuset().is_subset_of(
      topology.numa_node(2)->cpuset()));
}

TEST(XeonClx1lm, Section6MachineWithoutSnc) {
  Topology topology = xeon_clx_1lm();
  ASSERT_EQ(topology.numa_nodes().size(), 4u);
  EXPECT_EQ(topology.numa_node(0)->memory_kind(), MemoryKind::kDRAM);
  EXPECT_EQ(topology.numa_node(0)->capacity_bytes(), 192 * kGiB);
  EXPECT_EQ(topology.numa_node(2)->memory_kind(), MemoryKind::kNVDIMM);
  EXPECT_EQ(topology.numa_node(2)->capacity_bytes(), 768 * kGiB);
  // DRAM and NVDIMM of one package share locality (20 cores x 2 threads).
  EXPECT_TRUE(topology.numa_node(0)->cpuset() == topology.numa_node(2)->cpuset());
  EXPECT_EQ(topology.numa_node(0)->cpuset().count(), 40u);
}

TEST(XeonClx2lm, NvdimmBehindDramCache) {
  Topology topology = xeon_clx_2lm();
  ASSERT_EQ(topology.numa_nodes().size(), 2u);
  for (const Object* node : topology.numa_nodes()) {
    EXPECT_EQ(node->memory_kind(), MemoryKind::kNVDIMM);
    ASSERT_TRUE(node->memory_side_cache().has_value());
    EXPECT_EQ(node->memory_side_cache()->size_bytes, 192 * kGiB);
  }
}

TEST(FictitiousFig3, FourKindsOfMemory) {
  Topology topology = fictitious_fig3();
  unsigned dram = 0, hbm = 0, nvdimm = 0, nam = 0;
  for (const Object* node : topology.numa_nodes()) {
    switch (node->memory_kind()) {
      case MemoryKind::kDRAM: ++dram; break;
      case MemoryKind::kHBM: ++hbm; break;
      case MemoryKind::kNVDIMM: ++nvdimm; break;
      case MemoryKind::kNAM: ++nam; break;
      default: break;
    }
  }
  EXPECT_EQ(dram, 2u);
  EXPECT_EQ(hbm, 4u);
  EXPECT_EQ(nvdimm, 2u);
  EXPECT_EQ(nam, 1u);

  // A core in an SNC sees 4 local nodes: its HBM, the package DRAM and
  // NVDIMM, and the machine NAM (paper §III: "4 local NUMA nodes").
  const Object* pu0 = topology.pus().front();
  auto local = topology.local_numa_nodes(pu0->cpuset());
  EXPECT_EQ(local.size(), 4u);
}

TEST(FictitiousFig3, NamIsMachineWide) {
  Topology topology = fictitious_fig3();
  const Object* nam = nullptr;
  for (const Object* node : topology.numa_nodes()) {
    if (node->memory_kind() == MemoryKind::kNAM) nam = node;
  }
  ASSERT_NE(nam, nullptr);
  EXPECT_TRUE(nam->cpuset() == topology.complete_cpuset());
  EXPECT_EQ(nam->capacity_bytes(), 4 * kTiB);
}

TEST(FugakuLike, HbmOnlyNoTradeOff) {
  Topology topology = fugaku_like();
  ASSERT_EQ(topology.numa_nodes().size(), 4u);
  for (const Object* node : topology.numa_nodes()) {
    EXPECT_EQ(node->memory_kind(), MemoryKind::kHBM);
  }
  // One local node per CMG core: nothing to choose between.
  const Object* pu0 = topology.pus().front();
  EXPECT_EQ(topology.local_numa_nodes(pu0->cpuset()).size(), 1u);
}

TEST(Power9V100, GpuMemoryVisibleAsHostNode) {
  Topology topology = power9_v100();
  unsigned gpu = 0;
  for (const Object* node : topology.numa_nodes()) {
    gpu += node->memory_kind() == MemoryKind::kGPU;
  }
  EXPECT_EQ(gpu, 2u);
}

}  // namespace
}  // namespace hetmem::topo
