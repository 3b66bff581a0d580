#include "hetmem/topo/serialize.hpp"

#include <gtest/gtest.h>

#include "hetmem/support/units.hpp"
#include "hetmem/support/rng.hpp"
#include "hetmem/topo/builder.hpp"
#include "hetmem/topo/presets.hpp"
#include "hetmem/topo/render.hpp"

namespace hetmem::topo {
namespace {

using support::Errc;

TEST(Serialize, ContainsHeaderAndStructure) {
  Topology topology = xeon_clx_snc_1lm();
  const std::string text = serialize(topology);
  EXPECT_NE(text.find("# hetmem-topology v1 \"2x Xeon 6230 SNC 1LM\""),
            std::string::npos);
  EXPECT_NE(text.find("package"), std::string::npos);
  EXPECT_NE(text.find("group subtype=SubNUMACluster"), std::string::npos);
  EXPECT_NE(text.find("cores count=10 pus=2"), std::string::npos);
  EXPECT_NE(text.find("kind=NVDIMM"), std::string::npos);
}

// Round-trip across every preset: parse(serialize(t)) reproduces the exact
// node numbering, capacities, kinds, localities, and PU counts. Keyed by
// preset index, as in chaos_test: gtest prints a NamedTopology parameter as
// its pointer bytes, which move under ASLR, so a test keyed by one gets a
// new ctest name at every test discovery.
class SerializeRoundTripTest : public ::testing::TestWithParam<int> {};

TEST_P(SerializeRoundTripTest, ParseSerializeIsIdentity) {
  Topology original =
      all_presets()[static_cast<std::size_t>(GetParam())].factory();
  const std::string text = serialize(original);
  auto restored = parse_topology(text);
  ASSERT_TRUE(restored.ok()) << restored.error().to_string() << "\n" << text;

  EXPECT_EQ(restored->platform_name(), original.platform_name());
  EXPECT_EQ(restored->pus().size(), original.pus().size());
  ASSERT_EQ(restored->numa_nodes().size(), original.numa_nodes().size());
  for (std::size_t i = 0; i < original.numa_nodes().size(); ++i) {
    const Object* a = original.numa_nodes()[i];
    const Object* b = restored->numa_nodes()[i];
    EXPECT_EQ(a->os_index(), b->os_index());
    EXPECT_EQ(a->memory_kind(), b->memory_kind());
    EXPECT_EQ(a->capacity_bytes(), b->capacity_bytes());
    EXPECT_TRUE(a->cpuset() == b->cpuset()) << "locality of node " << i;
    EXPECT_EQ(a->memory_side_cache().has_value(),
              b->memory_side_cache().has_value());
    if (a->memory_side_cache().has_value()) {
      EXPECT_EQ(a->memory_side_cache()->size_bytes,
                b->memory_side_cache()->size_bytes);
    }
  }
  // Second serialization is byte-identical (canonical form).
  EXPECT_EQ(serialize(*restored), text);
  EXPECT_TRUE(restored->validate().ok());
}

INSTANTIATE_TEST_SUITE_P(
    AllPresets, SerializeRoundTripTest,
    ::testing::Range(0, static_cast<int>(all_presets().size())),
    [](const ::testing::TestParamInfo<int>& param_info) {
      return std::string(
          all_presets()[static_cast<std::size_t>(param_info.param)].name);
    });

TEST(ParseTopology, RejectsMissingHeader) {
  auto result = parse_topology("package\n");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code, Errc::kParseError);
}

TEST(ParseTopology, RejectsUnknownRecord) {
  auto result = parse_topology(
      "# hetmem-topology v1 \"x\"\n"
      "frobnicator\n");
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.error().message.find("unknown record"), std::string::npos);
}

TEST(ParseTopology, RejectsIndentationJump) {
  auto result = parse_topology(
      "# hetmem-topology v1 \"x\"\n"
      "package\n"
      "      cores count=1 pus=1\n");  // jumps two levels
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.error().message.find("indentation"), std::string::npos);
}

TEST(ParseTopology, RejectsNonDenseOsIndices) {
  auto result = parse_topology(
      "# hetmem-topology v1 \"x\"\n"
      "package\n"
      "  numa os=1 kind=DRAM capacity=1024\n"
      "  cores count=1 pus=1\n");
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.error().message.find("not dense"), std::string::npos);
}

TEST(ParseTopology, RejectsBadKindAndNumbers) {
  auto bad_kind = parse_topology(
      "# hetmem-topology v1 \"x\"\n"
      "package\n"
      "  numa os=0 kind=FOAM capacity=1024\n"
      "  cores count=1 pus=1\n");
  ASSERT_FALSE(bad_kind.ok());
  auto bad_count = parse_topology(
      "# hetmem-topology v1 \"x\"\n"
      "package\n"
      "  numa os=0 kind=DRAM capacity=1024\n"
      "  cores count=zero pus=1\n");
  ASSERT_FALSE(bad_count.ok());
}

TEST(ParseTopology, MsCacheRoundTrip) {
  auto result = parse_topology(
      "# hetmem-topology v1 \"cached\"\n"
      "package\n"
      "  numa os=0 kind=NVDIMM capacity=1073741824 mscache=1048576,1,64\n"
      "  cores count=2 pus=1\n");
  ASSERT_TRUE(result.ok()) << result.error().to_string();
  const Object* node = result->numa_nodes().front();
  ASSERT_TRUE(node->memory_side_cache().has_value());
  EXPECT_EQ(node->memory_side_cache()->size_bytes, 1048576u);
}

// Fuzz: random builder trees round-trip exactly.
class SerializeFuzzTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SerializeFuzzTest, RandomTopologiesRoundTrip) {
  support::Xoshiro256 rng(GetParam());
  TopologyBuilder builder("fuzz-" + std::to_string(GetParam()));
  auto machine = builder.machine();

  const MemoryKind kinds[] = {MemoryKind::kDRAM, MemoryKind::kHBM,
                              MemoryKind::kNVDIMM, MemoryKind::kNAM,
                              MemoryKind::kGPU};
  std::vector<TopologyBuilder::Node> attach_points = {machine};
  const unsigned packages = 1 + static_cast<unsigned>(rng.next_below(3));
  for (unsigned p = 0; p < packages; ++p) {
    auto package = machine.add_package();
    attach_points.push_back(package);
    const unsigned groups = static_cast<unsigned>(rng.next_below(3));
    if (groups == 0) {
      package.add_cores(1 + static_cast<unsigned>(rng.next_below(8)),
                        1 + static_cast<unsigned>(rng.next_below(4)));
    } else {
      for (unsigned g = 0; g < groups; ++g) {
        auto group = package.add_group(rng.next_below(2) ? "SubNUMACluster"
                                                         : "CMG");
        group.add_cores(1 + static_cast<unsigned>(rng.next_below(8)),
                        1 + static_cast<unsigned>(rng.next_below(4)));
        attach_points.push_back(group);
      }
    }
  }
  // Random NUMA attachments (at least one).
  const unsigned numa_count = 1 + static_cast<unsigned>(rng.next_below(6));
  for (unsigned i = 0; i < numa_count; ++i) {
    auto& point = attach_points[rng.next_below(attach_points.size())];
    std::optional<MemorySideCache> cache;
    if (rng.next_below(4) == 0) {
      cache = MemorySideCache{.size_bytes = (1 + rng.next_below(64)) << 30,
                              .associativity = 1u + static_cast<unsigned>(
                                                        rng.next_below(16)),
                              .line_bytes = 64};
    }
    point.attach_numa(kinds[rng.next_below(5)],
                      (1 + rng.next_below(1024)) << 30, cache);
  }

  auto built = std::move(builder).finalize();
  ASSERT_TRUE(built.ok()) << built.error().to_string();
  const std::string text = serialize(*built);
  auto restored = parse_topology(text);
  ASSERT_TRUE(restored.ok()) << restored.error().to_string() << "\n" << text;
  EXPECT_EQ(serialize(*restored), text);
  EXPECT_TRUE(restored->validate().ok());
  EXPECT_EQ(restored->pus().size(), built->pus().size());
  EXPECT_EQ(restored->numa_nodes().size(), built->numa_nodes().size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, SerializeFuzzTest,
                         ::testing::Values(1, 7, 42, 1337, 9001, 31415));

TEST(ParseTopology, ImportedTopologyIsFullyUsable) {
  // The "gather on the cluster, analyze on the laptop" flow: a parsed
  // topology drives queries exactly like a built one.
  auto restored = parse_topology(serialize(fictitious_fig3()));
  ASSERT_TRUE(restored.ok());
  const Object* pu0 = restored->pus().front();
  EXPECT_EQ(restored->local_numa_nodes(pu0->cpuset()).size(), 4u);
  EXPECT_NE(render_tree(*restored).find("NAM"), std::string::npos);
}

}  // namespace
}  // namespace hetmem::topo
