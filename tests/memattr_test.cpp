#include "hetmem/memattr/memattr.hpp"

#include <gtest/gtest.h>

#include "hetmem/support/units.hpp"
#include "hetmem/topo/presets.hpp"

namespace hetmem::attr {
namespace {

using support::Errc;
using support::kGiB;

class MemAttrTest : public ::testing::Test {
 protected:
  MemAttrTest() : topology_(topo::xeon_clx_snc_1lm()), registry_(topology_) {}

  const topo::Object& node(unsigned index) { return *topology_.numa_node(index); }
  Initiator snc0() { return Initiator::from_cpuset(node(0).cpuset()); }

  topo::Topology topology_;
  MemAttrRegistry registry_;
};

TEST_F(MemAttrTest, BuiltinsRegisteredInStableOrder) {
  EXPECT_EQ(registry_.attribute_count(), 10u);
  EXPECT_EQ(registry_.info(kCapacity).name, "Capacity");
  EXPECT_EQ(registry_.info(kLocality).name, "Locality");
  EXPECT_EQ(registry_.info(kBandwidth).name, "Bandwidth");
  EXPECT_EQ(registry_.info(kLatency).name, "Latency");
  EXPECT_EQ(registry_.info(kReadBandwidth).name, "ReadBandwidth");
  EXPECT_EQ(registry_.info(kWriteLatency).name, "WriteLatency");
  EXPECT_EQ(registry_.info(kEnergyPerByte).name, "EnergyPerByte");
  EXPECT_EQ(registry_.info(kStaticPower).name, "StaticPower");
}

TEST_F(MemAttrTest, PolaritiesMatchHwloc) {
  EXPECT_EQ(registry_.info(kCapacity).polarity, Polarity::kHigherFirst);
  EXPECT_EQ(registry_.info(kLocality).polarity, Polarity::kLowerFirst);
  EXPECT_EQ(registry_.info(kBandwidth).polarity, Polarity::kHigherFirst);
  EXPECT_EQ(registry_.info(kLatency).polarity, Polarity::kLowerFirst);
  EXPECT_EQ(registry_.info(kEnergyPerByte).polarity, Polarity::kLowerFirst);
  EXPECT_EQ(registry_.info(kStaticPower).polarity, Polarity::kLowerFirst);
  EXPECT_FALSE(registry_.info(kEnergyPerByte).need_initiator);
  EXPECT_FALSE(registry_.info(kStaticPower).need_initiator);
}

TEST_F(MemAttrTest, CapacityAutoPopulatedFromTopology) {
  auto value = registry_.value(kCapacity, node(0), std::nullopt);
  ASSERT_TRUE(value.ok());
  EXPECT_DOUBLE_EQ(*value, static_cast<double>(96 * kGiB));
  value = registry_.value(kCapacity, node(2), std::nullopt);
  ASSERT_TRUE(value.ok());
  EXPECT_DOUBLE_EQ(*value, static_cast<double>(768 * kGiB));
}

TEST_F(MemAttrTest, LocalityAutoPopulatedAsPuCount) {
  auto value = registry_.value(kLocality, node(0), std::nullopt);
  ASSERT_TRUE(value.ok());
  EXPECT_DOUBLE_EQ(*value, 20.0);  // one SNC: 10 cores x 2 PU
  value = registry_.value(kLocality, node(2), std::nullopt);
  ASSERT_TRUE(value.ok());
  EXPECT_DOUBLE_EQ(*value, 40.0);  // package NVDIMM
}

TEST_F(MemAttrTest, FindAttributeByName) {
  auto id = registry_.find_attribute("Latency");
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(*id, kLatency);
  EXPECT_FALSE(registry_.find_attribute("NoSuchAttr").ok());
}

TEST_F(MemAttrTest, RegisterCustomAttribute) {
  auto id = registry_.register_attribute("Endurance", Polarity::kHigherFirst,
                                         /*need_initiator=*/false);
  ASSERT_TRUE(id.ok());
  EXPECT_GE(*id, kFirstCustomAttr);
  EXPECT_TRUE(registry_.set_value(*id, node(2), std::nullopt, 1e6).ok());
  auto value = registry_.value(*id, node(2), std::nullopt);
  ASSERT_TRUE(value.ok());
  EXPECT_DOUBLE_EQ(*value, 1e6);
}

TEST_F(MemAttrTest, DuplicateAttributeNameRejected) {
  ASSERT_TRUE(registry_
                  .register_attribute("Power", Polarity::kLowerFirst, false)
                  .ok());
  auto dup = registry_.register_attribute("Power", Polarity::kLowerFirst, false);
  ASSERT_FALSE(dup.ok());
  EXPECT_EQ(dup.error().code, Errc::kAlreadyExists);
  EXPECT_FALSE(registry_.register_attribute("", Polarity::kLowerFirst, false).ok());
}

TEST_F(MemAttrTest, SetValueValidation) {
  // Per-initiator attribute without initiator.
  EXPECT_FALSE(registry_.set_value(kBandwidth, node(0), std::nullopt, 1.0).ok());
  // Global attribute with initiator.
  EXPECT_FALSE(registry_.set_value(kCapacity, node(0), snc0(), 1.0).ok());
  // Non-NUMA target.
  EXPECT_FALSE(
      registry_.set_value(kCapacity, topology_.root(), std::nullopt, 1.0).ok());
  // Unknown attribute id.
  EXPECT_FALSE(registry_.set_value(999, node(0), std::nullopt, 1.0).ok());
}

TEST_F(MemAttrTest, SetValueOverwritesSameInitiator) {
  ASSERT_TRUE(registry_.set_value(kLatency, node(0), snc0(), 100.0).ok());
  ASSERT_TRUE(registry_.set_value(kLatency, node(0), snc0(), 90.0).ok());
  auto value = registry_.value(kLatency, node(0), snc0());
  ASSERT_TRUE(value.ok());
  EXPECT_DOUBLE_EQ(*value, 90.0);
  EXPECT_EQ(registry_.initiators(kLatency, node(0)).size(), 1u);
}

TEST_F(MemAttrTest, SetValuesStoresAllWithOneGenerationBump) {
  const std::uint64_t before = registry_.generation();
  const ValueUpdate updates[] = {
      {kLatency, &node(0), snc0(), 90.0},
      {kLatency, &node(1), snc0(), 150.0},
      {kCapacity, &node(0), std::nullopt, 4.0 * kGiB},
  };
  ASSERT_TRUE(registry_.set_values(updates).ok());
  EXPECT_EQ(registry_.generation(), before + 1);
  EXPECT_EQ(*registry_.value(kLatency, node(0), snc0()), 90.0);
  EXPECT_EQ(*registry_.value(kLatency, node(1), snc0()), 150.0);
  EXPECT_EQ(*registry_.value(kCapacity, node(0), std::nullopt), 4.0 * kGiB);
}

TEST_F(MemAttrTest, SetValuesWithAnInvalidUpdateStoresNothing) {
  const std::uint64_t before = registry_.generation();
  const ValueUpdate updates[] = {
      {kLatency, &node(0), snc0(), 90.0},
      {kBandwidth, &node(1), std::nullopt, 1.0},  // needs an initiator
  };
  EXPECT_FALSE(registry_.set_values(updates).ok());
  const ValueUpdate null_target[] = {{kLatency, nullptr, snc0(), 90.0}};
  EXPECT_FALSE(registry_.set_values(null_target).ok());
  EXPECT_EQ(registry_.generation(), before);
  EXPECT_FALSE(registry_.value(kLatency, node(0), snc0()).ok());
}

TEST_F(MemAttrTest, ValueMissingIsNotFound) {
  auto value = registry_.value(kLatency, node(0), snc0());
  ASSERT_FALSE(value.ok());
  EXPECT_EQ(value.error().code, Errc::kNotFound);
}

TEST_F(MemAttrTest, InitiatorMatchingPrefersExactThenContaining) {
  const auto group = snc0();
  support::Bitmap one_pu;
  one_pu.set(*node(0).cpuset().first());
  const auto pu = Initiator::from_cpuset(one_pu);

  // Store a value for the whole group: a single-PU query matches it
  // (smallest containing locality).
  ASSERT_TRUE(registry_.set_value(kLatency, node(0), group, 80.0).ok());
  auto value = registry_.value(kLatency, node(0), pu);
  ASSERT_TRUE(value.ok());
  EXPECT_DOUBLE_EQ(*value, 80.0);

  // An exact single-PU value wins over the containing one.
  ASSERT_TRUE(registry_.set_value(kLatency, node(0), pu, 70.0).ok());
  value = registry_.value(kLatency, node(0), pu);
  ASSERT_TRUE(value.ok());
  EXPECT_DOUBLE_EQ(*value, 70.0);
  // The group query still sees the group value.
  value = registry_.value(kLatency, node(0), group);
  ASSERT_TRUE(value.ok());
  EXPECT_DOUBLE_EQ(*value, 80.0);
}

TEST_F(MemAttrTest, InitiatorMatchingFallsBackToLargestIntersection) {
  ASSERT_TRUE(registry_.set_value(kLatency, node(0), snc0(), 80.0).ok());
  // Initiator straddling SNC0 and SNC1: neither exact nor contained, but it
  // intersects the stored locality.
  support::Bitmap straddle = node(0).cpuset() | node(1).cpuset();
  auto value =
      registry_.value(kLatency, node(0), Initiator::from_cpuset(straddle));
  ASSERT_TRUE(value.ok());
  EXPECT_DOUBLE_EQ(*value, 80.0);
}

TEST_F(MemAttrTest, BestTargetByCapacityIsNvdimm) {
  auto best = registry_.best_target(kCapacity, snc0());
  ASSERT_TRUE(best.ok());
  EXPECT_EQ(best->target->memory_kind(), topo::MemoryKind::kNVDIMM);
}

TEST_F(MemAttrTest, BestTargetByLocalityIsSncDram) {
  auto best = registry_.best_target(kLocality, snc0());
  ASSERT_TRUE(best.ok());
  EXPECT_EQ(best->target->logical_index(), 0u);
}

TEST_F(MemAttrTest, BestTargetByLatencyUsesStoredValues) {
  ASSERT_TRUE(registry_.set_value(kLatency, node(0), snc0(), 285.0).ok());
  ASSERT_TRUE(registry_.set_value(kLatency, node(2), snc0(), 860.0).ok());
  auto best = registry_.best_target(kLatency, snc0());
  ASSERT_TRUE(best.ok());
  EXPECT_EQ(best->target->logical_index(), 0u);
  EXPECT_DOUBLE_EQ(best->value, 285.0);
}

TEST_F(MemAttrTest, BestTargetNotFoundWithoutValues) {
  auto best = registry_.best_target(kLatency, snc0());
  ASSERT_FALSE(best.ok());
  EXPECT_EQ(best.error().code, Errc::kNotFound);
}

TEST_F(MemAttrTest, TargetsRankedOrderAndOmission) {
  ASSERT_TRUE(registry_.set_value(kBandwidth, node(0), snc0(), 8e10).ok());
  ASSERT_TRUE(registry_.set_value(kBandwidth, node(2), snc0(), 1e10).ok());
  auto ranked = registry_.targets_ranked(kBandwidth, snc0());
  ASSERT_EQ(ranked.size(), 2u);
  EXPECT_EQ(ranked[0].target->logical_index(), 0u);
  EXPECT_EQ(ranked[1].target->logical_index(), 2u);
  EXPECT_GT(ranked[0].value, ranked[1].value);
}

TEST_F(MemAttrTest, RankedTieKeepsLogicalOrder) {
  const auto package = Initiator::from_cpuset(node(2).cpuset());
  ASSERT_TRUE(registry_.set_value(kLatency, node(0), package, 100.0).ok());
  ASSERT_TRUE(registry_.set_value(kLatency, node(1), package, 100.0).ok());
  auto ranked = registry_.targets_ranked(kLatency, package);
  ASSERT_EQ(ranked.size(), 2u);
  EXPECT_EQ(ranked[0].target->logical_index(), 0u);
  EXPECT_EQ(ranked[1].target->logical_index(), 1u);
}

TEST_F(MemAttrTest, BestInitiatorFindsFastestAccessor) {
  const auto snc0_init = snc0();
  const auto snc1_init = Initiator::from_cpuset(node(1).cpuset());
  ASSERT_TRUE(registry_.set_value(kLatency, node(0), snc0_init, 285.0).ok());
  ASSERT_TRUE(registry_.set_value(kLatency, node(0), snc1_init, 400.0).ok());
  auto best = registry_.best_initiator(kLatency, node(0));
  ASSERT_TRUE(best.ok());
  EXPECT_TRUE(best->initiator == node(0).cpuset());
  EXPECT_DOUBLE_EQ(best->value, 285.0);
}

TEST_F(MemAttrTest, BestInitiatorErrorsOnGlobalAttr) {
  EXPECT_FALSE(registry_.best_initiator(kCapacity, node(0)).ok());
  EXPECT_FALSE(registry_.best_initiator(kLatency, node(0)).ok());  // no values
}

TEST_F(MemAttrTest, HasValues) {
  EXPECT_TRUE(registry_.has_values(kCapacity));
  EXPECT_FALSE(registry_.has_values(kLatency));
  ASSERT_TRUE(registry_.set_value(kLatency, node(0), snc0(), 285.0).ok());
  EXPECT_TRUE(registry_.has_values(kLatency));
}

TEST_F(MemAttrTest, AttributeFallbackChain) {
  // ReadBandwidth empty, Bandwidth empty -> error.
  EXPECT_FALSE(registry_.resolve_with_fallback(kReadBandwidth).ok());
  // Bandwidth populated -> ReadBandwidth resolves to Bandwidth.
  ASSERT_TRUE(registry_.set_value(kBandwidth, node(0), snc0(), 8e10).ok());
  auto resolved = registry_.resolve_with_fallback(kReadBandwidth);
  ASSERT_TRUE(resolved.ok());
  EXPECT_EQ(*resolved, kBandwidth);
  // Once ReadBandwidth itself has values it resolves to itself.
  ASSERT_TRUE(registry_.set_value(kReadBandwidth, node(0), snc0(), 9e10).ok());
  resolved = registry_.resolve_with_fallback(kReadBandwidth);
  ASSERT_TRUE(resolved.ok());
  EXPECT_EQ(*resolved, kReadBandwidth);
  // Capacity has no chain but has values.
  resolved = registry_.resolve_with_fallback(kCapacity);
  ASSERT_TRUE(resolved.ok());
  EXPECT_EQ(*resolved, kCapacity);
}

TEST_F(MemAttrTest, LatencyFallbackChain) {
  ASSERT_TRUE(registry_.set_value(kLatency, node(0), snc0(), 285.0).ok());
  auto resolved = registry_.resolve_with_fallback(kWriteLatency);
  ASSERT_TRUE(resolved.ok());
  EXPECT_EQ(*resolved, kLatency);
}

TEST_F(MemAttrTest, ValuePersistenceRoundTrip) {
  // Populate a mix of built-in and custom values...
  ASSERT_TRUE(registry_.set_value(kLatency, node(0), snc0(), 285.5).ok());
  ASSERT_TRUE(registry_.set_value(kBandwidth, node(2), snc0(), 1.05e10).ok());
  auto custom = registry_.register_attribute("Endurance",
                                             Polarity::kHigherFirst, false);
  ASSERT_TRUE(custom.ok());
  ASSERT_TRUE(registry_.set_value(*custom, node(2), std::nullopt, 1e6).ok());

  // ...serialize, reload into a fresh registry for the same topology...
  const std::string text = serialize_values(registry_);
  MemAttrRegistry restored(topology_);
  auto status = load_values(restored, text);
  ASSERT_TRUE(status.ok()) << status.error().to_string() << "\n" << text;

  // ...and get the same values, including the re-registered custom attr.
  auto latency = restored.value(kLatency, node(0), snc0());
  ASSERT_TRUE(latency.ok());
  EXPECT_NEAR(*latency, 285.5, 1e-6);
  auto bandwidth = restored.value(kBandwidth, node(2), snc0());
  ASSERT_TRUE(bandwidth.ok());
  EXPECT_NEAR(*bandwidth, 1.05e10, 1.0);
  auto endurance_id = restored.find_attribute("Endurance");
  ASSERT_TRUE(endurance_id.ok());
  auto endurance = restored.value(*endurance_id, node(2), std::nullopt);
  ASSERT_TRUE(endurance.ok());
  EXPECT_NEAR(*endurance, 1e6, 1e-3);
  EXPECT_EQ(restored.info(*endurance_id).polarity, Polarity::kHigherFirst);
}

TEST_F(MemAttrTest, LoadValuesRejectsMalformedInput) {
  MemAttrRegistry fresh(topology_);
  EXPECT_FALSE(load_values(fresh, "value attr=Latency target=0 v=1\n").ok());
  const char* header = "# hetmem-memattrs v1\n";
  EXPECT_FALSE(
      load_values(fresh, std::string(header) + "bogus record\n").ok());
  EXPECT_FALSE(load_values(fresh, std::string(header) +
                                      "value attr=NoSuch target=0 v=1\n")
                   .ok());
  EXPECT_FALSE(load_values(fresh, std::string(header) +
                                      "value attr=Capacity target=99 v=1\n")
                   .ok());
  EXPECT_FALSE(load_values(fresh, std::string(header) +
                                      "value attr=Capacity target=0 v=xyz\n")
                   .ok());
  // Per-initiator value without initiator: set_value rejects it.
  EXPECT_FALSE(load_values(fresh, std::string(header) +
                                      "value attr=Latency target=0 v=5\n")
                   .ok());
}

TEST_F(MemAttrTest, PersistedRankingsMatchOriginal) {
  // The use-case: probe once, persist, reload on the next run, allocate
  // with identical decisions.
  ASSERT_TRUE(registry_.set_value(kLatency, node(0), snc0(), 285.0).ok());
  ASSERT_TRUE(registry_.set_value(kLatency, node(2), snc0(), 860.0).ok());
  MemAttrRegistry restored(topology_);
  ASSERT_TRUE(load_values(restored, serialize_values(registry_)).ok());
  auto original = registry_.targets_ranked(kLatency, snc0());
  auto reloaded = restored.targets_ranked(kLatency, snc0());
  ASSERT_EQ(original.size(), reloaded.size());
  for (std::size_t i = 0; i < original.size(); ++i) {
    EXPECT_EQ(original[i].target, reloaded[i].target);
  }
}

TEST_F(MemAttrTest, ReportListsPopulatedAttributesOnly) {
  ASSERT_TRUE(registry_.set_value(kLatency, node(0), snc0(), 26.0).ok());
  const std::string report = memattrs_report(registry_);
  EXPECT_NE(report.find("name 'Capacity'"), std::string::npos);
  EXPECT_NE(report.find("name 'Latency'"), std::string::npos);
  EXPECT_EQ(report.find("name 'ReadBandwidth'"), std::string::npos);
  EXPECT_NE(report.find("NUMANode L#0 = 26"), std::string::npos);
}

}  // namespace
}  // namespace hetmem::attr
