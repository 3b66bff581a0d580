// Chaos harness: run the full stack — corrupted HMAT -> lenient parse ->
// registry -> probe under fault injection -> resilient allocator -> real
// workloads — on every topology preset under randomized (but seeded) fault
// schedules. The contract being tested (docs/RESILIENCE.md): workloads
// complete with *validated* results no matter what faults fire. Degraded
// placement is fine; crashes, hangs or wrong answers are not.
#include <gtest/gtest.h>

#include <cctype>
#include <string>
#include <tuple>
#include <vector>

#include "hetmem/alloc/allocator.hpp"
#include "hetmem/apps/graph500.hpp"
#include "hetmem/apps/stream.hpp"
#include "hetmem/fault/fault.hpp"
#include "hetmem/hmat/hmat.hpp"
#include "hetmem/probe/probe.hpp"
#include "hetmem/support/units.hpp"
#include "hetmem/topo/presets.hpp"

namespace hetmem {
namespace {

using support::kMiB;

/// First NUMA node with CPUs — some presets lead with CPU-less nodes.
support::Bitmap first_initiator(const topo::Topology& topology) {
  for (const topo::Object* node : topology.numa_nodes()) {
    if (!node->cpuset().empty()) return node->cpuset();
  }
  return {};
}

struct ChaosOutcome {
  std::string fault_fingerprint;
  std::vector<std::pair<std::string, unsigned>> placements;  // label -> node
  double stream_checksum = 0.0;
  std::size_t parse_errors = 0;
  std::size_t parse_warnings = 0;
};

/// One full chaos pipeline on `topology` with fault schedule `seed`.
/// Every step must complete; gtest assertions fire inside (void return so
/// ASSERT_* can bail out; results land in *out).
void run_chaos_pipeline(const topo::NamedTopology& preset, std::uint64_t seed,
                        ChaosOutcome* out) {
  ChaosOutcome& outcome = *out;
  sim::SimMachine machine(preset.factory());
  const support::Bitmap initiator = first_initiator(machine.topology());
  EXPECT_FALSE(initiator.empty()) << preset.name;

  fault::FaultInjector injector = fault::FaultInjector::preset("heavy", seed);

  // 1. Firmware tables arrive corrupted; the lenient parser must recover
  //    per-record with line-numbered diagnostics, never crash or mis-rank.
  const std::string clean_text = hmat::serialize(hmat::generate(machine.topology()));
  const fault::HmatCorruption corruption =
      fault::corrupt_hmat_text(clean_text, injector);
  const hmat::ParseReport report = hmat::parse_lenient(corruption.text);
  for (const hmat::Diagnostic& diagnostic : report.diagnostics) {
    EXPECT_GT(diagnostic.line, 0u)
        << preset.name << ": diagnostic without line number: "
        << diagnostic.message;
  }
  if (corruption.values_garbled > 0) {
    EXPECT_GT(report.error_count(), 0u)
        << preset.name << ": garbled values must produce error diagnostics";
  }
  outcome.parse_errors = report.error_count();
  outcome.parse_warnings = report.warning_count();

  attr::MemAttrRegistry registry(machine.topology());
  auto load = hmat::load_into(registry, report.table);
  EXPECT_TRUE(load.ok()) << preset.name;

  // 2. Benchmark discovery under probe faults and noise: failed pairs are
  //    skipped, noisy pairs are demoted, and the sweep still completes.
  machine.set_fault_injector(&injector);
  probe::ProbeOptions probe_options;
  probe_options.buffer_bytes = 64 * kMiB;
  probe_options.backing_bytes = 64 * 1024;
  probe_options.chase_accesses = 1000;
  probe_options.threads = 4;
  probe_options.include_remote = false;
  probe_options.faults = &injector;
  probe_options.repeats = 2;
  auto discovery = probe::discover(machine, probe_options);
  ASSERT_TRUE(discovery.ok()) << preset.name;
  EXPECT_TRUE(probe::feed_registry(registry, *discovery).ok());

  // 3. Resilient allocation: bounded transient retry + attribute rescue.
  // Deep retry budget: on single-local-node topologies (Fugaku CMGs) there
  // is no fallback target, so outlasting a transient burst is the only
  // way an allocation can land.
  alloc::HeterogeneousAllocator allocator(machine, registry);
  allocator.set_retry_policy({.max_transient_retries = 8});

  // STREAM with the Bandwidth criterion. Reference checksum from a clean
  // machine of the same preset: chaos may move the arrays, never corrupt
  // the arithmetic.
  apps::StreamConfig stream_config;
  stream_config.declared_total_bytes = 96 * kMiB;
  stream_config.backing_elements = 1u << 14;
  stream_config.threads = 4;
  stream_config.iterations = 2;
  apps::BufferPlacement stream_placement;
  stream_placement.attribute = attr::kBandwidth;
  stream_placement.attribute_rescue = true;
  auto stream_runner = apps::StreamRunner::create(machine, &allocator, initiator,
                                                  stream_config, stream_placement);
  ASSERT_TRUE(stream_runner.ok()) << preset.name << " seed " << seed;
  auto stream_result = (*stream_runner)->run_triad();
  ASSERT_TRUE(stream_result.ok()) << preset.name << " seed " << seed;
  outcome.stream_checksum = stream_result->checksum;

  // 4. Mid-run capacity squeeze: hog most of the node STREAM landed on, then
  //    bring up Graph500 — it must route around the squeezed target.
  // Leave 64 MiB: enough for the small BFS instance even when the fault
  // schedule also took the *other* local node offline — the contract is
  // resilience, not conjuring memory that does not exist.
  const unsigned squeezed = stream_result->node_a;
  const std::uint64_t available = machine.available_bytes(squeezed);
  sim::BufferId hog{};
  if (available > 64 * kMiB) {
    auto hog_buffer =
        machine.allocate(available - 64 * kMiB, squeezed, "chaos-hog");
    if (hog_buffer.ok()) hog = *hog_buffer;
  }

  apps::Graph500Config bfs_config;
  bfs_config.scale_declared = 16;
  bfs_config.scale_backing = 12;
  bfs_config.threads = 4;
  bfs_config.num_roots = 2;
  apps::Graph500Placement bfs_placement =
      apps::Graph500Placement::by_attribute(attr::kLatency);
  bfs_placement.graph.attribute_rescue = true;
  bfs_placement.parents.attribute_rescue = true;
  bfs_placement.frontier.attribute_rescue = true;
  auto bfs_runner = apps::Graph500Runner::create(machine, &allocator, initiator,
                                                 bfs_config, bfs_placement);
  std::string node_state;
  for (unsigned n = 0; n < machine.topology().numa_nodes().size(); ++n) {
    node_state += " node" + std::to_string(n) +
                  (machine.node_online(n) ? "+" : "-") + "=" +
                  std::to_string(machine.available_bytes(n) / kMiB) + "MiB";
  }
  ASSERT_TRUE(bfs_runner.ok())
      << preset.name << " seed " << seed << ": "
      << (bfs_runner.ok() ? "" : bfs_runner.error().to_string()) << node_state;
  auto bfs_result = (*bfs_runner)->run();
  ASSERT_TRUE(bfs_result.ok()) << preset.name << " seed " << seed;
  EXPECT_GT(bfs_result->harmonic_mean_teps, 0.0);
  // Graph500's own validation step: the BFS tree must be a correct answer
  // even when every buffer placement was degraded.
  EXPECT_TRUE((*bfs_runner)->validate_last_tree().ok())
      << preset.name << " seed " << seed;

  machine.set_fault_injector(nullptr);
  if (hog.valid()) (void)machine.free(hog);

  outcome.fault_fingerprint = injector.schedule_fingerprint();
  for (const alloc::TraceEvent& event : allocator.trace()) {
    if (event.kind == alloc::TraceEvent::Kind::kAlloc) {
      outcome.placements.emplace_back(event.label, event.node);
    }
  }
}

class ChaosTest
    : public ::testing::TestWithParam<std::tuple<int, std::uint64_t>> {};

TEST_P(ChaosTest, WorkloadsSurviveFaultScheduleWithValidResults) {
  const auto& preset =
      topo::all_presets()[static_cast<std::size_t>(std::get<0>(GetParam()))];
  const std::uint64_t seed = std::get<1>(GetParam());
  ChaosOutcome outcome;
  run_chaos_pipeline(preset, seed, &outcome);
  ASSERT_FALSE(HasFatalFailure());

  // The checksum is a pure function of the backing arrays — placement
  // degradation must not change the numerical answer.
  sim::SimMachine clean_machine(preset.factory());
  apps::StreamConfig stream_config;
  stream_config.declared_total_bytes = 96 * kMiB;
  stream_config.backing_elements = 1u << 14;
  stream_config.threads = 4;
  stream_config.iterations = 2;
  apps::BufferPlacement forced;
  forced.forced_node = 0;
  auto clean_runner =
      apps::StreamRunner::create(clean_machine, nullptr,
                                 first_initiator(clean_machine.topology()),
                                 stream_config, forced);
  ASSERT_TRUE(clean_runner.ok());
  auto clean_result = (*clean_runner)->run_triad();
  ASSERT_TRUE(clean_result.ok());
  EXPECT_DOUBLE_EQ(outcome.stream_checksum, clean_result->checksum)
      << preset.name << " seed " << seed << ": chaos changed the answer";
}

INSTANTIATE_TEST_SUITE_P(
    AllPresetsTimesSeeds, ChaosTest,
    ::testing::Combine(
        ::testing::Range(0, static_cast<int>(topo::all_presets().size())),
        ::testing::Values(101, 202, 303)),
    [](const ::testing::TestParamInfo<ChaosTest::ParamType>& param_info) {
      const auto preset =
          static_cast<std::size_t>(std::get<0>(param_info.param));
      std::string name = topo::all_presets()[preset].name;
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name + "_seed" + std::to_string(std::get<1>(param_info.param));
    });

// The determinism contract: the same seed must reproduce the exact fault
// schedule AND the exact allocator decisions — this is what makes a chaos
// failure debuggable after the fact.
TEST(ChaosReplayTest, SameSeedReplaysFaultsAndPlacements) {
  const topo::NamedTopology& preset = topo::all_presets().front();
  ChaosOutcome first, second, other;
  run_chaos_pipeline(preset, 4242, &first);
  run_chaos_pipeline(preset, 4242, &second);
  ASSERT_FALSE(HasFatalFailure());
  EXPECT_EQ(first.fault_fingerprint, second.fault_fingerprint);
  EXPECT_EQ(first.placements, second.placements);
  EXPECT_EQ(first.parse_errors, second.parse_errors);
  EXPECT_EQ(first.parse_warnings, second.parse_warnings);
  EXPECT_DOUBLE_EQ(first.stream_checksum, second.stream_checksum);

  run_chaos_pipeline(preset, 4243, &other);
  EXPECT_NE(first.fault_fingerprint, other.fault_fingerprint)
      << "different seeds should draw different schedules";
}

// HMAT corruption must never produce a silently wrong ranking: every record
// the lenient parser *kept* appears verbatim-parseable, and duplicates are
// resolved last-wins (deterministically).
TEST(ChaosHmatTest, KeptEntriesAreWellFormedAndDeduped) {
  for (std::uint64_t seed : {7u, 8u, 9u}) {
    sim::SimMachine machine(topo::xeon_clx_snc_1lm());
    fault::FaultInjector injector = fault::FaultInjector::preset("hmat-chaos", seed);
    const std::string text = hmat::serialize(hmat::generate(machine.topology()));
    const fault::HmatCorruption corruption = fault::corrupt_hmat_text(text, injector);
    const hmat::ParseReport report = hmat::parse_lenient(corruption.text);
    // No duplicate (initiator, target, metric, access) keys survive.
    hmat::HmatTable copy = report.table;
    EXPECT_EQ(hmat::dedupe_entries(copy), 0u) << "seed " << seed;
    // Values are sane — positive, finite; NaN garbling was rejected.
    for (const hmat::LocalityEntry& entry : report.table.locality) {
      EXPECT_GT(entry.value, 0.0);
    }
  }
}

}  // namespace
}  // namespace hetmem
