#include "hetmem/alloc/advisor.hpp"

#include <algorithm>

#include "hetmem/prof/classify.hpp"

namespace hetmem::alloc {

using support::Result;

double TrafficCostModel::cost_ns(const sim::SimMachine& machine, unsigned node,
                                 std::uint64_t declared_bytes,
                                 bool local_initiator,
                                 const sim::BufferTraffic& traffic) const {
  const sim::EffectiveNodePerf perf =
      machine.perf_model().effective(node, declared_bytes, local_initiator);
  const double thread_count = std::max(1u, threads);
  const double stall =
      traffic.random_misses / thread_count * perf.latency_ns / mlp;
  const double stream_bytes =
      std::max(0.0, traffic.memory_bytes - traffic.random_misses * 64.0);
  // Split streamed bytes evenly over read/write paths for the estimate.
  const double bw_time = stream_bytes / 2.0 / perf.read_bw * 1e9 +
                         stream_bytes / 2.0 / perf.write_bw * 1e9;
  return stall + bw_time;
}

std::vector<MigrationAdvice> advise_migrations(
    const HeterogeneousAllocator& allocator, const sim::ExecutionContext& exec,
    const support::Bitmap& initiator, const AdvisorOptions& options) {
  const sim::SimMachine& machine = exec.machine();
  const attr::MemAttrRegistry& registry = allocator.registry();
  const auto query = attr::Initiator::from_cpuset(initiator);

  std::vector<sim::BufferTraffic> traffic = exec.merged_buffer_traffic();
  double total_bytes = 0.0;
  for (const sim::BufferTraffic& bt : traffic) total_bytes += bt.memory_bytes;

  std::vector<MigrationAdvice> advice;
  for (std::uint32_t index = 0; index < traffic.size(); ++index) {
    const sim::BufferTraffic& bt = traffic[index];
    if (bt.memory_bytes <= 0.0 ||
        (total_bytes > 0.0 &&
         bt.memory_bytes / total_bytes < options.min_traffic_share)) {
      continue;
    }
    const sim::BufferId buffer = exec.traffic_buffer(index);
    const sim::BufferInfo& info = machine.info(buffer);
    if (info.freed) continue;

    // Dominant behavior decides the criterion, via the shared thresholds the
    // profiler hints with (traffic share 1.0: insensitivity was already
    // filtered by min_traffic_share above).
    const prof::Sensitivity sensitivity =
        prof::classify_sensitivity(1.0, bt.llc_misses, bt.random_misses);
    const attr::AttrId attribute = prof::allocation_hint(sensitivity);
    auto ranked = registry.targets_ranked(attribute, query);
    if (ranked.empty()) continue;

    // Best target with room for this buffer, excluding where it already is.
    const topo::Object* destination = nullptr;
    for (const attr::TargetValue& candidate : ranked) {
      const unsigned node = candidate.target->logical_index();
      if (node == info.node) {
        destination = nullptr;  // already on the best feasible target
        break;
      }
      if (machine.available_bytes(node) >= info.declared_bytes) {
        destination = candidate.target;
        break;
      }
    }
    if (destination == nullptr) continue;
    const unsigned to_node = destination->logical_index();

    // Wall-clock cost of the observed traffic on current vs destination
    // node, via the shared model the online engine also uses.
    const TrafficCostModel cost_model{options.mlp, exec.thread_count()};
    auto traffic_cost = [&](unsigned node) {
      const bool local = initiator.is_subset_of(
          machine.topology().numa_node(node)->cpuset());
      return cost_model.cost_ns(machine, node, info.declared_bytes, local, bt);
    };
    const double benefit = traffic_cost(info.node) - traffic_cost(to_node);
    if (benefit <= 0.0) continue;

    const double cost =
        allocator.estimate_migration_cost_ns(buffer, to_node);

    MigrationAdvice entry;
    entry.buffer = buffer;
    entry.label = info.label;
    entry.from_node = info.node;
    entry.to_node = to_node;
    entry.benefit_per_round_ns = benefit;
    entry.cost_ns = cost;
    entry.breakeven_rounds = benefit > 0.0 ? cost / benefit : 1e300;
    advice.push_back(std::move(entry));
  }

  std::stable_sort(advice.begin(), advice.end(),
                   [&](const MigrationAdvice& a, const MigrationAdvice& b) {
                     const double net_a = a.benefit_per_round_ns *
                                              options.expected_future_rounds -
                                          a.cost_ns;
                     const double net_b = b.benefit_per_round_ns *
                                              options.expected_future_rounds -
                                          b.cost_ns;
                     return net_a > net_b;
                   });
  return advice;
}

Result<double> apply_advice(HeterogeneousAllocator& allocator,
                            const std::vector<MigrationAdvice>& advice,
                            const AdvisorOptions& options) {
  double total_cost = 0.0;
  for (const MigrationAdvice& entry : advice) {
    if (entry.breakeven_rounds > options.expected_future_rounds) continue;
    auto cost = allocator.migrate(entry.buffer, entry.to_node);
    if (!cost.ok()) return cost.error();
    total_cost += *cost;
  }
  return total_cost;
}

}  // namespace hetmem::alloc
