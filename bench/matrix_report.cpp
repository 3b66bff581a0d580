// Full (initiator x target) performance matrices and the derived SLIT-style
// distance table for the §VI machines — the §VIII "many available memories,
// local or not" picture. Firmware only describes local pairs; the remote
// rows here come from benchmarking, which is exactly the gap the paper says
// hwloc fills ("hwloc is still able to expose them thanks to benchmarking").
#include "common.hpp"

#include "hetmem/memattr/distances.hpp"

using namespace hetmem;

namespace {

void report(const char* title, bench::Testbed& bed) {
  std::printf("%s", support::banner(title).c_str());
  const topo::Topology& topology = bed.topology();

  // Distinct initiator localities.
  std::vector<support::Bitmap> localities;
  for (const topo::Object* node : topology.numa_nodes()) {
    bool seen = false;
    for (const support::Bitmap& existing : localities) {
      seen |= existing == node->cpuset();
    }
    if (!seen && !node->cpuset().empty()) localities.push_back(node->cpuset());
  }

  for (attr::AttrId attribute : {attr::kLatency, attr::kBandwidth}) {
    std::vector<std::string> headers = {"initiator \\ target"};
    for (const topo::Object* node : topology.numa_nodes()) {
      std::string header = "L#";
      header += std::to_string(node->logical_index());
      header += ' ';
      header += topo::memory_kind_name(node->memory_kind());
      headers.push_back(std::move(header));
    }
    support::TextTable table(std::move(headers));
    for (const support::Bitmap& locality : localities) {
      std::string cpus = "{";
      cpus += locality.to_list_string();
      cpus += '}';
      std::vector<std::string> row = {cpus};
      const auto initiator = attr::Initiator::from_cpuset(locality);
      for (const topo::Object* node : topology.numa_nodes()) {
        auto value = bed.registry->value(attribute, *node, initiator);
        if (!value.ok()) {
          row.push_back("-");
        } else if (attribute == attr::kLatency) {
          row.push_back(support::format_fixed(*value, 0) + "ns");
        } else {
          row.push_back(support::format_fixed(*value / 1e9, 1) + "GB/s");
        }
      }
      table.add_row(std::move(row));
    }
    std::printf("%s:\n%s", bed.registry->info(attribute).name.c_str(),
                table.render().c_str());
  }

  auto matrix = attr::DistanceMatrix::from_latencies(*bed.registry);
  if (matrix.ok()) {
    std::printf("%s", matrix->render().c_str());
    std::printf("nearest-first order from node 0's CPUs:");
    for (unsigned node : matrix->nearest_order(0)) {
      std::printf(" L#%u", node);
    }
    std::printf("\n");
  } else {
    std::printf("(distance matrix unavailable: %s)\n",
                matrix.error().to_string().c_str());
  }
}

}  // namespace

int main() {
  // Probe-fed testbeds include remote pairs (make_xeon/knl probe with
  // include_remote=true by default).
  bench::Testbed xeon = bench::make_xeon();
  report("Xeon: measured (initiator x target) matrices", xeon);
  bench::Testbed knl = bench::make_knl();
  report("KNL: measured (initiator x target) matrices", knl);
  std::printf(
      "\nShape check: remote pairs cost ~1.6x latency / ~0.5x bandwidth;\n"
      "the SLIT view answers sec. VIII's 'local NVDIMM or another DRAM?'\n"
      "directly from the nearest-first order.\n");
  return 0;
}
