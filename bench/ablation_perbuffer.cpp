// Ablation A9: per-buffer criteria vs whole-process placement (the paper's
// §II-E proposal, quantified — plus the §VII ordering hazard).
//
// SpMV on the Xeon with a 150 GiB matrix + 60 GiB gathered vector: the
// footprint exceeds the 192 GB DRAM node, so SOMETHING must live on NVDIMM
// and the question is what. Whole-process placement has no good answer;
// FCFS per-buffer attributes let the streaming matrix hog the DRAM and
// exile the latency-critical x vector; prioritized per-buffer placement
// gives x the DRAM latency and streams the matrix from NVDIMM — each
// buffer on the memory its access pattern wants.
#include "common.hpp"

#include "hetmem/apps/spmv.hpp"

using namespace hetmem;
using support::kGiB;

namespace {

apps::SpmvConfig config() {
  apps::SpmvConfig c;
  c.matrix_bytes = 150ull * kGiB;
  c.vector_bytes = 60ull * kGiB;
  c.backing_rows = 1u << 14;
  c.threads = 16;
  c.iterations = 3;
  return c;
}

void run_case(bench::Testbed& bed, const char* name,
              const apps::SpmvPlacement& placement, support::TextTable& table,
              bool needs_allocator) {
  auto runner = apps::SpmvRunner::create(
      *bed.machine, needs_allocator ? bed.allocator.get() : nullptr,
      bed.topology().numa_node(0)->cpuset(), config(), placement);
  if (!runner.ok()) {
    std::string reason = "(";
    reason += support::errc_name(runner.error().code);
    reason += ')';
    table.add_row({name, "-", "-", "-", reason});
    return;
  }
  auto result = (*runner)->run();
  if (!result.ok()) {
    table.add_row({name, "-", "-", "-", "(run failed)"});
    return;
  }
  table.add_row(
      {name,
       std::string(topo::memory_kind_name(
           bed.topology().numa_node(result->matrix_node)->memory_kind())),
       std::string(topo::memory_kind_name(
           bed.topology().numa_node(result->x_node)->memory_kind())),
       support::format_fixed(result->seconds, 1) + " s",
       support::format_fixed(result->gflops, 2)});
}

}  // namespace

int main() {
  std::printf("%s", support::banner(
      "Ablation A9: per-buffer placement of SpMV (Xeon: 192GB DRAM + 768GB "
      "NVDIMM; 150GiB matrix + 60GiB vector does not fit DRAM)").c_str());

  support::TextTable table(
      {"Placement", "matrix on", "x on", "sim. time", "GFLOP/s"});
  {
    bench::Testbed bed = bench::make_xeon();
    run_case(bed, "whole process on DRAM", apps::SpmvPlacement::all_on_node(0),
             table, false);  // does not fit: the paper's blank cell
  }
  {
    bench::Testbed bed = bench::make_xeon();
    run_case(bed, "whole process on NVDIMM",
             apps::SpmvPlacement::all_on_node(2), table, false);
  }
  {
    // FCFS per-buffer attributes: the matrix allocates first, takes the
    // DRAM, and the latency-critical x spills to NVDIMM (§VII inversion).
    bench::Testbed bed = bench::make_xeon();
    run_case(bed, "per-buffer, FCFS order", apps::SpmvPlacement::per_buffer(),
             table, true);
  }
  {
    // Prioritized placement (what plan_placements computes for these
    // sizes): x gets the DRAM, the matrix streams from NVDIMM.
    bench::Testbed bed = bench::make_xeon();
    apps::SpmvPlacement planned;
    planned.matrix.forced_node = 2;
    planned.x.forced_node = 0;
    planned.y.forced_node = 0;
    run_case(bed, "per-buffer, prioritized", planned, table, false);
  }
  std::printf("%s", table.render().c_str());
  std::printf(
      "\nShape check: whole-on-DRAM cannot allocate; whole-on-NVDIMM pays\n"
      "860ns on every gather; FCFS per-buffer wastes the DRAM on the\n"
      "bandwidth-tolerant matrix; prioritized per-buffer is ~5x faster —\n"
      "buffers have individual affinities (sec. II-E) and hot ones must be\n"
      "placed first (sec. VII).\n");
  return 0;
}
