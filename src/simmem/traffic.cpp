#include "hetmem/simmem/traffic.hpp"

#include <cassert>

namespace hetmem::sim {

ThreadCtx::ThreadCtx(std::size_t node_count) : node_traffic_(node_count) {}

BufferTraffic& ThreadCtx::entry(BufferId buffer) {
  assert(buffer.valid());
  if (buffer_traffic_.size() <= buffer.index) {
    buffer_traffic_.resize(buffer.index + 1);
    generations_.resize(buffer.index + 1, 0);
    touched_mark_.resize(buffer.index + 1, 0);
  }
  std::uint32_t& generation = generations_[buffer.index];
  if (generation != buffer.generation) {
    if (buffer.generation < generation) {
      stale_ = BufferTraffic{};
      return stale_;
    }
    generation = buffer.generation;
    buffer_traffic_[buffer.index] = BufferTraffic{};
  }
  if (touched_mark_[buffer.index] == 0) {
    touched_mark_[buffer.index] = 1;
    touched_.push_back(buffer.index);
  }
  return buffer_traffic_[buffer.index];
}

void ThreadCtx::record_seq_read(unsigned node, BufferId buffer,
                                double program_bytes, double memory_fraction) {
  assert(node < node_traffic_.size());
  node_traffic_[node].seq_read_bytes += program_bytes * memory_fraction;
  BufferTraffic& bt = entry(buffer);
  bt.reads += program_bytes / kLineBytes;
  bt.llc_misses += program_bytes * memory_fraction / kLineBytes;
  bt.memory_bytes += program_bytes * memory_fraction;
}

void ThreadCtx::record_seq_write(unsigned node, BufferId buffer,
                                 double program_bytes, double memory_fraction) {
  assert(node < node_traffic_.size());
  node_traffic_[node].seq_write_bytes += program_bytes * memory_fraction;
  BufferTraffic& bt = entry(buffer);
  bt.writes += program_bytes / kLineBytes;
  bt.llc_misses += program_bytes * memory_fraction / kLineBytes;
  bt.memory_bytes += program_bytes * memory_fraction;
}

void ThreadCtx::record_rand_read(unsigned node, BufferId buffer, double accesses,
                                 double miss_rate) {
  assert(node < node_traffic_.size());
  const double misses = accesses * miss_rate;
  NodeTraffic& nt = node_traffic_[node];
  nt.rand_read_accesses += misses;
  nt.rand_read_bytes += misses * kLineBytes;
  BufferTraffic& bt = entry(buffer);
  bt.reads += accesses;
  bt.llc_misses += misses;
  bt.memory_bytes += misses * kLineBytes;
  bt.random_accesses += accesses;
  bt.random_misses += misses;
}

void ThreadCtx::record_rand_write(unsigned node, BufferId buffer, double accesses,
                                  double miss_rate) {
  assert(node < node_traffic_.size());
  const double misses = accesses * miss_rate;
  NodeTraffic& nt = node_traffic_[node];
  nt.rand_write_accesses += misses;
  nt.rand_write_bytes += misses * kLineBytes;
  BufferTraffic& bt = entry(buffer);
  bt.writes += accesses;
  bt.llc_misses += misses;
  bt.memory_bytes += misses * kLineBytes;
  bt.random_accesses += accesses;
  bt.random_misses += misses;
}

void ThreadCtx::reset_phase() {
  for (NodeTraffic& nt : node_traffic_) nt = NodeTraffic{};
  for (std::uint32_t index : touched_) touched_mark_[index] = 0;
  touched_.clear();
  compute_ns_ = 0.0;
}

}  // namespace hetmem::sim
