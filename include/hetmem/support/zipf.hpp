// Seeded Zipfian rank sampling.
//
// KV-cache style workloads are dominated by a small set of hot keys whose
// popularity follows a power law: the r-th most popular key is drawn with
// probability proportional to r^-s. The distribution precomputes the CDF
// over a bounded rank universe once and samples by inversion: a draw is the
// first rank whose CDF value exceeds a uniform u. Draws are allocation-free
// and — driven by Xoshiro256 — fully deterministic for a fixed seed (the
// phase-shift workloads and synthetic trace generators both depend on
// that).
//
// Search: a guide table (Chen & Asau 1974; Devroye 1986, §III.2.4) splits
// [0, 1) into 2^k equal buckets, 2^k being `ranks` rounded up to a power of
// two, and records for every bucket edge b * 2^-k the first rank whose CDF
// value exceeds it. A draw takes its bucket from the top k bits of its
// 53-bit uniform and binary-searches only the ranks from that bucket's guide
// entry up to the next one: the ranks whose CDF values fall in the bucket.
// There are `ranks` CDF values and at least as many buckets, each drawn with
// equal probability, so a draw searches at most one rank on average whatever
// the skew, instead of the log2(ranks) probes (16 for 65,536 keys) of a
// search over the whole CDF.
//
// Exactness: u = bits * 2^-53 and every bucket edge b * 2^-k are exact
// doubles, so the full-range answer for u (the first rank with cdf > u) lies
// between the guide entries of u's two bucket edges, both included. The
// narrowed search returns it: the first CDF value above u in the range, or
// the range's end when there is none. Every draw therefore returns the same
// rank as a search of the whole CDF, and the generator advances by exactly
// one next() per draw.
#pragma once

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "hetmem/support/rng.hpp"

namespace hetmem::support {

class ZipfDistribution {
 public:
  /// Bits of uniform randomness behind one draw (Xoshiro256::next_double's).
  static constexpr int kDrawBits = 53;

  /// `ranks`: size of the rank universe (1 <= ranks < 2^32). `s`: skew
  /// exponent; s = 0 is uniform, s around 1 matches classic web/KV
  /// popularity, larger s concentrates mass further into the head.
  ZipfDistribution(std::size_t ranks, double s)
      : cdf_(std::max<std::size_t>(1, ranks)) {
    double sum = 0.0;
    for (std::size_t rank = 0; rank < cdf_.size(); ++rank) {
      sum += std::pow(static_cast<double>(rank + 1), -s);
      cdf_[rank] = sum;
    }
    for (double& value : cdf_) value /= sum;

    // guide_[b] = first rank whose CDF value exceeds b * 2^-k, filled by one
    // merge walk over the ascending bucket edges and CDF.
    const int k = std::bit_width(cdf_.size() - 1);
    const std::size_t buckets = std::size_t{1} << k;
    bucket_shift_ = kDrawBits - k;
    const double scale = std::ldexp(1.0, -k);
    guide_.resize(buckets + 1);
    std::size_t rank = 0;
    for (std::size_t bucket = 0; bucket <= buckets; ++bucket) {
      const double edge = static_cast<double>(bucket) * scale;
      while (rank < cdf_.size() && cdf_[rank] <= edge) ++rank;
      guide_[bucket] = static_cast<std::uint32_t>(rank);
    }
  }

  [[nodiscard]] std::size_t ranks() const { return cdf_.size(); }

  /// Draws a rank in [0, ranks()), 0 being the most popular.
  [[nodiscard]] std::size_t sample(Xoshiro256& rng) const {
    return sample_bits(rng.next() >> (64 - kDrawBits));
  }

  /// The rank for the uniform u = bits * 2^-53, `bits` < 2^53: the first
  /// rank whose CDF value exceeds u, clamped to the last rank.
  [[nodiscard]] std::size_t sample_bits(std::uint64_t bits) const {
    const std::size_t bucket = static_cast<std::size_t>(bits >> bucket_shift_);
    const double u = static_cast<double>(bits) * 0x1.0p-53;
    const auto it = std::upper_bound(cdf_.begin() + guide_[bucket],
                                     cdf_.begin() + guide_[bucket + 1], u);
    const std::size_t rank = static_cast<std::size_t>(it - cdf_.begin());
    return std::min(rank, cdf_.size() - 1);
  }

  /// Probability mass of ranks [0, rank) — how much of the traffic the top
  /// `rank` keys absorb (used to size hot sets against the 1% share floor
  /// the classifier treats as insensitive).
  [[nodiscard]] double mass_below(std::size_t rank) const {
    if (rank == 0) return 0.0;
    return cdf_[std::min(rank, cdf_.size()) - 1];
  }

 private:
  std::vector<double> cdf_;
  std::vector<std::uint32_t> guide_;
  int bucket_shift_ = kDrawBits;
};

}  // namespace hetmem::support
