// Jittered exponential backoff — the one retry schedule in the library.
//
// A fleet of clients that all sleep exactly the hinted delay would return in
// one synchronized thundering herd and be refused again — classic livelock.
// This helper turns a retry hint into a convergent schedule: full jitter over
// an exponentially growing, capped window (the AWS "full jitter" scheme),
// deterministic per seed so tests and the stress harness can assert
// convergence byte-for-byte.
//
// Three consumers share it (ISSUE 10's unification): the tenant layer's
// shed-retry loop (docs/TENANCY.md), the allocator's transient-retry
// accounting (RetryPolicy), and the recover layer's circuit-breaker probe
// cooldowns (docs/RECOVERY.md). It lives in support/ so all three can link
// it without cycles.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <string>

#include "hetmem/support/rng.hpp"

namespace hetmem::support {

struct BackoffOptions {
  /// Growth factor of the window per consecutive failure.
  double multiplier = 2.0;
  /// Hard ceiling on any single delay; bounds the tail so a recovering
  /// service is re-probed within a predictable time.
  std::uint64_t max_delay_ms = 1000;
  /// Deterministic jitter seed (per client, e.g. the tenant id).
  std::uint64_t seed = 0x9e3779b97f4a7c15ull;
};

/// One client's retry state. Not thread-safe: each retrying thread owns one.
class Backoff {
 public:
  explicit Backoff(BackoffOptions options = {})
      : options_(options), rng_(options.seed) {}

  /// Next delay for a request refused with `retry_after_ms`: full jitter in
  /// [hint, window] where window starts at the hint and grows by
  /// `multiplier` per consecutive failure, capped at max_delay_ms. The hint
  /// is the floor — the service said "not before then" — and the jitter
  /// spreads clients out above it.
  [[nodiscard]] std::uint64_t next_delay_ms(std::uint64_t retry_after_ms) {
    const std::uint64_t floor_ms = std::max<std::uint64_t>(retry_after_ms, 1);
    double window = static_cast<double>(floor_ms);
    for (unsigned i = 0; i < attempt_; ++i) window *= options_.multiplier;
    const std::uint64_t cap = std::max<std::uint64_t>(
        std::min<std::uint64_t>(static_cast<std::uint64_t>(window),
                                options_.max_delay_ms),
        floor_ms);
    ++attempt_;
    return floor_ms + rng_.next_below(cap - floor_ms + 1);
  }

  /// Call after a request is admitted: the next failure starts a fresh
  /// window.
  void reset() { attempt_ = 0; }

  [[nodiscard]] unsigned attempt() const { return attempt_; }
  [[nodiscard]] const BackoffOptions& options() const { return options_; }

  /// Snapshot/restore (src/recover): a restored backoff draws the same
  /// delays the exported one would have.
  struct State {
    std::array<std::uint64_t, 4> rng{};
    unsigned attempt = 0;
  };
  [[nodiscard]] State export_state() const {
    return State{rng_.state(), attempt_};
  }
  void restore_state(const State& state) {
    rng_.set_state(state.rng);
    attempt_ = state.attempt;
  }

 private:
  BackoffOptions options_;
  support::Xoshiro256 rng_;
  unsigned attempt_ = 0;
};

/// Extracts the "retry-after-ms=<n>" token the allocator embeds in shed
/// error messages — for clients that only see the rendered string (the C
/// API's int returns, log scrapers). Returns 0 when absent.
[[nodiscard]] inline std::uint64_t parse_retry_after_ms(
    const std::string& message) {
  static constexpr char kToken[] = "retry-after-ms=";
  const std::size_t at = message.find(kToken);
  if (at == std::string::npos) return 0;
  std::uint64_t value = 0;
  for (std::size_t i = at + sizeof(kToken) - 1; i < message.size(); ++i) {
    const char c = message[i];
    if (c < '0' || c > '9') break;
    value = value * 10 + static_cast<std::uint64_t>(c - '0');
  }
  return value;
}

}  // namespace hetmem::support
