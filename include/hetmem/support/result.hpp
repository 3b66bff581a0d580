// Minimal expected-style result type (C++20 predates std::expected).
//
// Library APIs that can fail in ways the caller should handle return
// Result<T>; programming errors (precondition violations) assert instead.
#pragma once

#include <cassert>
#include <cstdint>
#include <string>
#include <utility>
#include <variant>

namespace hetmem::support {

/// Machine-inspectable failure category, plus a human-readable detail string.
enum class Errc {
  kInvalidArgument,
  kNotFound,
  kOutOfCapacity,
  kUnsupported,
  kParseError,
  kAlreadyExists,
  kInternal,
  /// Retryable failure (injected fault, momentary resource contention):
  /// the same call may succeed if repeated. The allocator's bounded-retry
  /// path keys off this exact code.
  kTransient,
  /// Admission control refused the request because every target with room
  /// is quarantined or offline (docs/RESILIENCE.md "Health & evacuation").
  /// Unlike kOutOfCapacity this is not a "the machine is full" verdict —
  /// capacity exists but is unhealthy; callers should back off and retry
  /// after the health monitor re-probates a target.
  kBackpressure,
};

[[nodiscard]] constexpr const char* errc_name(Errc code) {
  switch (code) {
    case Errc::kInvalidArgument: return "invalid-argument";
    case Errc::kNotFound: return "not-found";
    case Errc::kOutOfCapacity: return "out-of-capacity";
    case Errc::kUnsupported: return "unsupported";
    case Errc::kParseError: return "parse-error";
    case Errc::kAlreadyExists: return "already-exists";
    case Errc::kInternal: return "internal";
    case Errc::kTransient: return "transient";
    case Errc::kBackpressure: return "backpressure";
  }
  return "unknown";
}

struct Error {
  Errc code = Errc::kInternal;
  std::string message;
  /// Structured backpressure hint: for kBackpressure errors, the earliest
  /// time (ms from now) the service suggests retrying — 0 when the producer
  /// has no estimate. Clients should jitter around it (support::Backoff)
  /// rather than sleeping exactly this long in lockstep.
  std::uint64_t retry_after_ms = 0;

  [[nodiscard]] std::string to_string() const {
    return std::string(errc_name(code)) + ": " + message;
  }
};

template <typename T>
class [[nodiscard]] Result {
 public:
  Result(T value) : storage_(std::move(value)) {}  // NOLINT: implicit by design
  Result(Error error) : storage_(std::move(error)) {}  // NOLINT

  [[nodiscard]] bool ok() const { return std::holds_alternative<T>(storage_); }
  explicit operator bool() const { return ok(); }

  [[nodiscard]] const T& value() const& {
    assert(ok() && "Result::value() on error");
    return std::get<T>(storage_);
  }
  [[nodiscard]] T& value() & {
    assert(ok() && "Result::value() on error");
    return std::get<T>(storage_);
  }
  [[nodiscard]] T&& take() && {
    assert(ok() && "Result::take() on error");
    return std::get<T>(std::move(storage_));
  }
  [[nodiscard]] const T& operator*() const& { return value(); }
  [[nodiscard]] const T* operator->() const { return &value(); }

  [[nodiscard]] const Error& error() const {
    assert(!ok() && "Result::error() on success");
    return std::get<Error>(storage_);
  }

  [[nodiscard]] T value_or(T fallback) const& {
    return ok() ? std::get<T>(storage_) : std::move(fallback);
  }

 private:
  std::variant<T, Error> storage_;
};

/// Result<void> analogue.
class [[nodiscard]] Status {
 public:
  Status() = default;
  Status(Error error) : error_(std::move(error)), failed_(true) {}  // NOLINT

  static Status ok_status() { return {}; }

  [[nodiscard]] bool ok() const { return !failed_; }
  explicit operator bool() const { return ok(); }
  [[nodiscard]] const Error& error() const {
    assert(failed_ && "Status::error() on success");
    return error_;
  }

 private:
  Error error_;
  bool failed_ = false;
};

inline Error make_error(Errc code, std::string message) {
  return Error{code, std::move(message)};
}

}  // namespace hetmem::support
