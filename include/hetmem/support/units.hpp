// Byte-size and rate formatting/parsing helpers.
//
// The paper mixes units freely (hwloc reports bandwidth in MiB/s, capacities
// in bytes, latencies in ns); this module centralizes the conversions so the
// rest of the library stores plain doubles/uint64 in canonical units:
//   capacity  -> bytes
//   bandwidth -> bytes per second
//   latency   -> nanoseconds
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace hetmem::support {

inline constexpr std::uint64_t kKiB = 1024ull;
inline constexpr std::uint64_t kMiB = kKiB * 1024ull;
inline constexpr std::uint64_t kGiB = kMiB * 1024ull;
inline constexpr std::uint64_t kTiB = kGiB * 1024ull;

inline constexpr double kKB = 1e3;
inline constexpr double kMB = 1e6;
inline constexpr double kGB = 1e9;

/// Bytes-per-second from a GB/s figure (decimal gigabytes, as used in the
/// paper's prose: "80 GB/s DRAM, 10 GB/s NVDIMM").
constexpr double gb_per_s(double gb) { return gb * kGB; }

/// "96GiB" / "1.5TiB" / "4096" / "2GB" -> bytes. Suffixes are
/// case-insensitive; *iB is binary, *B is decimal, bare numbers are bytes.
std::optional<std::uint64_t> parse_bytes(std::string_view text);

/// Human form with binary suffix, e.g. 103079215104 -> "96.0GiB".
std::string format_bytes(std::uint64_t bytes);
/// Appends format_bytes(bytes) to `out`.
void append_bytes(std::string& out, std::uint64_t bytes);
/// Appends `value` in decimal to `out` (std::to_chars, no temporary string).
void append_decimal(std::string& out, std::uint64_t value);

/// Bandwidth in decimal GB/s with 2 decimals, e.g. 7.86e10 -> "78.60 GB/s".
std::string format_bandwidth(double bytes_per_second);

/// Latency, e.g. 285.0 -> "285 ns"; values >= 1000 render as microseconds.
std::string format_latency_ns(double nanoseconds);

/// Fixed-point double formatting without iostream setup noise: the bytes
/// printf("%.*f", decimals, value) prints in the C locale.
std::string format_fixed(double value, int decimals);
/// Appends format_fixed(value, decimals) to `out` (std::to_chars, no
/// temporary string).
void append_fixed(std::string& out, double value, int decimals);

}  // namespace hetmem::support
