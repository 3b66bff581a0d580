// One line codec for the repo's positional text formats, `hetmem-trace/2`
// (src/trace) and `hetmem-snap/1` (src/recover). A record is one line: a
// tag, then space-separated fields. Integers are plain decimal, bools 0 or
// 1, enums their underlying integer, and doubles hexfloat ("%a", the one
// printf format that round-trips every finite double exactly through
// strtod). At most one free-text field ends a line, so its spaces survive.
//
// A format lists each record's fields once, in a function template over
// the side of the codec it is given:
//
//   template <typename Io, typename Node>
//   bool node_fields(Io& io, Node& n) {
//     return io(n.errors, n.online) && io.enumeration(n.state, kLast);
//   }
//
// With a RecordWriter and a const record it appends every field and
// returns true. With a FieldReader and a record to fill it parses the same
// fields in the same order, and returns false at the first one that is
// missing, malformed or out of range for its type; the parser then checks
// FieldReader::at_end(), so a line with a field too many is refused too.
// How a record is laid out is thus decided in one place, so writer and
// reader cannot drift.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "hetmem/support/result.hpp"

namespace hetmem::support {

/// FNV-1a, 64-bit: the snapshot checksum, the fault injector's site seeds
/// and the digests that pin text outputs in tests.
[[nodiscard]] std::uint64_t fnv1a64(std::string_view bytes);

/// Appends record lines to a string.
class RecordWriter {
 public:
  explicit RecordWriter(std::string& out) : out_(&out) {}

  /// Starts a record line with its tag; fields follow, end() closes it.
  void begin(std::string_view tag) { *out_ += tag; }
  void end() { *out_ += '\n'; }
  /// One whole record line: `tag`, then `fields`.
  template <typename... Fields>
  void line(std::string_view tag, const Fields&... fields) {
    begin(tag);
    (*this)(fields...);
    end();
  }

  /// Appends " <field>" per argument.
  template <typename... Fields>
  bool operator()(const Fields&... fields) {
    (put(fields), ...);
    return true;
  }
  template <typename Enum>
  bool enumeration(Enum value, Enum /*last*/) {
    put(static_cast<std::uint64_t>(value));
    return true;
  }
  /// Appends " <text>", the line's free-text tail.
  bool text(std::string_view tail) {
    *out_ += ' ';
    *out_ += tail;
    return true;
  }
  /// A free-text tail that the reader requires to be non-empty.
  bool name(std::string_view tail) { return text(tail); }

 private:
  void put(std::uint64_t value);
  void put(unsigned value);
  void put(bool value);
  void put(double value);
  template <std::size_t N>
  void put(const std::array<std::uint64_t, N>& values) {
    for (const std::uint64_t value : values) put(value);
  }

  std::string* out_;
};

/// Reads the fields of one record line, left to right. Holds a view of
/// the line, which must outlive the reader.
class FieldReader {
 public:
  explicit FieldReader(std::string_view line) : rest_(line) {}

  /// The next space-delimited word, unparsed (a record's tag).
  std::string_view word();
  /// What is left of the line.
  [[nodiscard]] std::string_view rest() const { return rest_; }
  /// True when no field is left, not even an empty one after a trailing
  /// space: a record's parser checks it after the record's last field.
  [[nodiscard]] bool at_end() const { return rest_.empty() && !more_; }

  /// Parses one field per argument; false at the first that fails.
  /// Integers must be decimal digits only and fit their type; bools must
  /// read 0 or 1.
  template <typename... Fields>
  bool operator()(Fields&... fields) {
    return (get(fields) && ...);
  }
  /// An enum field, valid from 0 through `last`.
  template <typename Enum>
  bool enumeration(Enum& value, Enum last) {
    std::uint64_t raw = 0;
    if (!get(raw) || raw > static_cast<std::uint64_t>(last)) return false;
    value = static_cast<Enum>(raw);
    return true;
  }
  /// The rest of the line, verbatim; may be empty.
  bool text(std::string& out) {
    out.assign(rest_);
    rest_ = {};
    more_ = false;
    return true;
  }
  /// The rest of the line; false when it is empty.
  bool name(std::string& out) { return !rest_.empty() && text(out); }

 private:
  bool get(std::uint64_t& value);
  bool get(unsigned& value);
  bool get(bool& value);
  bool get(double& value);
  template <std::size_t N>
  bool get(std::array<std::uint64_t, N>& values) {
    for (std::uint64_t& value : values) {
      if (!get(value)) return false;
    }
    return true;
  }

  std::string_view rest_;
  bool more_ = false;  // a space ended the last word, so a field follows
};

/// Walks a text line by line and words its errors
/// `<format> parse error at line N: <what>`. Holds views of `format` and
/// `text`, which must outlive the reader.
class LineReader {
 public:
  LineReader(std::string_view format, std::string_view text)
      : format_(format), text_(text) {}

  [[nodiscard]] bool done() const { return pos_ >= text_.size(); }
  /// Byte offset of the next unread line.
  [[nodiscard]] std::size_t offset() const { return pos_; }
  /// The next line, without its newline.
  std::string_view next();
  /// An error at the line next() returned last (line 0 before the first).
  [[nodiscard]] Error error(std::string_view what) const;

 private:
  std::string_view format_;
  std::string_view text_;
  std::size_t pos_ = 0;
  std::size_t line_ = 0;
};

}  // namespace hetmem::support
