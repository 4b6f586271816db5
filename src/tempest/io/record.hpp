#pragma once

#include <cstdint>
#include <cstring>
#include <iosfwd>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "tempest/util/crc32.hpp"
#include "tempest/util/error.hpp"

namespace tempest::io {

/// Thrown when a file fails structural validation before its payload is
/// trusted: wrong magic, nonsensical header values, or a declared payload
/// that disagrees with the actual file size (truncation/corruption). The
/// message names the path and exactly what mismatched. Derives from
/// PreconditionError so existing catch sites keep working.
class CorruptFileError : public util::PreconditionError {
 public:
  CorruptFileError(std::string path, const std::string& detail)
      : util::PreconditionError("corrupt file '" + path + "': " + detail),
        path_(std::move(path)) {}

  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// The whole file at `path`, read with one sized read — the image every
/// binary reader (checkpoint, journal, black box, gather) decodes from.
/// Throws CorruptFileError when the file cannot be opened or yields fewer
/// bytes than its size.
[[nodiscard]] std::vector<std::uint8_t> read_file(const std::string& path);

/// The {u32 magic, u32 version} tag that opens TPCK checkpoints, the TPJL
/// journal, TFBR black boxes and every versioned auxiliary blob.
struct RecordTag {
  std::uint32_t magic = 0;
  std::uint32_t version = 0;
};

/// Streams a record in host byte order: every value and byte run goes to
/// the sink (a stream, or a byte vector for records built in memory) and
/// is folded into a running CRC-32 and byte count, so a format can place a
/// checksum of exactly the bytes written wherever its layout puts it. The
/// caller checks the stream's state once it has finished writing.
class RecordWriter {
 public:
  explicit RecordWriter(std::ostream& os) : os_(&os) {}
  explicit RecordWriter(std::vector<std::uint8_t>& out) : out_(&out) {}

  void bytes(const void* data, std::size_t n);

  template <typename T>
  void put(const T& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    bytes(&v, sizeof(T));
  }

  void tag(RecordTag t) {
    put(t.magic);
    put(t.version);
  }

  /// CRC-32 of every byte written so far.
  [[nodiscard]] std::uint32_t crc() const { return crc_.value(); }
  /// Bytes written so far.
  [[nodiscard]] std::size_t size() const { return size_; }

 private:
  std::ostream* os_ = nullptr;
  std::vector<std::uint8_t>* out_ = nullptr;
  util::Crc32 crc_;
  std::size_t size_ = 0;
};

/// Bounds-checked cursor over a record image (normally a read_file()
/// buffer, or a span of one that starts at byte `base` of the file).
/// Every read is checked against the bytes left, and count() checks a
/// declared element count the same way before the caller allocates for
/// it, so no header field can make a reader allocate more than the file
/// holds. Every failure is a CorruptFileError naming `source` (a path, or
/// the name of a blob) and the file offset.
class RecordReader {
 public:
  RecordReader(std::string source, std::span<const std::uint8_t> bytes,
               std::size_t base = 0)
      : source_(std::move(source)), bytes_(bytes), base_(base) {}

  /// The next `n` bytes, without copying them.
  [[nodiscard]] std::span<const std::uint8_t> take(std::uint64_t n);

  void bytes(void* out, std::size_t n) {
    const std::span<const std::uint8_t> src = take(n);
    // An empty run may target vector::data() == nullptr; memcpy's pointer
    // arguments are declared nonnull even for n == 0.
    if (n != 0) std::memcpy(out, src.data(), n);
  }

  template <typename T>
  [[nodiscard]] T get() {
    static_assert(std::is_trivially_copyable_v<T>);
    T v{};
    bytes(&v, sizeof(T));
    return v;
  }

  /// `n` as a size, once `n` elements of `elem_bytes` each fit in the bytes
  /// left (checked without overflow); `field` names them in the error.
  std::size_t count(std::uint64_t n, std::size_t elem_bytes,
                    std::string_view field) const;

  /// The one tag check: reads a {magic, version} tag and throws unless it
  /// is `want`. `format` names the expected format in the error.
  void tag(RecordTag want, std::string_view format);
  /// The magic half of tag(), for TPG1, whose version lives in its magic.
  void magic(std::uint32_t want, std::string_view format);

  /// File offset of the next byte.
  [[nodiscard]] std::size_t offset() const { return base_ + pos_; }
  [[nodiscard]] std::size_t remaining() const { return bytes_.size() - pos_; }
  [[nodiscard]] const std::string& source() const { return source_; }

  [[noreturn]] void fail(const std::string& detail) const;

 private:
  std::string source_;
  std::span<const std::uint8_t> bytes_;
  std::size_t base_;
  std::size_t pos_ = 0;
};

}  // namespace tempest::io
