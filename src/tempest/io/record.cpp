#include "tempest/io/record.hpp"

#include <filesystem>
#include <fstream>
#include <sstream>

namespace tempest::io {

std::vector<std::uint8_t> read_file(const std::string& path) {
  // file_size, not a seek to the end: it fails on a directory, where ext4
  // reports an end offset of 2^63 - 1 that no buffer can hold.
  std::error_code ec;
  const std::uintmax_t size = std::filesystem::file_size(path, ec);
  if (ec) {
    throw CorruptFileError(path, "cannot open for reading: " + ec.message());
  }
  std::ifstream is(path, std::ios::binary);
  if (!is.is_open()) throw CorruptFileError(path, "cannot open for reading");
  std::vector<std::uint8_t> buf(static_cast<std::size_t>(size));
  is.read(reinterpret_cast<char*>(buf.data()),
          static_cast<std::streamsize>(buf.size()));
  if (static_cast<std::size_t>(is.gcount()) != buf.size()) {
    throw CorruptFileError(path, "short read: got " +
                                     std::to_string(is.gcount()) + " of " +
                                     std::to_string(size) + " bytes");
  }
  return buf;
}

void RecordWriter::bytes(const void* data, std::size_t n) {
  if (n == 0) return;  // empty runs arrive as {nullptr, 0}
  if (os_ != nullptr) {
    os_->write(static_cast<const char*>(data),
               static_cast<std::streamsize>(n));
  } else {
    const auto* p = static_cast<const std::uint8_t*>(data);
    out_->insert(out_->end(), p, p + n);
  }
  crc_.update(data, n);
  size_ += n;
}

std::span<const std::uint8_t> RecordReader::take(std::uint64_t n) {
  if (n > remaining()) {
    fail("needs " + std::to_string(n) + " bytes at offset " +
         std::to_string(offset()) + " but only " +
         std::to_string(remaining()) +
         " remain — truncated or corrupted");
  }
  const std::span<const std::uint8_t> out =
      bytes_.subspan(pos_, static_cast<std::size_t>(n));
  pos_ += out.size();
  return out;
}

std::size_t RecordReader::count(std::uint64_t n, std::size_t elem_bytes,
                                std::string_view field) const {
  if (elem_bytes != 0 && n > remaining() / elem_bytes) {
    std::ostringstream os;
    os << field << " declares " << n << " x " << elem_bytes
       << " bytes at offset " << offset() << " but only " << remaining()
       << " remain — truncated or corrupted";
    fail(os.str());
  }
  return static_cast<std::size_t>(n);
}

void RecordReader::magic(std::uint32_t want, std::string_view format) {
  const auto got = get<std::uint32_t>();
  if (got != want) {
    std::ostringstream os;
    os << "bad " << format << " magic 0x" << std::hex << got
       << " (expected 0x" << want << ")";
    fail(os.str());
  }
}

void RecordReader::tag(RecordTag want, std::string_view format) {
  magic(want.magic, format);
  const auto version = get<std::uint32_t>();
  if (version != want.version) {
    fail("unsupported " + std::string(format) + " version " +
         std::to_string(version) + " (this build reads version " +
         std::to_string(want.version) + ")");
  }
}

void RecordReader::fail(const std::string& detail) const {
  throw CorruptFileError(source_, detail);
}

}  // namespace tempest::io
