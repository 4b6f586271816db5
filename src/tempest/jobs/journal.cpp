#include "tempest/jobs/journal.hpp"

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>

#include "tempest/io/io.hpp"
#include "tempest/util/crc32.hpp"
#include "tempest/util/error.hpp"

namespace tempest::jobs {

namespace {

constexpr std::uint32_t kMagic = 0x54504A4Cu;  // "TPJL"
constexpr std::uint32_t kVersion = 1;
constexpr std::uint32_t kMaxPayload = 1u << 20;  // sanity bound per record

void put_pod(std::vector<std::uint8_t>& out, const void* p, std::size_t n) {
  const auto* b = static_cast<const std::uint8_t*>(p);
  out.insert(out.end(), b, b + n);
}

template <typename T>
void put(std::vector<std::uint8_t>& out, const T& v) {
  static_assert(std::is_trivially_copyable_v<T>);
  put_pod(out, &v, sizeof(T));
}

std::vector<std::uint8_t> encode(const Record& r) {
  std::vector<std::uint8_t> payload;
  payload.reserve(40 + r.detail.size());
  put(payload, static_cast<std::uint32_t>(r.type));
  put(payload, r.job);
  put(payload, r.attempt);
  put(payload, r.level);
  put(payload, r.fingerprint);
  put(payload, r.seconds);
  put(payload, static_cast<std::uint32_t>(r.detail.size()));
  put_pod(payload, r.detail.data(), r.detail.size());
  return payload;
}

Record decode(const std::string& path, const std::uint8_t* p, std::size_t n) {
  constexpr std::size_t kFixed = 4 + 4 + 4 + 4 + 8 + 8 + 4;
  if (n < kFixed) {
    throw io::CorruptFileError(path, "journal record payload too short (" +
                                         std::to_string(n) + " bytes)");
  }
  Record r;
  std::uint32_t type = 0;
  std::uint32_t detail_len = 0;
  std::size_t off = 0;
  const auto get = [&](void* dst, std::size_t sz) {
    std::memcpy(dst, p + off, sz);
    off += sz;
  };
  get(&type, sizeof(type));
  get(&r.job, sizeof(r.job));
  get(&r.attempt, sizeof(r.attempt));
  get(&r.level, sizeof(r.level));
  get(&r.fingerprint, sizeof(r.fingerprint));
  get(&r.seconds, sizeof(r.seconds));
  get(&detail_len, sizeof(detail_len));
  if (type < static_cast<std::uint32_t>(RecordType::Plan) ||
      type > static_cast<std::uint32_t>(RecordType::Quarantined)) {
    throw io::CorruptFileError(
        path, "journal record type " + std::to_string(type) + " unknown");
  }
  r.type = static_cast<RecordType>(type);
  if (off + detail_len != n) {
    throw io::CorruptFileError(
        path, "journal record detail length " + std::to_string(detail_len) +
                  " disagrees with its frame (" + std::to_string(n - off) +
                  " bytes remain)");
  }
  r.detail.assign(reinterpret_cast<const char*>(p) + off, detail_len);
  return r;
}

void write_frames(std::ofstream& out, const std::vector<Record>& records) {
  for (const Record& r : records) {
    const std::vector<std::uint8_t> payload = encode(r);
    const std::uint32_t len = static_cast<std::uint32_t>(payload.size());
    const std::uint32_t crc = util::crc32(payload.data(), payload.size());
    out.write(reinterpret_cast<const char*>(&len), sizeof(len));
    out.write(reinterpret_cast<const char*>(&crc), sizeof(crc));
    out.write(reinterpret_cast<const char*>(payload.data()),
              static_cast<std::streamsize>(payload.size()));
  }
}

}  // namespace

bool Journal::exists() const {
  std::error_code ec;
  return std::filesystem::exists(path_, ec);
}

void Journal::append(const Record& r) {
  const bool fresh = !exists();
  std::ofstream out(path_, std::ios::binary | std::ios::app);
  TEMPEST_REQUIRE_MSG(out.good(), "cannot open journal '" + path_ +
                                      "' for append");
  if (fresh) {
    out.write(reinterpret_cast<const char*>(&kMagic), sizeof(kMagic));
    out.write(reinterpret_cast<const char*>(&kVersion), sizeof(kVersion));
  }
  write_frames(out, {r});
  out.flush();
  TEMPEST_REQUIRE_MSG(out.good(),
                      "journal append to '" + path_ + "' failed (disk full?)");
}

std::vector<Record> Journal::replay(bool* torn_tail) const {
  if (torn_tail != nullptr) *torn_tail = false;
  const std::vector<std::uint8_t> buf = io::read_file(path_);
  if (buf.size() < 8) {
    throw io::CorruptFileError(path_, "journal shorter than its header (" +
                                          std::to_string(buf.size()) +
                                          " bytes)");
  }
  std::uint32_t magic = 0;
  std::uint32_t version = 0;
  std::memcpy(&magic, buf.data(), sizeof(magic));
  std::memcpy(&version, buf.data() + 4, sizeof(version));
  if (magic != kMagic) {
    throw io::CorruptFileError(path_, "bad journal magic");
  }
  if (version != kVersion) {
    throw io::CorruptFileError(
        path_, "journal version " + std::to_string(version) +
                   ", this build reads version " + std::to_string(kVersion));
  }

  std::vector<Record> records;
  std::size_t off = 8;
  while (off < buf.size()) {
    // A frame cut anywhere — mid-length, mid-crc, mid-payload — or whose
    // CRC fails is a torn tail if and only if nothing follows it.
    std::uint32_t len = 0;
    std::uint32_t crc = 0;
    const bool short_header = off + 8 > buf.size();
    bool bad = short_header;
    if (!bad) {
      std::memcpy(&len, buf.data() + off, sizeof(len));
      std::memcpy(&crc, buf.data() + off + 4, sizeof(crc));
      bad = len > kMaxPayload || off + 8 + len > buf.size() ||
            util::crc32(buf.data() + off + 8, len) != crc;
    }
    if (bad) {
      // A torn append always ends the file: the frame is cut short, or its
      // trailing bytes never made it. A frame that fails its CRC but has
      // *more data after it* is interior corruption — the history beyond it
      // cannot be trusted, so refuse rather than resync.
      if (!short_header && off + 8 + len < buf.size()) {
        throw io::CorruptFileError(
            path_, "journal record at byte " + std::to_string(off) +
                       " fails its CRC but is not the final record");
      }
      if (torn_tail != nullptr) *torn_tail = true;
      break;
    }
    records.push_back(decode(path_, buf.data() + off + 8, len));
    off += 8 + len;
  }
  return records;
}

void Journal::rewrite(const std::vector<Record>& records) const {
  const std::string tmp = path_ + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    TEMPEST_REQUIRE_MSG(out.good(), "cannot open '" + tmp + "' for write");
    out.write(reinterpret_cast<const char*>(&kMagic), sizeof(kMagic));
    out.write(reinterpret_cast<const char*>(&kVersion), sizeof(kVersion));
    write_frames(out, records);
    out.flush();
    TEMPEST_REQUIRE_MSG(out.good(), "journal rewrite to '" + tmp +
                                        "' failed (disk full?)");
  }
  TEMPEST_REQUIRE_MSG(std::rename(tmp.c_str(), path_.c_str()) == 0,
                      "cannot commit journal rewrite to '" + path_ + "'");
}

void Journal::remove() const {
  std::remove(path_.c_str());
  std::remove((path_ + ".tmp").c_str());
}

}  // namespace tempest::jobs
