#include "tempest/jobs/journal.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <span>

#include "tempest/io/record.hpp"
#include "tempest/util/crc32.hpp"
#include "tempest/util/error.hpp"

namespace tempest::jobs {

namespace {

constexpr io::RecordTag kTag{0x54504A4Cu, 1};  // "TPJL", version 1
/// The largest payload a frame may declare. Writers refuse a bigger record
/// and replay treats a bigger length as corruption: a torn append cuts a
/// frame short but never leaves a whole length field that is wrong.
constexpr std::uint32_t kMaxPayload = 1u << 20;
/// The fixed fields every payload starts with (type, job, attempt, level,
/// fingerprint, seconds, detail_len): no writer emits a shorter payload.
constexpr std::uint32_t kMinPayload = 36;

/// Appends the frame of `r` — {u32 payload_len, u32 crc32(payload),
/// payload} — to `out`.
void put_frame(std::vector<std::uint8_t>& out, const Record& r) {
  std::vector<std::uint8_t> payload;
  io::RecordWriter p(payload);
  p.put(static_cast<std::uint32_t>(r.type));
  p.put(r.job);
  p.put(r.attempt);
  p.put(r.level);
  p.put(r.fingerprint);
  p.put(r.seconds);
  p.put(static_cast<std::uint32_t>(r.detail.size()));
  p.bytes(r.detail.data(), r.detail.size());
  TEMPEST_REQUIRE_MSG(p.size() <= kMaxPayload,
                      "journal record of " + std::to_string(p.size()) +
                          " bytes exceeds the " +
                          std::to_string(kMaxPayload) + "-byte frame limit");
  io::RecordWriter f(out);
  f.put(static_cast<std::uint32_t>(p.size()));
  f.put(p.crc());
  f.bytes(payload.data(), payload.size());
}

/// The bytes of `records` as frames, after the file tag when `tagged`.
/// Built whole before any of it is written, so a record over the frame
/// limit throws before the file is touched.
std::vector<std::uint8_t> encode(bool tagged,
                                 const std::vector<Record>& records) {
  std::vector<std::uint8_t> out;
  if (tagged) io::RecordWriter(out).tag(kTag);
  for (const Record& r : records) put_frame(out, r);
  return out;
}

Record decode(io::RecordReader r) {
  Record rec;
  const auto type = r.get<std::uint32_t>();
  rec.job = r.get<std::int32_t>();
  rec.attempt = r.get<std::int32_t>();
  rec.level = r.get<std::int32_t>();
  rec.fingerprint = r.get<std::uint64_t>();
  rec.seconds = r.get<double>();
  const auto detail_len = r.get<std::uint32_t>();
  if (type < static_cast<std::uint32_t>(RecordType::Plan) ||
      type > static_cast<std::uint32_t>(RecordType::Quarantined)) {
    r.fail("journal record type " + std::to_string(type) + " unknown");
  }
  rec.type = static_cast<RecordType>(type);
  if (detail_len != r.remaining()) {
    r.fail("journal record detail length " + std::to_string(detail_len) +
           " disagrees with its frame (" + std::to_string(r.remaining()) +
           " bytes remain)");
  }
  const std::span<const std::uint8_t> detail = r.take(detail_len);
  rec.detail.assign(detail.begin(), detail.end());
  return rec;
}

/// Decodes every frame left in `r` into `records`; true when the last one
/// is a torn tail. A torn append always ends the file: the frame is cut
/// short, its trailing bytes never made it, or the file was extended with
/// zeros its data never filled. So a cut frame, a final frame that fails
/// its CRC, or a frame declaring under kMinPayload bytes whose every byte
/// to EOF is zero, is a torn tail. A frame that fails its CRC with more
/// data after it, or declares under kMinPayload bytes anywhere else, is
/// corruption — the history beyond it cannot be trusted, so refuse rather
/// than resync.
bool read_frames(io::RecordReader& r, std::vector<Record>& records) {
  while (r.remaining() != 0) {
    const std::size_t at = r.offset();
    if (r.remaining() < 2 * sizeof(std::uint32_t)) return true;
    const auto len = r.get<std::uint32_t>();
    const auto crc = r.get<std::uint32_t>();
    if (len > kMaxPayload) {
      r.fail("journal record at byte " + std::to_string(at) + " declares " +
             std::to_string(len) + " payload bytes, over the " +
             std::to_string(kMaxPayload) + "-byte frame limit");
    }
    if (len < kMinPayload) {
      const std::span<const std::uint8_t> rest = r.take(r.remaining());
      if (len == 0 && crc == 0 &&
          std::all_of(rest.begin(), rest.end(),
                      [](std::uint8_t b) { return b == 0; })) {
        return true;
      }
      r.fail("journal record at byte " + std::to_string(at) + " declares " +
             std::to_string(len) + " payload bytes, under the " +
             std::to_string(kMinPayload) + " of its fixed fields");
    }
    if (len > r.remaining()) return true;
    const std::span<const std::uint8_t> payload = r.take(len);
    if (util::crc32(payload.data(), payload.size()) != crc) {
      if (r.remaining() != 0) {
        r.fail("journal record at byte " + std::to_string(at) +
               " fails its CRC but is not the final record");
      }
      return true;
    }
    records.push_back(decode(io::RecordReader(r.source(), payload, at + 8)));
  }
  return false;
}

void write_bytes(std::ofstream& out, const std::vector<std::uint8_t>& bytes) {
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

}  // namespace

bool Journal::exists() const {
  std::error_code ec;
  return std::filesystem::exists(path_, ec);
}

void Journal::append(const Record& r) {
  const std::vector<std::uint8_t> bytes = encode(!exists(), {r});
  std::ofstream out(path_, std::ios::binary | std::ios::app);
  TEMPEST_REQUIRE_MSG(out.good(), "cannot open journal '" + path_ +
                                      "' for append");
  write_bytes(out, bytes);
  out.flush();
  TEMPEST_REQUIRE_MSG(out.good(),
                      "journal append to '" + path_ + "' failed (disk full?)");
}

std::vector<Record> Journal::replay(bool* torn_tail) const {
  const std::vector<std::uint8_t> buf = io::read_file(path_);
  io::RecordReader r(path_, buf);
  r.tag(kTag, "journal");
  std::vector<Record> records;
  const bool torn = read_frames(r, records);
  if (torn_tail != nullptr) *torn_tail = torn;
  return records;
}

void Journal::rewrite(const std::vector<Record>& records) const {
  const std::vector<std::uint8_t> bytes = encode(true, records);
  const std::string tmp = path_ + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    TEMPEST_REQUIRE_MSG(out.good(), "cannot open '" + tmp + "' for write");
    write_bytes(out, bytes);
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
