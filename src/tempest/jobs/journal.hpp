#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace tempest::jobs {

/// One entry in the survey write-ahead journal. Every state transition a
/// job makes is appended *before* the transition's effects are acted on, so
/// a crash at any instant leaves a prefix of the true history on disk and
/// replaying that prefix reconstructs the queue exactly.
enum class RecordType : std::uint32_t {
  Plan = 1,        ///< first record: run fingerprint + job count
  Started = 2,     ///< job picked up (attempt, ladder level)
  Done = 3,        ///< job finished; seconds + final level in the record
  Transient = 4,   ///< attempt failed with a retryable fault
  Degraded = 5,    ///< job stepped down the degradation ladder
  Quarantined = 6, ///< permanent failure: never retried, diagnostics kept
};

[[nodiscard]] constexpr const char* to_string(RecordType t) {
  switch (t) {
    case RecordType::Plan: return "plan";
    case RecordType::Started: return "started";
    case RecordType::Done: return "done";
    case RecordType::Transient: return "transient";
    case RecordType::Degraded: return "degraded";
    case RecordType::Quarantined: return "quarantined";
  }
  return "?";
}

struct Record {
  RecordType type = RecordType::Started;
  std::int32_t job = -1;           ///< job index; -1 for Plan
  std::int32_t attempt = 0;        ///< 1-based attempt number at this level
  std::int32_t level = 0;          ///< degradation-ladder level (0 = requested)
  std::uint64_t fingerprint = 0;   ///< Plan: run config; others: unused
  double seconds = 0.0;            ///< Done: wall-clock of the winning attempt
  std::string detail;              ///< human-readable diagnostics

  [[nodiscard]] bool operator==(const Record&) const = default;
};

/// Append-only, CRC-framed journal file.
///
/// Layout: an 8-byte header {magic "TPJL", version}, then one frame per
/// record: {u32 payload_len, u32 crc32(payload), payload}, with payloads
/// of at most 1 MiB. Every append is flushed before returning, so the
/// journal never claims a transition that was not durably recorded.
/// replay() accepts a torn tail — a final frame cut short or failing its
/// CRC is exactly what a kill mid-append leaves behind — and reports it so
/// the owner can compact. A corrupted *interior* frame (bit rot, not a
/// torn write) or a length over the limit aborts replay with
/// io::CorruptFileError: the history after it cannot be trusted.
class Journal {
 public:
  explicit Journal(std::string path) : path_(std::move(path)) {}

  [[nodiscard]] const std::string& path() const { return path_; }
  [[nodiscard]] bool exists() const;

  /// Durably append one record (creates the file + header on first use).
  /// Throws util::PreconditionError on I/O failure, or before writing
  /// anything when the record is over the payload limit.
  void append(const Record& r);

  /// Read every intact record. A torn final frame is tolerated and sets
  /// *torn_tail (may be null); throws io::CorruptFileError on a bad
  /// header, a corrupt frame that is not the last one, or a frame length
  /// over the payload limit anywhere.
  [[nodiscard]] std::vector<Record> replay(bool* torn_tail = nullptr) const;

  /// Rewrite the journal to contain exactly `records`, via tmp + atomic
  /// rename — the recovery path after a torn tail, and the compaction path
  /// when the history outgrows its usefulness.
  void rewrite(const std::vector<Record>& records) const;

  void remove() const;

 private:
  std::string path_;
};

}  // namespace tempest::jobs
