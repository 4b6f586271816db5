#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

namespace tempest::obs {

/// Flight recorder ("black box"): a crash-persistent ring of compact binary
/// event records backed by an mmap'd file, so the last moments of a shot
/// survive SIGKILL, watchdog bark, or quarantine — the failure modes in
/// which the in-memory trace buffers are lost.
///
/// ## The .tfbr format (magic "TFBR", version 1)
///
///   header   4096 bytes: geometry + CRC-protected fixed fields, plus the
///            two mutable cursors (global sequence, name count)
///   names    name_capacity x 64-byte entries {u32 len, char bytes[60]}:
///            an append-only intern table of event-name literals
///   lanes    n_lanes x (64-byte lane header {u64 cursor} +
///            lane_capacity x 64-byte slots)
///
/// Every slot is independently CRC-framed (crc32 over its first 60 bytes,
/// the same polynomial as the TPJL journal): a reader trusts a slot iff its
/// CRC matches, so the record being written at the instant of death — at
/// most one per lane — decodes as "torn" and is skipped, never
/// misinterpreted. Recovery rules, in order:
///   * header CRC mismatch or impossible geometry: the file is not a black
///     box (io::CorruptFileError);
///   * an all-zero slot was never written; any other slot with a bad CRC
///     or a zero seq is torn and skipped; more torn slots than lanes means
///     interior corruption, and verify_blackbox() fails;
///   * duplicate sequence numbers among valid slots: interior corruption;
///   * `header.seq - valid - torn` records were overwritten by ring wrap —
///     expected, reported, never an error.
///
/// ## Write path
///
/// Each thread claims a lane (round-robin at first use) and bumps the
/// lane's monotonic cursor with a relaxed fetch_add; slot = cursor mod
/// capacity. After the first use of a given name on a given thread the hot
/// path is wait-free: two relaxed fetch_adds, ~60 bytes of stores and a
/// 60-byte CRC into pages the kernel persists even if the process is
/// SIGKILL'd mid-store (durability is by construction of MAP_SHARED: dirty
/// page-cache pages belong to the file, not the process).
class FlightRecorder {
 public:
  /// Ring geometry. Defaults hold the last ~4k events (~280 KiB per shot).
  struct Options {
    std::uint32_t lanes = 16;          ///< concurrent writer lanes
    std::uint32_t lane_capacity = 256; ///< slots per lane (ring length)
    std::uint32_t name_capacity = 256; ///< interned event names
    std::uint32_t shot = 0;            ///< tag recorded in the header
  };

  /// Map a fresh black box at `path` (truncating any previous one). Returns
  /// nullptr when the file cannot be created or mapped — a recorder is an
  /// observer, never a reason to fail the shot.
  [[nodiscard]] static std::unique_ptr<FlightRecorder> create(
      const std::string& path, const Options& opts);

  ~FlightRecorder();
  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  /// Append one event. `name` must have static storage duration (call-site
  /// literals — the intern table keys on the pointer).
  void record(std::uint16_t kind, const char* name, std::int64_t a,
              std::int64_t b);

  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  FlightRecorder() = default;
  std::uint16_t intern(const char* name);

  std::string path_;
  unsigned char* map_ = nullptr;
  std::size_t map_bytes_ = 0;
  Options opts_{};
  std::int64_t epoch_ns_ = 0;
  std::uint64_t generation_ = 0;  ///< invalidates thread-local lane caches
  std::atomic<std::uint32_t> next_tid_{0};  ///< round-robin lane assignment
  std::mutex names_mu_;
  std::unordered_map<const void*, std::uint16_t> name_ids_;
};

/// Record kinds (the `kind` field of a slot).
inline constexpr std::uint16_t kSpanEnter = 1;  ///< a = span arg, b = has_arg
inline constexpr std::uint16_t kSpanExit = 2;   ///< a = duration ns
inline constexpr std::uint16_t kCounterDelta = 3;  ///< a = delta
inline constexpr std::uint16_t kHealth = 4;  ///< a = bit-cast max|u|, b = step
inline constexpr std::uint16_t kJobState = 5;  ///< a = shot, b = level
inline constexpr std::uint16_t kMark = 6;      ///< free-form

[[nodiscard]] const char* kind_name(std::uint16_t kind);

/// Install `r` as the process-wide black box and set the recorder bit of
/// the telemetry gate word: every span records its enter and exit, and
/// every counter its delta, while health samples and job state transitions
/// arrive through the note_* feeds below. Serial code only; uninstall
/// before destroying the recorder.
void install_blackbox(FlightRecorder* r);
void uninstall_blackbox();
[[nodiscard]] FlightRecorder* installed_blackbox();

/// Feed a health-monitor sample / job state transition to the installed
/// black box (no-op when none is installed).
void note_health(const char* field, int step, double max_abs);
void note_job_state(const char* state, int shot, int level);

/// One decoded slot.
struct BlackboxEvent {
  std::uint64_t seq = 0;
  std::int64_t ts_ns = 0;  ///< since recorder creation
  std::uint16_t kind = 0;
  std::string name;
  std::uint32_t tid = 0;
  std::int64_t a = 0;
  std::int64_t b = 0;
};

struct BlackboxContents {
  FlightRecorder::Options geom;
  std::uint64_t total_recorded = 0;  ///< header seq: includes overwritten
  std::uint32_t torn_slots = 0;      ///< CRC-failed slots (mid-write at death)
  std::vector<BlackboxEvent> events; ///< CRC-clean survivors, seq-ascending
  std::vector<std::string> open_spans;  ///< entered but never exited,
                                        ///< outermost first
};

/// Decode `path`. Throws io::CorruptFileError when the header is not a
/// valid TFBR v1 header; torn slots are tolerated per the recovery rules.
[[nodiscard]] BlackboxContents read_blackbox(const std::string& path);

/// Post-mortem integrity check: header valid, every surviving slot CRC-clean
/// with unique sequence numbers, and no more torn slots than writer lanes.
/// Returns false (with a diagnostic in *error, when non-null) otherwise.
[[nodiscard]] bool verify_blackbox(const std::string& path,
                                   std::string* error = nullptr);

}  // namespace tempest::obs

// Call-site macro for the health feed, compiled out with the trace macros.
#if defined(TEMPEST_TRACE_DISABLED)
#define TEMPEST_OBS_HEALTH(field, step, value) ((void)0)
#else
#define TEMPEST_OBS_HEALTH(field, step, value) \
  ::tempest::obs::note_health((field), (step), (value))
#endif
