#pragma once

#include <cstdint>
#include <cstring>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "tempest/config.hpp"
#include "tempest/grid/grid3.hpp"
#include "tempest/io/io.hpp"
#include "tempest/sparse/series.hpp"

namespace tempest::resilience {

/// Thrown when a structurally valid checkpoint does not belong to the run
/// trying to resume from it: the configuration fingerprint or the grid
/// geometry differs. Restarting silently with mismatched state would
/// produce a wrong (not merely imprecise) result, so this is never
/// downgraded to a warning.
class CheckpointMismatchError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Order-sensitive FNV-1a accumulator for building configuration
/// fingerprints: hash every parameter that must match for a resumed run to
/// be bitwise-identical (geometry, dt, schedule, source/receiver counts...).
class Fingerprint {
 public:
  Fingerprint& add_bytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h_ ^= p[i];
      h_ *= 1099511628211ull;
    }
    return *this;
  }

  template <typename T>
  Fingerprint& add(const T& v) {
    static_assert(std::is_trivially_copyable_v<T>,
                  "fingerprint inputs must be raw values");
    return add_bytes(&v, sizeof(T));
  }

  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 14695981039346656037ull;
};

/// One named auxiliary payload of application state (e.g. the RTM image
/// accumulator) riding in a checkpoint.
using AuxBlob = std::pair<std::string, std::vector<std::uint8_t>>;

/// Non-owning view of the state a checkpoint persists — what
/// Checkpointer::save writes from. Propagators hand out views of their live
/// time slices (`state_view()`), so a save at a global barrier streams the
/// wavefield straight to disk without first copying it; an owning
/// Checkpoint converts to a view of its own storage. Every pointer must
/// stay valid, and the slices unmodified, until save() returns.
struct CheckpointView {
  std::uint64_t fingerprint = 0;
  int step = 0;  ///< last fully computed timestep
  std::vector<const grid::Grid3<real_t>*> slots;  ///< in slot order
  const sparse::SparseTimeSeries* rec = nullptr;  ///< gather so far, if any
  std::span<const AuxBlob> aux;
};

/// Full simulation state at a barrier timestep, owned: the circular-buffer
/// time slices (in slot order — the fold is deterministic given `step`),
/// the last fully computed timestep, the receiver gather rows recorded so
/// far, and arbitrary named auxiliary payloads for application state.
/// load() returns one; capture() copies a live state into one.
struct Checkpoint {
  std::uint64_t fingerprint = 0;
  int step = 0;  ///< last fully computed timestep
  std::vector<grid::Grid3<real_t>> slots;
  bool has_rec = false;
  sparse::SparseTimeSeries rec;
  std::vector<AuxBlob> aux;

  Checkpoint() = default;
  /// Deep copy of the viewed state.
  explicit Checkpoint(const CheckpointView& v);

  /// View of this checkpoint's own storage. Implicit, so save(ck) writes
  /// an owning checkpoint through the same path as a live view.
  operator CheckpointView() const;

  [[nodiscard]] const std::vector<std::uint8_t>* find_aux(
      const std::string& name) const {
    for (const auto& [n, bytes] : aux) {
      if (n == name) return &bytes;
    }
    return nullptr;
  }
};

/// Pack a trivially copyable value as an auxiliary-blob payload.
template <typename T>
[[nodiscard]] std::vector<std::uint8_t> aux_pack(const T& v) {
  static_assert(std::is_trivially_copyable_v<T>);
  std::vector<std::uint8_t> b(sizeof(T));
  std::memcpy(b.data(), &v, sizeof(T));
  return b;
}

/// Unpack an auxiliary blob written by aux_pack. Returns nullopt on size
/// mismatch (e.g. a checkpoint written by an incompatible build).
template <typename T>
[[nodiscard]] std::optional<T> aux_unpack(const std::vector<std::uint8_t>& b) {
  static_assert(std::is_trivially_copyable_v<T>);
  if (b.size() != sizeof(T)) return std::nullopt;
  T v{};
  std::memcpy(&v, b.data(), sizeof(T));
  return v;
}

/// Versioned auxiliary-blob framing: an 8-byte {magic, version} header
/// prefixes the payload, so a blob written by an incompatible layout (or
/// truncated by corruption the file-level CRC did not cover because the
/// whole checkpoint was rewritten) is rejected as a typed
/// io::CorruptFileError naming the blob — never silently reinterpreted as
/// raw bytes.
[[nodiscard]] std::vector<std::uint8_t> aux_wrap_bytes(std::uint32_t magic,
                                                       std::uint32_t version,
                                                       const void* data,
                                                       std::size_t n);

/// Validated view of a wrapped blob's payload (header stripped). Throws
/// io::CorruptFileError on a short blob, wrong magic, or wrong version;
/// `name` labels the blob in the diagnostic.
struct AuxView {
  const std::uint8_t* data = nullptr;
  std::size_t size = 0;
};
[[nodiscard]] AuxView aux_unwrap_bytes(const std::string& name,
                                       const std::vector<std::uint8_t>& blob,
                                       std::uint32_t magic,
                                       std::uint32_t version);

/// aux_pack/aux_unpack with the versioned framing. Unpack throws
/// io::CorruptFileError (wrong magic/version/size) instead of guessing.
template <typename T>
[[nodiscard]] std::vector<std::uint8_t> aux_pack_versioned(std::uint32_t magic,
                                                           std::uint32_t version,
                                                           const T& v) {
  static_assert(std::is_trivially_copyable_v<T>);
  return aux_wrap_bytes(magic, version, &v, sizeof(T));
}

template <typename T>
[[nodiscard]] T aux_unpack_versioned(const std::string& name,
                                     const std::vector<std::uint8_t>& blob,
                                     std::uint32_t magic,
                                     std::uint32_t version) {
  static_assert(std::is_trivially_copyable_v<T>);
  const AuxView view = aux_unwrap_bytes(name, blob, magic, version);
  if (view.size != sizeof(T)) {
    throw io::CorruptFileError(
        name, "auxiliary payload holds " + std::to_string(view.size) +
                  " bytes, expected " + std::to_string(sizeof(T)));
  }
  T v{};
  std::memcpy(&v, view.data, sizeof(T));
  return v;
}

/// Atomic checkpoint persistence with two-deep rotation.
///
/// Layout (host-endian): magic "TPCK" + version, fingerprint, step, slice
/// geometry, slice payloads, optional gather, auxiliary blobs, and a
/// trailing CRC-32 over everything before it. save() streams to
/// `path + ".tmp"`, rotates the previous good file to `path + ".1"`, and
/// rename(2)s the new one into place, so a kill at any instant leaves at
/// least one complete checkpoint on disk — never only a half-written file
/// under the live name, and never *zero* usable checkpoints because the
/// crash landed mid-write. load() validates magic, header sanity, the
/// declared sizes against the actual file size, and the CRC before
/// trusting a byte of payload; try_load() falls back to the rotated
/// predecessor when the newest file fails validation.
class Checkpointer {
 public:
  explicit Checkpointer(std::string path) : path_(std::move(path)) {}

  [[nodiscard]] const std::string& path() const { return path_; }
  /// The rotated previous-good checkpoint (kept as the CRC-failure
  /// fallback).
  [[nodiscard]] std::string previous_path() const { return path_ + ".1"; }
  [[nodiscard]] bool exists() const;

  /// Atomically persist the viewed state, rotating the previous checkpoint
  /// to previous_path(). The one writer: a live view and an owning
  /// Checkpoint (which converts to a view) produce identical bytes for
  /// identical state. Throws util::PreconditionError on I/O errors (disk
  /// full, unwritable directory) — the previous checkpoint, if any, is
  /// left intact in every failure mode.
  void save(const CheckpointView& ck) const;

  /// Load and fully validate the newest file only. Throws
  /// io::CorruptFileError on a missing, truncated, or corrupted file.
  [[nodiscard]] Checkpoint load() const;

  /// Resume helper: nullopt when no usable checkpoint exists; warns and
  /// falls back to the rotated predecessor when the newest file is corrupt
  /// (a crash mid-write must never strand a run with zero checkpoints);
  /// warns and returns nullopt when neither file validates; throws
  /// CheckpointMismatchError when a valid file was written by a different
  /// configuration.
  [[nodiscard]] std::optional<Checkpoint> try_load(
      std::uint64_t expected_fingerprint) const;

  /// Delete every file this checkpointer may have written (live, rotated,
  /// temp). Call when the protected computation has completed — a stale
  /// checkpoint must not shadow the next run.
  void remove_all() const;

 private:
  [[nodiscard]] Checkpoint load_file(const std::string& path) const;

  std::string path_;
};

}  // namespace tempest::resilience
