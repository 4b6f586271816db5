#include "tempest/resilience/checkpoint.hpp"

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "tempest/io/io.hpp"
#include "tempest/resilience/fault.hpp"
#include "tempest/trace/trace.hpp"
#include "tempest/util/crc32.hpp"
#include "tempest/util/error.hpp"
#include "tempest/util/log.hpp"

namespace tempest::resilience {

namespace {

constexpr std::uint32_t kMagic = 0x5450434Bu;  // "TPCK"
constexpr std::uint32_t kVersion = 1;
constexpr int kMaxExtent = 1 << 20;
constexpr int kMaxHalo = 1 << 10;
constexpr int kMaxSlices = 16;
constexpr std::uint32_t kMaxAux = 1 << 10;

/// Streams to the temp file while folding every byte into the CRC, so the
/// trailing checksum covers the exact bytes on disk.
class CrcWriter {
 public:
  explicit CrcWriter(std::ostream& os) : os_(os) {}

  void bytes(const void* data, std::size_t n) {
    if (n == 0) {
      return;  // empty blobs arrive as {nullptr, 0}
    }
    os_.write(static_cast<const char*>(data),
              static_cast<std::streamsize>(n));
    crc_.update(data, n);
    size_ += n;
  }

  template <typename T>
  void pod(const T& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    bytes(&v, sizeof(T));
  }

  [[nodiscard]] std::uint32_t crc() const { return crc_.value(); }
  /// Bytes emitted so far.
  [[nodiscard]] std::size_t size() const { return size_; }

 private:
  std::ostream& os_;
  util::Crc32 crc_;
  std::size_t size_ = 0;
};

/// Bounds-checked cursor over the fully loaded file image.
class Reader {
 public:
  Reader(const std::string& path, const std::vector<std::uint8_t>& buf,
         std::size_t end)
      : path_(path), buf_(buf), end_(end) {}

  void bytes(void* out, std::size_t n) {
    if (pos_ + n > end_) {
      throw io::CorruptFileError(path_,
                                 "checkpoint payload ends prematurely");
    }
    // Empty aux blobs hand us vector::data() == nullptr; memcpy's pointer
    // arguments are declared nonnull even for n == 0.
    if (n != 0) {
      std::memcpy(out, buf_.data() + pos_, n);
    }
    pos_ += n;
  }

  template <typename T>
  T pod() {
    T v{};
    bytes(&v, sizeof(T));
    return v;
  }

  [[nodiscard]] std::size_t remaining() const { return end_ - pos_; }

 private:
  const std::string& path_;
  const std::vector<std::uint8_t>& buf_;
  std::size_t pos_ = 0;
  std::size_t end_;
};

}  // namespace

bool Checkpointer::exists() const {
  std::error_code ec;
  return std::filesystem::exists(path_, ec);
}

Checkpoint::Checkpoint(const CheckpointView& v)
    : fingerprint(v.fingerprint),
      step(v.step),
      has_rec(v.rec != nullptr),
      aux(v.aux.begin(), v.aux.end()) {
  slots.reserve(v.slots.size());
  for (const grid::Grid3<real_t>* s : v.slots) slots.push_back(*s);
  if (v.rec != nullptr) rec = *v.rec;
}

Checkpoint::operator CheckpointView() const {
  CheckpointView v;
  v.fingerprint = fingerprint;
  v.step = step;
  v.slots.reserve(slots.size());
  for (const grid::Grid3<real_t>& s : slots) v.slots.push_back(&s);
  v.rec = has_rec ? &rec : nullptr;
  v.aux = aux;
  return v;
}

void Checkpointer::save(const CheckpointView& ck) const {
  TEMPEST_TRACE_SPAN_METRIC("checkpoint.save", "resilience",
                            CheckpointWriteSeconds);
  TEMPEST_REQUIRE_MSG(!ck.slots.empty(), "checkpoint carries no time slices");
  const auto& e0 = ck.slots.front()->extents();
  const int halo0 = ck.slots.front()->halo();
  for (const grid::Grid3<real_t>* s : ck.slots) {
    TEMPEST_REQUIRE_MSG(s->extents() == e0 && s->halo() == halo0,
                        "checkpoint slices must share one geometry");
  }

  const std::string tmp = path_ + ".tmp";
  [[maybe_unused]] std::size_t written = 0;
  {
    std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
    TEMPEST_REQUIRE_MSG(os.is_open(),
                        "cannot open checkpoint temp file: " + tmp);
    CrcWriter w(os);
    w.pod(kMagic);
    w.pod(kVersion);
    w.pod(ck.fingerprint);
    w.pod(static_cast<std::int32_t>(ck.step));
    w.pod(static_cast<std::int32_t>(ck.slots.size()));
    w.pod(static_cast<std::int32_t>(e0.nx));
    w.pod(static_cast<std::int32_t>(e0.ny));
    w.pod(static_cast<std::int32_t>(e0.nz));
    w.pod(static_cast<std::int32_t>(halo0));
    for (const grid::Grid3<real_t>* s : ck.slots) {
      w.bytes(s->raw(), s->padded_size() * sizeof(real_t));
    }

    // Torn-write window: a kill here leaves a partial temp file while the
    // previous checkpoint (if any) is still intact under the live name.
    if (fault::consume_checkpoint_failure()) {
      os.flush();
      throw util::PreconditionError(
          "fault injection: simulated crash during checkpoint write to " +
          tmp);
    }

    w.pod(static_cast<std::uint8_t>(ck.rec != nullptr ? 1 : 0));
    if (ck.rec != nullptr) {
      w.pod(static_cast<std::int32_t>(ck.rec->nt()));
      w.pod(static_cast<std::int32_t>(ck.rec->npoints()));
      for (const sparse::Coord3& c : ck.rec->coords()) {
        w.pod(c.x);
        w.pod(c.y);
        w.pod(c.z);
      }
      for (int t = 0; t < ck.rec->nt(); ++t) {
        const auto step = ck.rec->step(t);
        w.bytes(step.data(), step.size() * sizeof(real_t));
      }
    }

    w.pod(static_cast<std::uint32_t>(ck.aux.size()));
    for (const auto& [name, blob] : ck.aux) {
      w.pod(static_cast<std::uint32_t>(name.size()));
      w.bytes(name.data(), name.size());
      w.pod(static_cast<std::uint64_t>(blob.size()));
      w.bytes(blob.data(), blob.size());
    }

    const std::uint32_t crc = w.crc();
    os.write(reinterpret_cast<const char*>(&crc), sizeof(crc));
    written = w.size() + sizeof(crc);
    os.flush();
    TEMPEST_REQUIRE_MSG(static_cast<bool>(os),
                        "checkpoint write failed: " + tmp);
  }

  // Rotate: the fully-written previous checkpoint becomes the fallback
  // copy *before* the new file takes the live name. A kill between the two
  // renames leaves the old file under previous_path() and the new complete
  // file under .tmp — resume falls back to the rotated copy, so no crash
  // instant can strand the run with zero usable checkpoints.
  std::error_code rot_ec;
  if (std::filesystem::exists(path_, rot_ec)) {
    if (std::rename(path_.c_str(), previous_path().c_str()) != 0) {
      util::warn("cannot rotate previous checkpoint to " + previous_path() +
                 "; continuing with a single generation");
    }
  }
  TEMPEST_REQUIRE_MSG(std::rename(tmp.c_str(), path_.c_str()) == 0,
                      "cannot move checkpoint into place: " + path_);
  TEMPEST_TRACE_COUNT(CheckpointBytes, written);
}

Checkpoint Checkpointer::load() const { return load_file(path_); }

Checkpoint Checkpointer::load_file(const std::string& path) const {
  const std::vector<std::uint8_t> buf = io::read_file(path);

  constexpr std::size_t kMinSize =
      2 * sizeof(std::uint32_t) + sizeof(std::uint64_t) +
      6 * sizeof(std::int32_t) + sizeof(std::uint8_t) +
      2 * sizeof(std::uint32_t);
  if (buf.size() < kMinSize) {
    throw io::CorruptFileError(
        path, "too small to hold a checkpoint (" +
                   std::to_string(buf.size()) + " bytes)");
  }

  const std::size_t body = buf.size() - sizeof(std::uint32_t);
  std::uint32_t stored_crc = 0;
  std::memcpy(&stored_crc, buf.data() + body, sizeof(stored_crc));
  const std::uint32_t computed_crc = util::crc32(buf.data(), body);
  if (stored_crc != computed_crc) {
    std::ostringstream os;
    os << "CRC mismatch: stored " << std::hex << stored_crc << ", computed "
       << computed_crc << " — torn write or bit rot";
    throw io::CorruptFileError(path, os.str());
  }

  Reader r(path, buf, body);
  if (r.pod<std::uint32_t>() != kMagic) {
    throw io::CorruptFileError(path,
                               "bad magic — not a tempest checkpoint");
  }
  const std::uint32_t version = r.pod<std::uint32_t>();
  if (version != kVersion) {
    throw io::CorruptFileError(
        path, "unsupported checkpoint version " + std::to_string(version));
  }

  Checkpoint ck;
  ck.fingerprint = r.pod<std::uint64_t>();
  ck.step = r.pod<std::int32_t>();
  const int nslices = r.pod<std::int32_t>();
  const int nx = r.pod<std::int32_t>();
  const int ny = r.pod<std::int32_t>();
  const int nz = r.pod<std::int32_t>();
  const int halo = r.pod<std::int32_t>();
  if (ck.step < 0 || nslices <= 0 || nslices > kMaxSlices || nx <= 0 ||
      ny <= 0 || nz <= 0 || nx > kMaxExtent || ny > kMaxExtent ||
      nz > kMaxExtent || halo < 0 || halo > kMaxHalo) {
    throw io::CorruptFileError(path, "implausible checkpoint header");
  }

  ck.slots.reserve(static_cast<std::size_t>(nslices));
  for (int s = 0; s < nslices; ++s) {
    grid::Grid3<real_t> g({nx, ny, nz}, halo);
    r.bytes(g.raw(), g.padded_size() * sizeof(real_t));
    ck.slots.push_back(std::move(g));
  }

  ck.has_rec = r.pod<std::uint8_t>() != 0;
  if (ck.has_rec) {
    const int rec_nt = r.pod<std::int32_t>();
    const int rec_np = r.pod<std::int32_t>();
    if (rec_nt <= 0 || rec_np < 0) {
      throw io::CorruptFileError(path, "implausible gather header");
    }
    sparse::CoordList coords(static_cast<std::size_t>(rec_np));
    for (sparse::Coord3& c : coords) {
      c.x = r.pod<double>();
      c.y = r.pod<double>();
      c.z = r.pod<double>();
    }
    ck.rec = sparse::SparseTimeSeries(std::move(coords), rec_nt);
    for (int t = 0; t < rec_nt; ++t) {
      auto step = ck.rec.step(t);
      r.bytes(step.data(), step.size() * sizeof(real_t));
    }
  }

  const std::uint32_t naux = r.pod<std::uint32_t>();
  if (naux > kMaxAux) {
    throw io::CorruptFileError(path, "implausible auxiliary-blob count");
  }
  for (std::uint32_t i = 0; i < naux; ++i) {
    const std::uint32_t name_len = r.pod<std::uint32_t>();
    if (name_len > 4096) {
      throw io::CorruptFileError(path, "implausible auxiliary name length");
    }
    std::string name(name_len, '\0');
    r.bytes(name.data(), name_len);
    const std::uint64_t nbytes = r.pod<std::uint64_t>();
    if (nbytes > r.remaining()) {
      throw io::CorruptFileError(path,
                                 "auxiliary blob exceeds the file size");
    }
    std::vector<std::uint8_t> blob(static_cast<std::size_t>(nbytes));
    r.bytes(blob.data(), blob.size());
    ck.aux.emplace_back(std::move(name), std::move(blob));
  }

  if (r.remaining() != 0) {
    throw io::CorruptFileError(path, "trailing bytes after checkpoint data");
  }
  return ck;
}

std::optional<Checkpoint> Checkpointer::try_load(
    std::uint64_t expected_fingerprint) const {
  // Newest first, then the rotated predecessor: a crash mid-write (or bit
  // rot in the newest file) degrades the resume to the previous barrier
  // step instead of a cold start.
  const std::string candidates[] = {path_, previous_path()};
  bool any_file = false;
  for (const std::string& candidate : candidates) {
    std::error_code ec;
    if (!std::filesystem::exists(candidate, ec)) continue;
    any_file = true;
    Checkpoint ck;
    try {
      ck = load_file(candidate);
    } catch (const io::CorruptFileError& e) {
      util::warn(std::string("ignoring unusable checkpoint: ") + e.what());
      continue;
    }
    if (ck.fingerprint != expected_fingerprint) {
      std::ostringstream os;
      os << "checkpoint '" << candidate << "' was written by a different "
         << "configuration (fingerprint " << std::hex << ck.fingerprint
         << ", this run is " << expected_fingerprint
         << ") — resuming would corrupt the result; delete the file to "
            "start fresh";
      throw CheckpointMismatchError(os.str());
    }
    if (candidate != path_) {
      util::warn("newest checkpoint unusable; resuming from the rotated "
                 "predecessor " +
                 candidate + " (step " + std::to_string(ck.step) + ")");
    }
    return ck;
  }
  if (any_file) {
    util::warn("no usable checkpoint generation under '" + path_ +
               "'; starting fresh");
  }
  return std::nullopt;
}

void Checkpointer::remove_all() const {
  std::remove(path_.c_str());
  std::remove(previous_path().c_str());
  std::remove((path_ + ".tmp").c_str());
}

std::vector<std::uint8_t> aux_wrap_bytes(std::uint32_t magic,
                                         std::uint32_t version,
                                         const void* data, std::size_t n) {
  std::vector<std::uint8_t> b(2 * sizeof(std::uint32_t) + n);
  std::memcpy(b.data(), &magic, sizeof(magic));
  std::memcpy(b.data() + sizeof(magic), &version, sizeof(version));
  if (n != 0) {
    std::memcpy(b.data() + 2 * sizeof(std::uint32_t), data, n);
  }
  return b;
}

AuxView aux_unwrap_bytes(const std::string& name,
                         const std::vector<std::uint8_t>& blob,
                         std::uint32_t magic, std::uint32_t version) {
  constexpr std::size_t kHeader = 2 * sizeof(std::uint32_t);
  if (blob.size() < kHeader) {
    throw io::CorruptFileError(
        name, "auxiliary blob truncated before its header (" +
                  std::to_string(blob.size()) + " bytes)");
  }
  std::uint32_t stored_magic = 0;
  std::uint32_t stored_version = 0;
  std::memcpy(&stored_magic, blob.data(), sizeof(stored_magic));
  std::memcpy(&stored_version, blob.data() + sizeof(stored_magic),
              sizeof(stored_version));
  if (stored_magic != magic) {
    std::ostringstream os;
    os << "auxiliary blob magic mismatch: stored 0x" << std::hex
       << stored_magic << ", expected 0x" << magic;
    throw io::CorruptFileError(name, os.str());
  }
  if (stored_version != version) {
    throw io::CorruptFileError(
        name, "auxiliary blob version " + std::to_string(stored_version) +
                  ", this build reads version " + std::to_string(version));
  }
  return AuxView{blob.data() + kHeader, blob.size() - kHeader};
}

}  // namespace tempest::resilience
