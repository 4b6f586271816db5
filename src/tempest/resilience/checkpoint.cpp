#include "tempest/resilience/checkpoint.hpp"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <span>
#include <sstream>

#include "tempest/io/io.hpp"
#include "tempest/resilience/fault.hpp"
#include "tempest/trace/trace.hpp"
#include "tempest/util/crc32.hpp"
#include "tempest/util/error.hpp"
#include "tempest/util/log.hpp"

namespace tempest::resilience {

namespace {

constexpr io::RecordTag kTag{0x5450434Bu, 1};  // "TPCK", version 1
constexpr int kMaxExtent = 1 << 20;
constexpr int kMaxHalo = 1 << 10;
constexpr int kMaxSlices = 16;

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
    io::RecordWriter w(os);
    w.tag(kTag);
    w.put(ck.fingerprint);
    w.put(static_cast<std::int32_t>(ck.step));
    w.put(static_cast<std::int32_t>(ck.slots.size()));
    w.put(static_cast<std::int32_t>(e0.nx));
    w.put(static_cast<std::int32_t>(e0.ny));
    w.put(static_cast<std::int32_t>(e0.nz));
    w.put(static_cast<std::int32_t>(halo0));
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

    w.put(static_cast<std::uint8_t>(ck.rec != nullptr ? 1 : 0));
    if (ck.rec != nullptr) io::put_gather(w, *ck.rec);

    w.put(static_cast<std::uint32_t>(ck.aux.size()));
    for (const auto& [name, blob] : ck.aux) {
      w.put(static_cast<std::uint32_t>(name.size()));
      w.bytes(name.data(), name.size());
      w.put(static_cast<std::uint64_t>(blob.size()));
      w.bytes(blob.data(), blob.size());
    }

    // The trailer: a CRC-32 of every byte before it.
    w.put(w.crc());
    written = w.size();
    os.flush();
    TEMPEST_REQUIRE_MSG(static_cast<bool>(os),
                        "checkpoint write failed: " + tmp);
  }

  // Rotate: drop the oldest generation, then the fully-written previous
  // checkpoint becomes the fallback copy *before* the new file takes the
  // live name. A kill after the unlink leaves the previous checkpoint live;
  // one between the two renames leaves it under previous_path() and the new
  // complete file under .tmp. Either way resume finds one complete
  // generation, so no crash instant strands the run without a checkpoint.
  // Unlinking first means no rename ever replaces a file, which ext4
  // (auto_da_alloc) answers by flushing the renamed file's data at once.
  std::error_code rot_ec;
  if (std::filesystem::exists(path_, rot_ec)) {
    std::remove(previous_path().c_str());
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

  io::RecordReader file(path, buf);
  const std::span<const std::uint8_t> body =
      file.take(buf.size() - sizeof(std::uint32_t));
  const auto stored_crc = file.get<std::uint32_t>();
  const std::uint32_t computed_crc = util::crc32(body.data(), body.size());
  if (stored_crc != computed_crc) {
    std::ostringstream os;
    os << "CRC mismatch: stored " << std::hex << stored_crc << ", computed "
       << computed_crc << " — torn write or bit rot";
    file.fail(os.str());
  }

  io::RecordReader r(path, body);
  r.tag(kTag, "checkpoint");
  Checkpoint ck;
  ck.fingerprint = r.get<std::uint64_t>();
  ck.step = r.get<std::int32_t>();
  const int nslices = r.get<std::int32_t>();
  const int nx = r.get<std::int32_t>();
  const int ny = r.get<std::int32_t>();
  const int nz = r.get<std::int32_t>();
  const int halo = r.get<std::int32_t>();
  if (ck.step < 0 || nslices <= 0 || nslices > kMaxSlices || nx <= 0 ||
      ny <= 0 || nz <= 0 || nx > kMaxExtent || ny > kMaxExtent ||
      nz > kMaxExtent || halo < 0 || halo > kMaxHalo) {
    r.fail("implausible checkpoint header");
  }

  // Each factor is below 2^21, so the product cannot overflow.
  const std::uint64_t cells = static_cast<std::uint64_t>(nx + 2 * halo) *
                              static_cast<std::uint64_t>(ny + 2 * halo) *
                              static_cast<std::uint64_t>(nz + 2 * halo);
  ck.slots.reserve(static_cast<std::size_t>(nslices));
  for (int s = 0; s < nslices; ++s) {
    (void)r.count(cells, sizeof(real_t), "time slice");
    grid::Grid3<real_t> g({nx, ny, nz}, halo);
    r.bytes(g.raw(), g.padded_size() * sizeof(real_t));
    ck.slots.push_back(std::move(g));
  }

  ck.has_rec = r.get<std::uint8_t>() != 0;
  if (ck.has_rec) ck.rec = io::get_gather(r);

  const auto naux = r.get<std::uint32_t>();
  for (std::uint32_t i = 0; i < naux; ++i) {
    const std::span<const std::uint8_t> name =
        r.take(r.get<std::uint32_t>());
    const std::span<const std::uint8_t> blob =
        r.take(r.get<std::uint64_t>());
    ck.aux.emplace_back(std::string(name.begin(), name.end()),
                        std::vector<std::uint8_t>(blob.begin(), blob.end()));
  }

  if (r.remaining() != 0) r.fail("trailing bytes after checkpoint data");
  return ck;
}

std::optional<Checkpoint> Checkpointer::try_load(
    std::uint64_t expected_fingerprint) const {
  // Newest first, then the rotated predecessor: a crash mid-write (or bit
  // rot in the newest file) degrades the resume to the previous barrier
  // step instead of a cold start.
  const std::string candidates[] = {path_, previous_path()};
  // Generations that failed to decode. They are deleted once the choice is
  // made: left in place, the next save would rotate a corrupt live file
  // over the good predecessor, and every restart would re-read it.
  std::vector<std::string> unusable;
  const auto drop_unusable = [&unusable] {
    for (const std::string& bad : unusable) std::remove(bad.c_str());
  };
  for (const std::string& candidate : candidates) {
    std::error_code ec;
    if (!std::filesystem::exists(candidate, ec)) continue;
    Checkpoint ck;
    try {
      ck = load_file(candidate);
    } catch (const io::CorruptFileError& e) {
      util::warn(std::string("ignoring unusable checkpoint: ") + e.what());
      unusable.push_back(candidate);
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
      util::warn(std::string(unusable.empty() ? "no live checkpoint"
                                              : "newest checkpoint unusable") +
                 "; resuming from the rotated predecessor " + candidate +
                 " (step " + std::to_string(ck.step) + ")");
    }
    drop_unusable();
    return ck;
  }
  if (!unusable.empty()) {
    util::warn("no usable checkpoint generation under '" + path_ +
               "'; starting fresh");
  }
  drop_unusable();
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
  std::vector<std::uint8_t> b;
  b.reserve(sizeof(io::RecordTag) + n);
  io::RecordWriter w(b);
  w.tag({magic, version});
  w.bytes(data, n);
  return b;
}

AuxView aux_unwrap_bytes(const std::string& name,
                         const std::vector<std::uint8_t>& blob,
                         std::uint32_t magic, std::uint32_t version) {
  io::RecordReader r(name, blob);
  r.tag({magic, version}, "auxiliary blob");
  const std::span<const std::uint8_t> payload = r.take(r.remaining());
  return AuxView{payload.data(), payload.size()};
}

}  // namespace tempest::resilience
