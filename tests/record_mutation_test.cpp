// Deterministic mutation harness over every binary reader. Each fixture
// under tests/data (TPCK, TPJL, TFBR, TPG1) and one wrapped aux blob is cut
// at every offset, has single bits flipped (every bit of its headers plus a
// seeded sample elsewhere) and has its length and count fields replaced by
// lies re-sealed under a valid CRC; whole journal frames are duplicated and
// reordered, zeros are appended to the journal, and a black-box slot is
// duplicated. Every mutant must end in io::CorruptFileError, in
// JournalMismatchError (a well-framed journal whose first record is not the
// plan), or in the format's documented recovery:
//   * TPCK: load() refuses, and try_load() serves the intact predecessor;
//   * TPJL: a torn tail, a zero-filled one included, yields exactly the
//     frames wholly before the damage, and a whole frame duplicated or
//     moved is well-framed history that replays as it lies (v1 frames
//     carry no sequence number);
//   * TFBR: a flipped slot is one torn slot, and the bytes no CRC covers
//     (the cursors, the header padding, the name table) decode as data;
//   * TPG1 and aux payloads carry no checksum: a flipped payload bit loads
//     as data.
// No other exception may escape a reader.

#include <gtest/gtest.h>
#include <unistd.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <optional>
#include <set>
#include <streambuf>
#include <string>
#include <typeinfo>
#include <utility>
#include <vector>

#include "tempest/io/io.hpp"
#include "tempest/jobs/journal.hpp"
#include "tempest/jobs/queue.hpp"
#include "tempest/obs/recorder.hpp"
#include "tempest/resilience/checkpoint.hpp"
#include "tempest/util/crc32.hpp"
#include "tempest/util/rng.hpp"

namespace fs = std::filesystem;
namespace io = tempest::io;
namespace jb = tempest::jobs;
namespace ob = tempest::obs;
namespace rs = tempest::resilience;
using tempest::real_t;
using Bytes = std::vector<std::uint8_t>;

namespace {

std::string fixture(const char* name) {
  return std::string(TEMPEST_TEST_DATA_DIR) + "/" + name;
}

/// A scratch directory removed with everything in it on scope exit.
class TempDir {
 public:
  TempDir()
      : dir_(fs::temp_directory_path() /
             ("tempest_mutation_test_" + std::to_string(::getpid()))) {
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }
  [[nodiscard]] std::string path(const char* name) const {
    return (dir_ / name).string();
  }

 private:
  fs::path dir_;
};

/// Drops the warnings the recovery paths print (two per mutant in the
/// checkpoint fallback) for the lifetime of the scope.
class QuietStderr {
 public:
  QuietStderr() : saved_(std::cerr.rdbuf(&null_)) {}
  ~QuietStderr() { std::cerr.rdbuf(saved_); }

 private:
  struct NullBuf : std::streambuf {
    int overflow(int c) override { return c; }
  } null_;
  std::streambuf* saved_;
};

void write_file(const std::string& path, const Bytes& b) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  os.write(reinterpret_cast<const char*>(b.data()),
           static_cast<std::streamsize>(b.size()));
}

enum class Outcome { Loaded, Corrupt, Mismatch, Escaped };

const char* to_string(Outcome o) {
  switch (o) {
    case Outcome::Loaded: return "loaded";
    case Outcome::Corrupt: return "CorruptFileError";
    case Outcome::Mismatch: return "JournalMismatchError";
    case Outcome::Escaped: return "escaped";
  }
  return "?";
}

/// Runs one decode of `mutant`, mapping the permitted exceptions to an
/// Outcome; any other exception fails the test naming the mutant.
template <typename F>
Outcome run(const std::string& mutant, F&& decode) {
  try {
    decode();
    return Outcome::Loaded;
  } catch (const io::CorruptFileError&) {
    return Outcome::Corrupt;
  } catch (const jb::JournalMismatchError&) {
    return Outcome::Mismatch;
  } catch (const std::exception& e) {
    ADD_FAILURE() << mutant << ": " << typeid(e).name()
                  << " escaped: " << e.what();
  } catch (...) {
    ADD_FAILURE() << mutant << ": a non-standard exception escaped";
  }
  return Outcome::Escaped;
}

template <typename T>
T peek(const Bytes& b, std::size_t off) {
  T v{};
  std::memcpy(&v, b.data() + off, sizeof(T));
  return v;
}

template <typename T>
void poke(Bytes& b, std::size_t off, T v) {
  std::memcpy(b.data() + off, &v, sizeof(T));
}

Bytes truncated(const Bytes& b, std::size_t n) {
  return {b.begin(), b.begin() + static_cast<std::ptrdiff_t>(n)};
}

Bytes flipped(const Bytes& b, std::size_t bit) {
  Bytes m = b;
  m[bit / 8] = static_cast<std::uint8_t>(m[bit / 8] ^ (1u << (bit % 8)));
  return m;
}

/// Every bit of the byte ranges in `every`, then `samples` seeded picks
/// from the rest of a `size`-byte file.
std::vector<std::size_t> flip_bits(
    std::size_t size,
    const std::vector<std::pair<std::size_t, std::size_t>>& every,
    int samples, std::uint64_t seed) {
  std::set<std::size_t> bits;
  for (const auto& [begin, end] : every) {
    for (std::size_t bit = 8 * begin; bit < 8 * end; ++bit) bits.insert(bit);
  }
  const std::size_t covered = bits.size();
  tempest::util::SplitMix64 rng(seed);
  while (bits.size() < covered + static_cast<std::size_t>(samples) &&
         bits.size() < 8 * size) {
    bits.insert(static_cast<std::size_t>(rng.next() % (8 * size)));
  }
  return {bits.begin(), bits.end()};
}

/// Values a lying field takes in place of `v`: the neighbours, the
/// extremes and the sizes just past each reader's sanity bounds.
template <typename T>
std::vector<T> lies(T v) {
  using L = std::numeric_limits<T>;
  const std::vector<T> all = {
      T{0}, T{1}, static_cast<T>(v - 1), static_cast<T>(v + 1),
      static_cast<T>(2 * v), static_cast<T>(1024), static_cast<T>(1025),
      static_cast<T>(4097), static_cast<T>(std::int64_t{1} << 20),
      static_cast<T>((std::int64_t{1} << 20) + 1),
      static_cast<T>(std::int64_t{1} << 30), L::max(), L::min()};
  std::vector<T> out;
  for (T x : all) {
    bool seen = x == v;
    for (T y : out) seen = seen || y == x;
    if (!seen) out.push_back(x);
  }
  return out;
}

// --- TPCK ----------------------------------------------------------------

constexpr std::uint64_t kCheckpointFingerprint = 0x5445535446495855ull;

bool same_checkpoint(const rs::Checkpoint& a, const rs::Checkpoint& b) {
  if (a.fingerprint != b.fingerprint || a.step != b.step ||
      a.slots.size() != b.slots.size() || a.has_rec != b.has_rec ||
      a.aux != b.aux || a.rec.nt() != b.rec.nt() ||
      a.rec.coords() != b.rec.coords()) {
    return false;
  }
  for (std::size_t s = 0; s < a.slots.size(); ++s) {
    if (a.slots[s].padded_size() != b.slots[s].padded_size() ||
        std::memcmp(a.slots[s].raw(), b.slots[s].raw(),
                    a.slots[s].padded_size() * sizeof(real_t)) != 0) {
      return false;
    }
  }
  for (int t = 0; t < a.rec.nt(); ++t) {
    const auto x = a.rec.step(t);
    const auto y = b.rec.step(t);
    if (std::memcmp(x.data(), y.data(), x.size_bytes()) != 0) return false;
  }
  return true;
}

/// The live checkpoint is the mutant and its rotated predecessor is the
/// intact fixture: load() must refuse the mutant, and try_load() must
/// serve the fixture.
class CheckpointHarness {
 public:
  CheckpointHarness()
      : intact_(io::read_file(fixture("acoustic_6cube_step5.tpck"))),
        want_(rs::Checkpointer(fixture("acoustic_6cube_step5.tpck")).load()),
        ckpt_(dir_.path("shot.tpck")) {
    write_file(ckpt_.previous_path(), intact_);
  }

  [[nodiscard]] const Bytes& intact() const { return intact_; }
  [[nodiscard]] const rs::Checkpoint& fixture_state() const { return want_; }

  void expect_rejected(const Bytes& mutant, const std::string& label) {
    write_file(ckpt_.path(), mutant);
    const Outcome o = run(label, [&] { (void)ckpt_.load(); });
    EXPECT_EQ(o, Outcome::Corrupt) << label << ": load() " << to_string(o);
    std::optional<rs::Checkpoint> back;
    const Outcome r =
        run(label, [&] { back = ckpt_.try_load(kCheckpointFingerprint); });
    ASSERT_EQ(r, Outcome::Loaded) << label << ": try_load() " << to_string(r);
    ASSERT_TRUE(back.has_value()) << label;
    EXPECT_TRUE(same_checkpoint(*back, want_))
        << label << ": try_load() did not return the rotated fixture";
  }

  /// `mutant` with its trailing CRC recomputed over its body.
  [[nodiscard]] static Bytes resealed(Bytes mutant) {
    const std::size_t body = mutant.size() - sizeof(std::uint32_t);
    poke(mutant, body, tempest::util::crc32(mutant.data(), body));
    return mutant;
  }

 private:
  TempDir dir_;
  Bytes intact_;
  rs::Checkpoint want_;
  rs::Checkpointer ckpt_;
  QuietStderr quiet_;
};

TEST(RecordMutation, CheckpointTruncatedAtEveryOffset) {
  CheckpointHarness h;
  for (std::size_t n = 0; n < h.intact().size() && !HasFailure(); ++n) {
    h.expect_rejected(truncated(h.intact(), n),
                      "TPCK cut to " + std::to_string(n) + " bytes");
  }
}

TEST(RecordMutation, CheckpointBitFlips) {
  CheckpointHarness h;
  const std::size_t size = h.intact().size();
  // The 40-byte header ({magic, version}, fingerprint, step, slice count,
  // extents, halo) and the CRC trailer bit for bit; a sample elsewhere.
  for (const std::size_t bit :
       flip_bits(size, {{0, 40}, {size - 4, size}}, 256, 0x7e57ull)) {
    h.expect_rejected(flipped(h.intact(), bit),
                      "TPCK bit " + std::to_string(bit) + " flipped");
    if (HasFailure()) return;
  }
}

TEST(RecordMutation, CheckpointLyingFieldsUnderAValidCrc) {
  CheckpointHarness h;
  const rs::Checkpoint& ck = h.fixture_state();
  ASSERT_TRUE(ck.has_rec);
  ASSERT_EQ(ck.aux.size(), 2u);
  // Field offsets, walked from the fixture's decoded geometry.
  const std::size_t slices_end =
      40 + ck.slots.size() * ck.slots[0].padded_size() * sizeof(real_t);
  const std::size_t rec_nt = slices_end + 1;
  const std::size_t rec_np = rec_nt + 4;
  const std::size_t naux =
      rec_np + 4 + static_cast<std::size_t>(ck.rec.npoints()) * 24 +
      static_cast<std::size_t>(ck.rec.nt() * ck.rec.npoints()) *
          sizeof(real_t);
  std::vector<std::pair<std::string, std::size_t>> names;
  std::vector<std::pair<std::string, std::size_t>> blobs;
  std::size_t off = naux + 4;
  for (const auto& [name, blob] : ck.aux) {
    names.emplace_back("aux name length '" + name + "'", off);
    off += 4 + name.size();
    blobs.emplace_back("aux blob size '" + name + "'", off);
    off += 8 + blob.size();
  }
  ASSERT_EQ(off + 4, h.intact().size());

  const auto lie_about = [&](const std::string& field, std::size_t at,
                             auto original) {
    using T = decltype(original);
    ASSERT_EQ(peek<T>(h.intact(), at), original) << field;
    for (const T v : lies(original)) {
      Bytes m = h.intact();
      poke(m, at, v);
      h.expect_rejected(CheckpointHarness::resealed(std::move(m)),
                        "TPCK " + field + " = " + std::to_string(v));
      if (::testing::Test::HasFailure()) return;
    }
  };
  // Any non-negative step is a plausible value; only a negative one lies
  // detectably.
  for (const std::int32_t v : {-1, std::numeric_limits<std::int32_t>::min()}) {
    Bytes m = h.intact();
    poke(m, 16, v);
    h.expect_rejected(CheckpointHarness::resealed(std::move(m)),
                      "TPCK step = " + std::to_string(v));
  }
  lie_about("slice count", 20,
            static_cast<std::int32_t>(ck.slots.size()));
  const auto& e = ck.slots[0].extents();
  lie_about("nx", 24, static_cast<std::int32_t>(e.nx));
  lie_about("ny", 28, static_cast<std::int32_t>(e.ny));
  lie_about("nz", 32, static_cast<std::int32_t>(e.nz));
  lie_about("halo", 36, static_cast<std::int32_t>(ck.slots[0].halo()));
  lie_about("gather nt", rec_nt, static_cast<std::int32_t>(ck.rec.nt()));
  lie_about("gather npoints", rec_np,
            static_cast<std::int32_t>(ck.rec.npoints()));
  lie_about("aux count", naux, static_cast<std::uint32_t>(ck.aux.size()));
  for (std::size_t i = 0; i < ck.aux.size(); ++i) {
    lie_about(names[i].first, names[i].second,
              static_cast<std::uint32_t>(ck.aux[i].first.size()));
    lie_about(blobs[i].first, blobs[i].second,
              static_cast<std::uint64_t>(ck.aux[i].second.size()));
  }
}

// --- TPJL ----------------------------------------------------------------

constexpr std::uint64_t kPlanFingerprint = 0x0123456789abcdefull;
constexpr std::uint32_t kMaxPayload = 1u << 20;

struct Frame {
  std::size_t offset = 0;
  std::size_t bytes = 0;  ///< 8-byte frame header + payload
};

/// Replays the mutant through Journal::replay and then JobQueue, which
/// must agree: a refused journal is refused again, and any well-framed one
/// is foreign (JournalMismatchError) — the fixture's plan declares job
/// count -1, which no survey has. Either way the file is left as it was.
class JournalHarness {
 public:
  JournalHarness()
      : intact_(io::read_file(fixture("survey_3shots.tpj"))),
        want_(jb::Journal(fixture("survey_3shots.tpj")).replay()),
        path_(dir_.path("journal.tpj")) {
    for (std::size_t off = 8; off < intact_.size();) {
      const std::size_t bytes = 8 + peek<std::uint32_t>(intact_, off);
      frames_.push_back({off, bytes});
      off += bytes;
    }
  }

  [[nodiscard]] const Bytes& intact() const { return intact_; }
  [[nodiscard]] const std::vector<Frame>& frames() const { return frames_; }
  [[nodiscard]] const std::vector<jb::Record>& records() const {
    return want_;
  }
  [[nodiscard]] std::vector<jb::Record> prefix(std::size_t k) const {
    return {want_.begin(), want_.begin() + static_cast<std::ptrdiff_t>(k)};
  }
  /// Index of the frame holding byte `at` (the file tag counts as none).
  [[nodiscard]] std::size_t frame_of(std::size_t at) const {
    std::size_t k = 0;
    while (k + 1 < frames_.size() && frames_[k + 1].offset <= at) ++k;
    return k;
  }

  struct Replay {
    Outcome outcome = Outcome::Escaped;
    std::vector<jb::Record> records;
    bool torn = false;
  };

  Replay replay(const Bytes& mutant, const std::string& label) {
    write_file(path_, mutant);
    Replay r;
    r.outcome =
        run(label, [&] { r.records = jb::Journal(path_).replay(&r.torn); });
    const Outcome q = run(
        label, [&] { (void)jb::JobQueue(path_, kPlanFingerprint, 3); });
    EXPECT_EQ(q, r.outcome == Outcome::Corrupt ? Outcome::Corrupt
                                               : Outcome::Mismatch)
        << label << ": queue " << to_string(q);
    EXPECT_EQ(io::read_file(path_), mutant)
        << label << ": the queue must leave a journal it refuses as it was";
    return r;
  }

  /// The mutant of frame `k` must be refused, or read as a torn tail that
  /// keeps exactly the frames before `k`.
  void expect_refused_or_torn_at(const Bytes& mutant, std::size_t k,
                                 const std::string& label) {
    const Replay r = replay(mutant, label);
    if (r.outcome == Outcome::Corrupt) return;
    EXPECT_EQ(r.outcome, Outcome::Loaded) << label;
    EXPECT_TRUE(r.torn) << label << ": damage read as intact history";
    EXPECT_EQ(r.records, prefix(k)) << label;
  }

  /// `mutant` with the CRC of frame `f`'s payload recomputed over the
  /// `len` bytes its length field now declares, when they are in the file.
  [[nodiscard]] static Bytes resealed(Bytes mutant, const Frame& f,
                                      std::uint32_t len) {
    if (f.offset + 8 + len <= mutant.size()) {
      poke(mutant, f.offset + 4,
           tempest::util::crc32(mutant.data() + f.offset + 8, len));
    }
    return mutant;
  }

 private:
  TempDir dir_;
  Bytes intact_;
  std::vector<jb::Record> want_;
  std::string path_;
  std::vector<Frame> frames_;
  QuietStderr quiet_;
};

TEST(RecordMutation, JournalTruncatedAtEveryOffset) {
  JournalHarness h;
  ASSERT_EQ(h.records().size(), 10u);
  for (std::size_t n = 0; n < h.intact().size() && !HasFailure(); ++n) {
    const std::string label = "TPJL cut to " + std::to_string(n) + " bytes";
    const JournalHarness::Replay r = h.replay(truncated(h.intact(), n), label);
    if (n < 8) {
      EXPECT_EQ(r.outcome, Outcome::Corrupt) << label;
      continue;
    }
    std::size_t whole = 0;
    bool boundary = n == 8;
    for (const Frame& f : h.frames()) {
      if (f.offset + f.bytes <= n) ++whole;
      boundary = boundary || f.offset + f.bytes == n;
    }
    EXPECT_EQ(r.outcome, Outcome::Loaded) << label;
    EXPECT_EQ(r.torn, !boundary) << label;
    EXPECT_EQ(r.records, h.prefix(whole)) << label;
  }
}

TEST(RecordMutation, JournalBitFlips) {
  JournalHarness h;
  const Frame& first = h.frames().front();
  const Frame& last = h.frames().back();
  for (const std::size_t bit : flip_bits(
           h.intact().size(),
           {{0, 8}, {first.offset, first.offset + first.bytes},
            {last.offset, last.offset + last.bytes}},
           256, 0x70a1ull)) {
    const std::string label = "TPJL bit " + std::to_string(bit) + " flipped";
    if (bit < 64) {
      EXPECT_EQ(h.replay(flipped(h.intact(), bit), label).outcome,
                Outcome::Corrupt)
          << label;
    } else {
      h.expect_refused_or_torn_at(flipped(h.intact(), bit),
                                  h.frame_of(bit / 8), label);
    }
    if (HasFailure()) return;
  }
}

TEST(RecordMutation, JournalLyingLengthsUnderAValidCrc) {
  JournalHarness h;
  for (std::size_t k = 0; k < h.frames().size() && !HasFailure(); ++k) {
    const Frame& f = h.frames()[k];
    const auto len = peek<std::uint32_t>(h.intact(), f.offset);
    for (const std::uint32_t v : lies(len)) {
      Bytes m = h.intact();
      poke(m, f.offset, v);
      const std::string label = "TPJL frame " + std::to_string(k) +
                                " payload_len = " + std::to_string(v);
      const JournalHarness::Replay r =
          h.replay(JournalHarness::resealed(std::move(m), f, v), label);
      // Over the frame limit: corruption wherever it sits. Past the end of
      // the file: indistinguishable from a torn append in TPJL v1. Inside
      // the file: the payload no longer decodes.
      if (v <= kMaxPayload && f.offset + 8 + v > h.intact().size()) {
        EXPECT_EQ(r.outcome, Outcome::Loaded) << label;
        EXPECT_TRUE(r.torn) << label;
        EXPECT_EQ(r.records, h.prefix(k)) << label;
      } else {
        EXPECT_EQ(r.outcome, Outcome::Corrupt) << label;
      }
    }
    // detail_len: the last u32 of the payload's fixed part.
    const std::size_t at = f.offset + 8 + 32;
    for (const std::uint32_t v : lies(peek<std::uint32_t>(h.intact(), at))) {
      Bytes m = h.intact();
      poke(m, at, v);
      const std::string label = "TPJL frame " + std::to_string(k) +
                                " detail_len = " + std::to_string(v);
      EXPECT_EQ(h.replay(JournalHarness::resealed(std::move(m), f,
                                                  static_cast<std::uint32_t>(
                                                      f.bytes - 8)),
                         label)
                    .outcome,
                Outcome::Corrupt)
          << label;
    }
  }
}

// A filesystem that extends a file before its data lands can leave an
// append as zeros. No writer emits a payload under the 36 bytes of fixed
// record fields, so a frame declaring fewer is a torn tail when every byte
// from its header to EOF is zero, and corruption otherwise.
TEST(RecordMutation, JournalZeroFilledTailIsTorn) {
  JournalHarness h;
  const auto with_tail = [&](const Bytes& tail) {
    Bytes m = h.intact();
    m.insert(m.end(), tail.begin(), tail.end());
    return m;
  };
  for (const std::size_t zeros : {std::size_t{8}, std::size_t{9},
                                  std::size_t{44}, std::size_t{4096}}) {
    const std::string label =
        "TPJL + " + std::to_string(zeros) + " zero bytes";
    const JournalHarness::Replay r =
        h.replay(with_tail(Bytes(zeros, 0)), label);
    EXPECT_EQ(r.outcome, Outcome::Loaded) << label;
    EXPECT_TRUE(r.torn) << label;
    EXPECT_EQ(r.records, h.records()) << label;
  }

  // Anything but zeros after a short length is damage, not a torn append.
  Bytes trailing(64, 0);
  trailing.back() = 1;
  EXPECT_EQ(h.replay(with_tail(trailing), "zero run ending in 0x01").outcome,
            Outcome::Corrupt);
  Bytes short_frame(8 + 4, 0);  // a sealed 4-byte payload of zeros
  poke(short_frame, 0, std::uint32_t{4});
  poke(short_frame, 4, tempest::util::crc32(short_frame.data() + 8, 4));
  EXPECT_EQ(h.replay(with_tail(short_frame), "sealed 4-byte frame").outcome,
            Outcome::Corrupt);

  // Zeros between intact frames are interior damage.
  const Frame& last = h.frames().back();
  Bytes m = h.intact();
  m.insert(m.begin() + static_cast<std::ptrdiff_t>(last.offset), 8, 0);
  EXPECT_EQ(h.replay(m, "8 zero bytes before the last frame").outcome,
            Outcome::Corrupt);
}

TEST(RecordMutation, JournalDuplicatedAndReorderedFrames) {
  JournalHarness h;
  const auto span = [&](std::size_t k) {
    const Frame& f = h.frames()[k];
    const auto begin =
        h.intact().begin() + static_cast<std::ptrdiff_t>(f.offset);
    return Bytes(begin, begin + static_cast<std::ptrdiff_t>(f.bytes));
  };
  const auto assemble = [&](const std::vector<std::size_t>& order) {
    Bytes m(h.intact().begin(), h.intact().begin() + 8);
    for (const std::size_t k : order) {
      const Bytes frame = span(k);
      m.insert(m.end(), frame.begin(), frame.end());
    }
    return m;
  };
  const std::size_t n = h.frames().size();
  for (std::size_t k = 0; k < n && !HasFailure(); ++k) {
    std::vector<std::size_t> order;
    for (std::size_t i = 0; i < n; ++i) {
      order.push_back(i);
      if (i == k) order.push_back(i);
    }
    std::vector<jb::Record> want;
    for (const std::size_t i : order) want.push_back(h.records()[i]);
    const std::string label = "TPJL frame " + std::to_string(k) + " doubled";
    const JournalHarness::Replay r = h.replay(assemble(order), label);
    EXPECT_EQ(r.outcome, Outcome::Loaded) << label;
    EXPECT_FALSE(r.torn) << label;
    EXPECT_EQ(r.records, want) << label;
  }
  for (std::size_t k = 0; k + 1 < n && !HasFailure(); ++k) {
    std::vector<std::size_t> order;
    for (std::size_t i = 0; i < n; ++i) order.push_back(i);
    std::swap(order[k], order[k + 1]);
    std::vector<jb::Record> want;
    for (const std::size_t i : order) want.push_back(h.records()[i]);
    const std::string label = "TPJL frames " + std::to_string(k) + " and " +
                              std::to_string(k + 1) + " swapped";
    const JournalHarness::Replay r = h.replay(assemble(order), label);
    EXPECT_EQ(r.outcome, Outcome::Loaded) << label;
    EXPECT_FALSE(r.torn) << label;
    EXPECT_EQ(r.records, want) << label;
  }
}

// --- TFBR ----------------------------------------------------------------

/// shot_3.tfbr: 1 lane of 8 slots, an 8-entry name table.
constexpr std::size_t kBoxHeader = 4096;
constexpr std::size_t kBoxSlots = kBoxHeader + 8 * 64 + 64;
constexpr std::size_t kBoxCrcCovered = 32;  // fixed fields + header CRC
constexpr std::size_t kBoxHeaderFields = 48;

class BlackboxHarness {
 public:
  BlackboxHarness()
      : intact_(io::read_file(fixture("shot_3.tfbr"))),
        want_(ob::read_blackbox(fixture("shot_3.tfbr"))),
        path_(dir_.path("shot.tfbr")) {}

  [[nodiscard]] const Bytes& intact() const { return intact_; }

  /// read_blackbox() of the mutant, with verify_blackbox() agreeing.
  Outcome decode(const Bytes& mutant, const std::string& label,
                 ob::BlackboxContents* out) {
    write_file(path_, mutant);
    const Outcome o = run(label, [&] { *out = ob::read_blackbox(path_); });
    std::string error;
    const bool ok = ob::verify_blackbox(path_, &error);
    EXPECT_EQ(ok, o == Outcome::Loaded && out->torn_slots <= 1)
        << label << ": verify_blackbox() disagrees: " << error;
    return o;
  }

  void expect_corrupt(const Bytes& mutant, const std::string& label) {
    ob::BlackboxContents box;
    EXPECT_EQ(decode(mutant, label, &box), Outcome::Corrupt) << label;
  }

  /// Loads with `torn` torn slots, and every other surviving event's
  /// sequence number intact.
  void expect_loaded(const Bytes& mutant, const std::string& label,
                     std::uint32_t torn) {
    ob::BlackboxContents box;
    ASSERT_EQ(decode(mutant, label, &box), Outcome::Loaded) << label;
    EXPECT_EQ(box.torn_slots, torn) << label;
    ASSERT_EQ(box.events.size(), want_.events.size() - torn) << label;
    std::set<std::uint64_t> seqs;
    for (const ob::BlackboxEvent& ev : want_.events) seqs.insert(ev.seq);
    for (const ob::BlackboxEvent& ev : box.events) {
      EXPECT_EQ(seqs.count(ev.seq), 1u) << label << ": seq " << ev.seq;
    }
  }

 private:
  TempDir dir_;
  Bytes intact_;
  ob::BlackboxContents want_;
  std::string path_;
};

TEST(RecordMutation, BlackboxTruncatedAtEveryOffset) {
  BlackboxHarness h;
  for (std::size_t n = 0; n < h.intact().size() && !HasFailure(); ++n) {
    h.expect_corrupt(truncated(h.intact(), n),
                     "TFBR cut to " + std::to_string(n) + " bytes");
  }
}

TEST(RecordMutation, BlackboxBitFlips) {
  BlackboxHarness h;
  ASSERT_EQ(h.intact().size(), kBoxSlots + 8 * 64);
  for (const std::size_t bit :
       flip_bits(h.intact().size(),
                 {{0, kBoxHeaderFields}, {kBoxSlots, h.intact().size()}},
                 256, 0xb0c5ull)) {
    const std::string label = "TFBR bit " + std::to_string(bit) + " flipped";
    const std::size_t at = bit / 8;
    if (at < kBoxCrcCovered) {
      h.expect_corrupt(flipped(h.intact(), bit), label);
    } else {
      h.expect_loaded(flipped(h.intact(), bit), label,
                      at >= kBoxSlots ? 1u : 0u);
    }
    if (HasFailure()) return;
  }
}

TEST(RecordMutation, BlackboxLyingGeometryUnderAValidCrc) {
  BlackboxHarness h;
  const std::pair<const char*, std::size_t> fields[] = {
      {"lanes", 8}, {"lane_capacity", 12}, {"slot_bytes", 16},
      {"name_capacity", 20}};
  for (const auto& [field, at] : fields) {
    for (const std::uint32_t v : lies(peek<std::uint32_t>(h.intact(), at))) {
      Bytes m = h.intact();
      poke(m, at, v);
      poke(m, 28, tempest::util::crc32(m.data(), 28));
      h.expect_corrupt(m, std::string("TFBR ") + field + " = " +
                              std::to_string(v));
      if (HasFailure()) return;
    }
  }
}

TEST(RecordMutation, BlackboxDuplicatedSlot) {
  BlackboxHarness h;
  for (std::size_t i = 0; i < 8 && !HasFailure(); ++i) {
    Bytes m = h.intact();
    const std::size_t from = kBoxSlots + 64 * i;
    const std::size_t to = kBoxSlots + 64 * ((i + 1) % 8);
    std::memcpy(m.data() + to, h.intact().data() + from, 64);
    h.expect_corrupt(m, "TFBR slot " + std::to_string(i) + " duplicated");
  }
}

// --- TPG1 ----------------------------------------------------------------

/// shot_gather.tpg: 5 steps x 3 receivers.
constexpr std::size_t kGatherCoords = 12;
constexpr std::size_t kGatherSamples = kGatherCoords + 3 * 24;

class GatherHarness {
 public:
  GatherHarness()
      : intact_(io::read_file(fixture("shot_gather.tpg"))),
        path_(dir_.path("shot.tpg")),
        resaved_(dir_.path("resaved.tpg")) {}

  [[nodiscard]] const Bytes& intact() const { return intact_; }

  Outcome decode(const Bytes& mutant, const std::string& label) {
    write_file(path_, mutant);
    return run(label, [&] {
      io::save_gather(resaved_, io::load_gather(path_));
      // Whatever loads is data: saving it again gives back the same bytes.
      EXPECT_EQ(io::read_file(resaved_), mutant) << label;
    });
  }

 private:
  TempDir dir_;
  Bytes intact_;
  std::string path_;
  std::string resaved_;
};

TEST(RecordMutation, GatherTruncatedAtEveryOffset) {
  GatherHarness h;
  for (std::size_t n = 0; n < h.intact().size() && !HasFailure(); ++n) {
    const std::string label = "TPG1 cut to " + std::to_string(n) + " bytes";
    EXPECT_EQ(h.decode(truncated(h.intact(), n), label), Outcome::Corrupt)
        << label;
  }
}

TEST(RecordMutation, GatherBitFlips) {
  GatherHarness h;
  // TPG1 is tiny: every bit of it.
  for (std::size_t bit = 0; bit < 8 * h.intact().size() && !HasFailure();
       ++bit) {
    const std::string label = "TPG1 bit " + std::to_string(bit) + " flipped";
    const Bytes m = flipped(h.intact(), bit);
    const std::size_t at = bit / 8;
    Outcome want = Outcome::Loaded;  // no checksum: a payload flip is data
    if (at < kGatherCoords) {
      want = Outcome::Corrupt;  // magic, or counts that no longer fit
    } else if (at < kGatherSamples) {
      const std::size_t c = kGatherCoords + (at - kGatherCoords) / 8 * 8;
      if (!std::isfinite(peek<double>(m, c))) want = Outcome::Corrupt;
    }
    EXPECT_EQ(h.decode(m, label), want) << label;
  }
}

TEST(RecordMutation, GatherLyingCounts) {
  GatherHarness h;
  for (const std::size_t at : {std::size_t{4}, std::size_t{8}}) {
    for (const std::int32_t v : lies(peek<std::int32_t>(h.intact(), at))) {
      Bytes m = h.intact();
      poke(m, at, v);
      const std::string label = std::string("TPG1 ") +
                                (at == 4 ? "nt" : "npoints") + " = " +
                                std::to_string(v);
      EXPECT_EQ(h.decode(m, label), Outcome::Corrupt) << label;
      if (HasFailure()) return;
    }
  }
}

// --- Versioned aux blob --------------------------------------------------

constexpr std::uint32_t kAuxMagic = 0x54505854u;  // "TPXT"

TEST(RecordMutation, AuxBlobTruncationsAndBitFlips) {
  const std::int64_t value = -42;
  const Bytes blob = rs::aux_pack_versioned(kAuxMagic, 1, value);
  ASSERT_EQ(blob.size(), 16u);
  const auto unpack = [](const Bytes& b, std::int64_t* out) {
    *out = rs::aux_unpack_versioned<std::int64_t>("counter", b, kAuxMagic, 1);
  };
  for (std::size_t n = 0; n < blob.size(); ++n) {
    std::int64_t got = 0;
    const std::string label = "aux blob cut to " + std::to_string(n);
    EXPECT_EQ(run(label, [&] { unpack(truncated(blob, n), &got); }),
              Outcome::Corrupt)
        << label;
  }
  for (std::size_t bit = 0; bit < 8 * blob.size(); ++bit) {
    std::int64_t got = 0;
    const std::string label = "aux blob bit " + std::to_string(bit);
    const Outcome o = run(label, [&] { unpack(flipped(blob, bit), &got); });
    if (bit < 64) {
      EXPECT_EQ(o, Outcome::Corrupt) << label;  // the {magic, version} tag
    } else {
      ASSERT_EQ(o, Outcome::Loaded) << label;  // payload: data
      EXPECT_EQ(static_cast<std::uint64_t>(got),
                static_cast<std::uint64_t>(value) ^ (1ull << (bit - 64)))
          << label;
    }
  }
}

}  // namespace
