#include "tempest/obs/recorder.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstddef>
#include <cstring>
#include <iterator>
#include <map>

#include "tempest/io/io.hpp"
#include "tempest/trace/trace.hpp"
#include "tempest/util/crc32.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <sys/mman.h>
#include <unistd.h>
#define TEMPEST_OBS_HAVE_MMAP 1
#endif

namespace tempest::obs {

namespace {

// On-disk layout of a .tfbr v1 file. Every struct below is its wire
// format: fixed-width little-endian fields at fixed offsets, asserted so a
// layout drift fails the build instead of corrupting black boxes.
constexpr std::uint32_t kMagic = 0x52424654u;  // "TFBR" little-endian
constexpr std::uint32_t kVersion = 1;
constexpr std::size_t kHeaderBytes = 4096;
constexpr std::uint32_t kSlotBytes = 64;
constexpr std::size_t kNameEntryBytes = 64;
constexpr std::size_t kNameTextBytes = kNameEntryBytes - sizeof(std::uint32_t);
constexpr std::size_t kLaneHeaderBytes = 64;
constexpr std::size_t kCrcCoveredHeaderBytes = 28;  // fields before header_crc

struct Header {
  std::uint32_t magic;
  std::uint32_t version;
  std::uint32_t lanes;
  std::uint32_t lane_capacity;
  std::uint32_t slot_bytes;
  std::uint32_t name_capacity;
  std::uint32_t shot;
  std::uint32_t header_crc;  ///< crc32 over the 28 bytes above
  std::uint64_t seq;         ///< next-sequence counter (== total recorded)
  std::uint32_t name_count;
};
static_assert(offsetof(Header, header_crc) == kCrcCoveredHeaderBytes);
static_assert(offsetof(Header, seq) == 32);
static_assert(offsetof(Header, name_count) == 40);

struct NameEntry {
  std::uint32_t len;
  char text[kNameTextBytes];
};
static_assert(sizeof(NameEntry) == kNameEntryBytes);

struct Slot {
  std::uint64_t seq;      ///< 0: never written
  std::int64_t ts_ns;
  std::int64_t a;
  std::int64_t b;
  std::uint32_t tid;
  std::uint16_t kind;
  std::uint16_t name_id;
  unsigned char pad[20];
  std::uint32_t crc;      ///< crc32 over the 60 bytes above, stored last
};
static_assert(sizeof(Slot) == kSlotBytes);
static_assert(offsetof(Slot, crc) == 60);

constexpr std::size_t names_offset() { return kHeaderBytes; }

std::size_t lanes_offset(const FlightRecorder::Options& g) {
  return kHeaderBytes + std::size_t{g.name_capacity} * kNameEntryBytes;
}

std::size_t lane_stride(const FlightRecorder::Options& g) {
  return kLaneHeaderBytes + std::size_t{g.lane_capacity} * kSlotBytes;
}

std::size_t file_bytes(const FlightRecorder::Options& g) {
  return lanes_offset(g) + std::size_t{g.lanes} * lane_stride(g);
}

std::int64_t steady_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Per-thread, per-recorder cache: lane assignment plus interned name ids.
/// The generation check makes a stale cache (from a previous shot's
/// recorder) invalidate itself without any cross-thread coordination.
struct ThreadCache {
  std::uint64_t generation = 0;
  std::uint32_t lane = 0;
  std::uint32_t tid = 0;
  std::unordered_map<const void*, std::uint16_t> names;
};

ThreadCache& local_cache() {
  thread_local ThreadCache c;
  return c;
}

std::atomic<std::uint64_t> g_generation{0};

}  // namespace

std::unique_ptr<FlightRecorder> FlightRecorder::create(const std::string& path,
                                                       const Options& opts) {
#if defined(TEMPEST_OBS_HAVE_MMAP)
  Options g = opts;
  g.lanes = std::clamp<std::uint32_t>(g.lanes, 1, 1024);
  g.lane_capacity = std::clamp<std::uint32_t>(g.lane_capacity, 8, 1u << 20);
  g.name_capacity = std::clamp<std::uint32_t>(g.name_capacity, 8, 1u << 16);
  const std::size_t total = file_bytes(g);

  const int fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return nullptr;
  if (::ftruncate(fd, static_cast<off_t>(total)) != 0) {
    ::close(fd);
    return nullptr;
  }
  void* map = ::mmap(nullptr, total, PROT_READ | PROT_WRITE, MAP_SHARED, fd, 0);
  ::close(fd);  // the mapping keeps the file's pages alive
  if (map == MAP_FAILED) return nullptr;

  auto rec = std::unique_ptr<FlightRecorder>(new FlightRecorder());
  rec->path_ = path;
  rec->map_ = static_cast<unsigned char*>(map);
  rec->map_bytes_ = total;
  rec->opts_ = g;
  rec->epoch_ns_ = steady_ns();
  rec->generation_ = 1 + g_generation.fetch_add(1, std::memory_order_relaxed);

  Header h{};
  h.magic = kMagic;
  h.version = kVersion;
  h.lanes = g.lanes;
  h.lane_capacity = g.lane_capacity;
  h.slot_bytes = kSlotBytes;
  h.name_capacity = g.name_capacity;
  h.shot = g.shot;
  h.header_crc = util::crc32(&h, kCrcCoveredHeaderBytes);
  std::memcpy(rec->map_, &h, sizeof(h));

  // Name id 0 is the overflow name: interning past name_capacity degrades
  // to "?" instead of dropping events.
  static const char kOverflowName[] = "?";
  rec->intern(kOverflowName);
  return rec;
#else
  (void)path;
  (void)opts;
  return nullptr;
#endif
}

FlightRecorder::~FlightRecorder() {
#if defined(TEMPEST_OBS_HAVE_MMAP)
  if (map_ != nullptr) ::munmap(map_, map_bytes_);
#endif
}

std::uint16_t FlightRecorder::intern(const char* name) {
  const std::lock_guard<std::mutex> lock(names_mu_);
  const auto it = name_ids_.find(name);
  if (it != name_ids_.end()) return it->second;
  auto* header = reinterpret_cast<Header*>(map_);
  const std::atomic_ref<std::uint32_t> count_ref(header->name_count);
  const std::uint32_t id = count_ref.load(std::memory_order_relaxed);
  if (id >= opts_.name_capacity) return 0;  // table full: overflow name
  auto* entry = reinterpret_cast<NameEntry*>(map_ + names_offset() +
                                             std::size_t{id} * kNameEntryBytes);
  const std::size_t len = std::min(std::strlen(name), kNameTextBytes);
  std::memcpy(entry->text, name, len);
  entry->len = static_cast<std::uint32_t>(len);
  count_ref.store(id + 1, std::memory_order_release);
  name_ids_.emplace(name, static_cast<std::uint16_t>(id));
  return static_cast<std::uint16_t>(id);
}

void FlightRecorder::record(std::uint16_t kind, const char* name,
                            std::int64_t a, std::int64_t b) {
  if (map_ == nullptr) return;
  ThreadCache& tc = local_cache();
  if (tc.generation != generation_) {
    tc.generation = generation_;
    tc.tid = next_tid_.fetch_add(1, std::memory_order_relaxed);
    tc.lane = tc.tid % opts_.lanes;
    tc.names.clear();
  }
  std::uint16_t name_id;
  const auto it = tc.names.find(name);
  if (it != tc.names.end()) {
    name_id = it->second;
  } else {
    name_id = intern(name);
    tc.names.emplace(name, name_id);
  }

  auto* header = reinterpret_cast<Header*>(map_);
  const std::uint64_t seq =
      1 + std::atomic_ref<std::uint64_t>(header->seq)
              .fetch_add(1, std::memory_order_relaxed);

  unsigned char* lane = map_ + lanes_offset(opts_) + tc.lane * lane_stride(opts_);
  const std::uint64_t cursor =
      std::atomic_ref<std::uint64_t>(*reinterpret_cast<std::uint64_t*>(lane))
          .fetch_add(1, std::memory_order_relaxed);
  auto* slot = reinterpret_cast<Slot*>(
      lane + kLaneHeaderBytes + (cursor % opts_.lane_capacity) * kSlotBytes);

  slot->seq = seq;
  slot->ts_ns = steady_ns() - epoch_ns_;
  slot->a = a;
  slot->b = b;
  slot->tid = tc.tid;
  slot->kind = kind;
  slot->name_id = name_id;
  std::memset(slot->pad, 0, sizeof(slot->pad));
  // The release store keeps the CRC from being reordered before the field
  // stores: a reader (or a post-SIGKILL decoder) that sees a matching CRC
  // sees the fields it covers.
  std::atomic_ref<std::uint32_t>(slot->crc).store(
      util::crc32(slot, offsetof(Slot, crc)), std::memory_order_release);
}

const char* kind_name(std::uint16_t kind) {
  switch (kind) {
    case kSpanEnter: return "span_enter";
    case kSpanExit: return "span_exit";
    case kCounterDelta: return "counter";
    case kHealth: return "health";
    case kJobState: return "job_state";
    case kMark: return "mark";
  }
  return "?";
}

namespace {

std::atomic<FlightRecorder*> g_blackbox{nullptr};

}  // namespace

void install_blackbox(FlightRecorder* r) {
  g_blackbox.store(r, std::memory_order_release);
  trace::set_sinks(trace::kRecorderSink, r != nullptr);
}

void uninstall_blackbox() {
  trace::set_sinks(trace::kRecorderSink, false);
  g_blackbox.store(nullptr, std::memory_order_release);
}

FlightRecorder* installed_blackbox() {
  return g_blackbox.load(std::memory_order_acquire);
}

void note_health(const char* field, int step, double max_abs) {
  FlightRecorder* r = g_blackbox.load(std::memory_order_acquire);
  if (r != nullptr) {
    r->record(kHealth, field, std::bit_cast<std::int64_t>(max_abs), step);
  }
}

void note_job_state(const char* state, int shot, int level) {
  FlightRecorder* r = g_blackbox.load(std::memory_order_acquire);
  if (r != nullptr) r->record(kJobState, state, shot, level);
}

namespace {

/// Decode guts: header + geometry validation, slot CRC triage, seq sort,
/// open-span replay. Throws io::CorruptFileError per the header contract.
BlackboxContents decode(const std::string& path) {
  const std::vector<std::uint8_t> bytes = io::read_file(path);
  if (bytes.size() < kHeaderBytes) {
    throw io::CorruptFileError(path, "black box shorter than its header");
  }

  Header h{};
  std::memcpy(&h, bytes.data(), sizeof(h));
  if (h.magic != kMagic) throw io::CorruptFileError(path, "bad TFBR magic");
  if (h.version != kVersion) {
    throw io::CorruptFileError(
        path, "unsupported TFBR version " + std::to_string(h.version));
  }
  if (h.header_crc != util::crc32(bytes.data(), kCrcCoveredHeaderBytes)) {
    throw io::CorruptFileError(path, "TFBR header CRC mismatch");
  }
  if (h.slot_bytes != kSlotBytes || h.lanes == 0 || h.lanes > 1024 ||
      h.lane_capacity == 0 || h.lane_capacity > (1u << 20) ||
      h.name_capacity == 0 || h.name_capacity > (1u << 16)) {
    throw io::CorruptFileError(path, "implausible TFBR geometry");
  }
  FlightRecorder::Options g;
  g.lanes = h.lanes;
  g.lane_capacity = h.lane_capacity;
  g.name_capacity = h.name_capacity;
  g.shot = h.shot;
  if (bytes.size() != file_bytes(g)) {
    throw io::CorruptFileError(
        path, "TFBR size does not match its geometry (" +
                  std::to_string(bytes.size()) + " != " +
                  std::to_string(file_bytes(g)) + " bytes)");
  }

  std::vector<std::string> names;
  const std::uint32_t n_names = std::min(h.name_count, h.name_capacity);
  names.reserve(n_names);
  for (std::uint32_t i = 0; i < n_names; ++i) {
    NameEntry e{};
    std::memcpy(&e, bytes.data() + names_offset() + i * kNameEntryBytes,
                sizeof(e));
    names.emplace_back(e.text, std::min<std::size_t>(e.len, kNameTextBytes));
  }

  BlackboxContents out;
  out.geom = g;
  out.total_recorded = h.seq;
  for (std::uint32_t lane = 0; lane < g.lanes; ++lane) {
    const unsigned char* base =
        bytes.data() + lanes_offset(g) + lane * lane_stride(g);
    for (std::uint32_t i = 0; i < g.lane_capacity; ++i) {
      Slot s{};
      std::memcpy(&s, base + kLaneHeaderBytes + i * kSlotBytes, sizeof(s));
      if (s.seq == 0) continue;  // never written
      if (s.crc != util::crc32(&s, offsetof(Slot, crc))) {
        ++out.torn_slots;  // the record in flight at death
        continue;
      }
      BlackboxEvent ev;
      ev.seq = s.seq;
      ev.ts_ns = s.ts_ns;
      ev.kind = s.kind;
      ev.name = s.name_id < names.size() ? names[s.name_id] : "?";
      ev.tid = s.tid;
      ev.a = s.a;
      ev.b = s.b;
      out.events.push_back(std::move(ev));
    }
  }
  std::sort(out.events.begin(), out.events.end(),
            [](const BlackboxEvent& a, const BlackboxEvent& b) {
              return a.seq < b.seq;
            });
  for (std::size_t i = 1; i < out.events.size(); ++i) {
    if (out.events[i].seq == out.events[i - 1].seq) {
      throw io::CorruptFileError(
          path, "duplicate TFBR sequence number " +
                    std::to_string(out.events[i].seq));
    }
  }

  // Open spans at death: replay the surviving tail per thread. Enters whose
  // exit was overwritten by ring wrap would look open forever, so an exit
  // with no matching enter (wrap) simply clears nothing; leftovers on each
  // stack are the spans genuinely entered and never exited.
  std::map<std::uint32_t, std::vector<std::string>> stacks;
  for (const BlackboxEvent& ev : out.events) {
    auto& stack = stacks[ev.tid];
    if (ev.kind == kSpanEnter) {
      stack.push_back(ev.name);
    } else if (ev.kind == kSpanExit) {
      const auto it = std::find(stack.rbegin(), stack.rend(), ev.name);
      if (it != stack.rend()) stack.erase(std::next(it).base());
    }
  }
  for (const auto& [tid, stack] : stacks) {
    out.open_spans.insert(out.open_spans.end(), stack.begin(), stack.end());
  }
  return out;
}

}  // namespace

BlackboxContents read_blackbox(const std::string& path) {
  return decode(path);
}

bool verify_blackbox(const std::string& path, std::string* error) {
  try {
    const BlackboxContents c = decode(path);
    if (c.torn_slots > c.geom.lanes) {
      if (error != nullptr) {
        *error = std::to_string(c.torn_slots) + " torn slots exceeds " +
                 std::to_string(c.geom.lanes) + " writer lanes";
      }
      return false;
    }
  } catch (const std::exception& e) {
    if (error != nullptr) *error = e.what();
    return false;
  }
  if (error != nullptr) error->clear();
  return true;
}

}  // namespace tempest::obs
