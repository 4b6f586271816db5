#include "tempest/io/io.hpp"

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "tempest/util/error.hpp"

namespace tempest::io {

namespace {

constexpr std::uint32_t kFieldMagic = 0x54504631;   // "TPF1"
constexpr std::uint32_t kGatherMagic = 0x54504731;  // "TPG1"

/// Dimension sanity bounds: a garbage header must not be able to request a
/// multi-terabyte allocation before the size cross-check runs.
constexpr int kMaxExtent = 1 << 20;
constexpr int kMaxHalo = 1 << 10;
constexpr int kMaxPoints = 1 << 28;

template <typename T>
void write_pod(std::ostream& os, const T& v) {
  os.write(reinterpret_cast<const char*>(&v), sizeof(T));
}

template <typename T>
T read_pod(std::istream& is) {
  T v{};
  is.read(reinterpret_cast<char*>(&v), sizeof(T));
  TEMPEST_REQUIRE_MSG(static_cast<bool>(is), "truncated file");
  return v;
}

/// Actual on-disk size, for validating declared payloads before allocating.
std::uintmax_t file_size_of(const std::string& path) {
  std::error_code ec;
  const std::uintmax_t size = std::filesystem::file_size(path, ec);
  if (ec) throw CorruptFileError(path, "cannot stat: " + ec.message());
  return size;
}

[[noreturn]] void throw_size_mismatch(const std::string& path,
                                      const char* kind,
                                      std::uintmax_t expected,
                                      std::uintmax_t actual) {
  std::ostringstream os;
  os << kind << " declares " << expected << " bytes but the file holds "
     << actual << " — truncated or corrupted";
  throw CorruptFileError(path, os.str());
}

std::ofstream open_out(const std::string& path) {
  std::ofstream os(path, std::ios::binary);
  TEMPEST_REQUIRE_MSG(os.is_open(), "cannot open for writing: " + path);
  return os;
}

std::ifstream open_in(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  TEMPEST_REQUIRE_MSG(is.is_open(), "cannot open for reading: " + path);
  return is;
}

}  // namespace

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

void save_field(const std::string& path, const grid::Grid3<real_t>& field) {
  auto os = open_out(path);
  write_pod(os, kFieldMagic);
  write_pod(os, static_cast<std::int32_t>(field.extents().nx));
  write_pod(os, static_cast<std::int32_t>(field.extents().ny));
  write_pod(os, static_cast<std::int32_t>(field.extents().nz));
  write_pod(os, static_cast<std::int32_t>(field.halo()));
  os.write(reinterpret_cast<const char*>(field.raw()),
           static_cast<std::streamsize>(field.padded_size() * sizeof(real_t)));
  TEMPEST_REQUIRE_MSG(static_cast<bool>(os), "write failed: " + path);
}

grid::Grid3<real_t> load_field(const std::string& path) {
  constexpr std::uintmax_t kHeader = 5 * sizeof(std::uint32_t);
  const std::uintmax_t actual = file_size_of(path);
  if (actual < kHeader) {
    throw CorruptFileError(path, "too small to hold a field header (" +
                                     std::to_string(actual) + " bytes)");
  }
  auto is = open_in(path);
  if (read_pod<std::uint32_t>(is) != kFieldMagic) {
    throw CorruptFileError(path, "bad magic — not a tempest field file");
  }
  const int nx = read_pod<std::int32_t>(is);
  const int ny = read_pod<std::int32_t>(is);
  const int nz = read_pod<std::int32_t>(is);
  const int halo = read_pod<std::int32_t>(is);
  if (nx <= 0 || ny <= 0 || nz <= 0 || nx > kMaxExtent || ny > kMaxExtent ||
      nz > kMaxExtent || halo < 0 || halo > kMaxHalo) {
    std::ostringstream os;
    os << "implausible field header: extents (" << nx << ", " << ny << ", "
       << nz << "), halo " << halo;
    throw CorruptFileError(path, os.str());
  }
  const std::uintmax_t padded =
      static_cast<std::uintmax_t>(nx + 2 * halo) *
      static_cast<std::uintmax_t>(ny + 2 * halo) *
      static_cast<std::uintmax_t>(nz + 2 * halo);
  const std::uintmax_t expected = kHeader + padded * sizeof(real_t);
  if (expected != actual) {
    throw_size_mismatch(path, "field header", expected, actual);
  }
  grid::Grid3<real_t> field({nx, ny, nz}, halo);
  is.read(reinterpret_cast<char*>(field.raw()),
          static_cast<std::streamsize>(field.padded_size() * sizeof(real_t)));
  TEMPEST_REQUIRE_MSG(static_cast<bool>(is), "truncated field payload");
  return field;
}

void save_gather(const std::string& path,
                 const sparse::SparseTimeSeries& gather) {
  auto os = open_out(path);
  write_pod(os, kGatherMagic);
  write_pod(os, static_cast<std::int32_t>(gather.nt()));
  write_pod(os, static_cast<std::int32_t>(gather.npoints()));
  for (const sparse::Coord3& c : gather.coords()) {
    write_pod(os, c.x);
    write_pod(os, c.y);
    write_pod(os, c.z);
  }
  for (int t = 0; t < gather.nt(); ++t) {
    const auto step = gather.step(t);
    os.write(reinterpret_cast<const char*>(step.data()),
             static_cast<std::streamsize>(step.size() * sizeof(real_t)));
  }
  TEMPEST_REQUIRE_MSG(static_cast<bool>(os), "write failed: " + path);
}

sparse::SparseTimeSeries load_gather(const std::string& path) {
  constexpr std::uintmax_t kHeader = 3 * sizeof(std::uint32_t);
  const std::uintmax_t actual = file_size_of(path);
  if (actual < kHeader) {
    throw CorruptFileError(path, "too small to hold a gather header (" +
                                     std::to_string(actual) + " bytes)");
  }
  auto is = open_in(path);
  if (read_pod<std::uint32_t>(is) != kGatherMagic) {
    throw CorruptFileError(path, "bad magic — not a tempest gather file");
  }
  const int nt = read_pod<std::int32_t>(is);
  const int npoints = read_pod<std::int32_t>(is);
  if (nt <= 0 || npoints < 0 || npoints > kMaxPoints) {
    std::ostringstream os;
    os << "implausible gather header: nt " << nt << ", npoints " << npoints;
    throw CorruptFileError(path, os.str());
  }
  const std::uintmax_t expected =
      kHeader +
      static_cast<std::uintmax_t>(npoints) * 3 * sizeof(double) +
      static_cast<std::uintmax_t>(nt) * static_cast<std::uintmax_t>(npoints) *
          sizeof(real_t);
  if (expected != actual) {
    throw_size_mismatch(path, "gather header", expected, actual);
  }
  sparse::CoordList coords(static_cast<std::size_t>(npoints));
  for (sparse::Coord3& c : coords) {
    c.x = read_pod<double>(is);
    c.y = read_pod<double>(is);
    c.z = read_pod<double>(is);
  }
  sparse::SparseTimeSeries gather(std::move(coords), nt);
  for (int t = 0; t < nt; ++t) {
    auto step = gather.step(t);
    is.read(reinterpret_cast<char*>(step.data()),
            static_cast<std::streamsize>(step.size() * sizeof(real_t)));
  }
  TEMPEST_REQUIRE_MSG(static_cast<bool>(is), "truncated gather payload");
  return gather;
}

void save_gather_csv(const std::string& path,
                     const sparse::SparseTimeSeries& gather, double dt_ms) {
  std::ofstream os(path);
  TEMPEST_REQUIRE_MSG(os.is_open(), "cannot open for writing: " + path);
  os << "t_ms";
  for (int r = 0; r < gather.npoints(); ++r) os << ",rec" << r;
  os << "\n";
  for (int t = 0; t < gather.nt(); ++t) {
    os << t * dt_ms;
    for (int r = 0; r < gather.npoints(); ++r) os << ',' << gather.at(t, r);
    os << "\n";
  }
}

void save_slice_csv(const std::string& path,
                    const grid::Grid3<real_t>& field, int y) {
  TEMPEST_REQUIRE(y >= 0 && y < field.extents().ny);
  std::ofstream os(path);
  TEMPEST_REQUIRE_MSG(os.is_open(), "cannot open for writing: " + path);
  os << "x,z,value\n";
  for (int x = 0; x < field.extents().nx; ++x) {
    for (int z = 0; z < field.extents().nz; ++z) {
      os << x << ',' << z << ',' << field(x, y, z) << "\n";
    }
  }
}

}  // namespace tempest::io
