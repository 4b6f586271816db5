#include "tempest/io/io.hpp"

#include <cmath>
#include <cstdint>
#include <fstream>
#include <string>

#include "tempest/util/error.hpp"

namespace tempest::io {

namespace {

constexpr std::uint32_t kGatherMagic = 0x54504731;  // "TPG1"

}  // namespace

void put_gather(RecordWriter& w, const sparse::SparseTimeSeries& gather) {
  w.put(static_cast<std::int32_t>(gather.nt()));
  w.put(static_cast<std::int32_t>(gather.npoints()));
  for (const sparse::Coord3& c : gather.coords()) {
    w.put(c.x);
    w.put(c.y);
    w.put(c.z);
  }
  w.bytes(gather.samples().data(), gather.samples().size_bytes());
}

sparse::SparseTimeSeries get_gather(RecordReader& r) {
  const int nt = r.get<std::int32_t>();
  const int npoints = r.get<std::int32_t>();
  if (nt <= 0 || npoints < 0) {
    r.fail("implausible gather header: nt " + std::to_string(nt) +
           ", npoints " + std::to_string(npoints));
  }
  sparse::CoordList coords(
      r.count(static_cast<std::uint64_t>(npoints), 3 * sizeof(double),
              "gather coordinates"));
  for (std::size_t p = 0; p < coords.size(); ++p) {
    sparse::Coord3& c = coords[p];
    c.x = r.get<double>();
    c.y = r.get<double>();
    c.z = r.get<double>();
    if (!std::isfinite(c.x) || !std::isfinite(c.y) || !std::isfinite(c.z)) {
      r.fail("non-finite coordinate of point " + std::to_string(p));
    }
  }
  (void)r.count(static_cast<std::uint64_t>(nt) * coords.size(),
                sizeof(real_t), "gather samples");
  sparse::SparseTimeSeries gather(std::move(coords), nt);
  r.bytes(gather.samples().data(), gather.samples().size_bytes());
  return gather;
}

void save_gather(const std::string& path,
                 const sparse::SparseTimeSeries& gather) {
  std::ofstream os(path, std::ios::binary);
  TEMPEST_REQUIRE_MSG(os.is_open(), "cannot open for writing: " + path);
  RecordWriter w(os);
  w.put(kGatherMagic);
  put_gather(w, gather);
  TEMPEST_REQUIRE_MSG(static_cast<bool>(os), "write failed: " + path);
}

sparse::SparseTimeSeries load_gather(const std::string& path) {
  const std::vector<std::uint8_t> buf = read_file(path);
  RecordReader r(path, buf);
  r.magic(kGatherMagic, "gather");
  sparse::SparseTimeSeries gather = get_gather(r);
  if (r.remaining() != 0) {
    r.fail(std::to_string(r.remaining()) +
           " bytes follow the gather payload — corrupted");
  }
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
