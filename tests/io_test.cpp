#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "tempest/io/io.hpp"
#include "tempest/resilience/checkpoint.hpp"
#include "tempest/util/rng.hpp"

namespace io = tempest::io;
namespace tg = tempest::grid;
namespace sp = tempest::sparse;
using tempest::real_t;

namespace {

/// Temp path helper with cleanup.
class TempFile {
 public:
  // ctest runs each TEST as its own process, so the counter alone is not
  // unique — qualify with the pid.
  explicit TempFile(const char* suffix)
      : path_(std::string("/tmp/tempest_io_test_") +
              std::to_string(::getpid()) + "_" + std::to_string(counter_++) +
              suffix) {}
  ~TempFile() { std::remove(path_.c_str()); }
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  static int counter_;
  std::string path_;
};
int TempFile::counter_ = 0;

tg::Grid3<real_t> random_field(tg::Extents3 e, int halo,
                               std::uint64_t seed) {
  tempest::util::SplitMix64 rng(seed);
  tg::Grid3<real_t> f(e, halo);
  // Fill the *padded* volume, halos included, through raw() so the round
  // trip check covers everything.
  for (std::size_t i = 0; i < f.padded_size(); ++i) {
    f.raw()[i] = static_cast<real_t>(rng.uniform(-1, 1));
  }
  return f;
}

}  // namespace

TEST(IoGather, SizeMismatchAndCorruptErrorsAreTyped) {
  TempFile file(".tpg");
  sp::SparseTimeSeries g({{1.5, 2.25, 3.125}, {9.75, 8.5, 7.0625}}, 6);
  io::save_gather(file.path(), g);
  // Append junk: the file is now larger than the header declares.
  {
    std::ofstream os(file.path(), std::ios::binary | std::ios::app);
    os << "trailing junk";
  }
  EXPECT_THROW((void)io::load_gather(file.path()), io::CorruptFileError);
  // CorruptFileError IS-A PreconditionError, so existing catch sites and
  // tests keep working unchanged.
  EXPECT_THROW((void)io::load_gather(file.path()),
               tempest::util::PreconditionError);
}

TEST(IoGather, NonFiniteCoordinateIsCorrupt) {
  TempFile file(".tpg");
  sp::SparseTimeSeries g(
      {{1.5, 2.25, 3.125},
       {9.75, std::numeric_limits<double>::quiet_NaN(), 7.0625}},
      4);
  io::save_gather(file.path(), g);
  EXPECT_THROW((void)io::load_gather(file.path()), io::CorruptFileError);
}

TEST(IoGather, RejectsUnwritablePath) {
  const sp::SparseTimeSeries g({{1, 1, 1}}, 2);
  EXPECT_THROW(io::save_gather("/nonexistent-dir/x.tpg", g),
               tempest::util::PreconditionError);
  EXPECT_THROW((void)io::load_gather("/nonexistent-dir/x.tpg"),
               io::CorruptFileError);
}

TEST(IoGather, RoundTripPreservesCoordsAndData) {
  TempFile file(".tpg");
  sp::SparseTimeSeries g({{1.5, 2.25, 3.125}, {9.75, 8.5, 7.0625}}, 6);
  for (int t = 0; t < 6; ++t) {
    for (int r = 0; r < 2; ++r) {
      g.at(t, r) = static_cast<real_t>(t * 10 + r + 0.5);
    }
  }
  io::save_gather(file.path(), g);
  const auto loaded = io::load_gather(file.path());
  ASSERT_EQ(loaded.nt(), g.nt());
  ASSERT_EQ(loaded.npoints(), g.npoints());
  EXPECT_EQ(loaded.coords(), g.coords());
  for (int t = 0; t < 6; ++t) {
    for (int r = 0; r < 2; ++r) {
      EXPECT_EQ(loaded.at(t, r), g.at(t, r));
    }
  }
}

TEST(IoGather, GatherAndCheckpointFormatsAreDistinct) {
  // The gather section is the same bytes in both formats; the magic (and
  // the checkpoint's CRC trailer) keep either file from decoding as the
  // other.
  sp::SparseTimeSeries g({{1.5, 2.25, 3.125}}, 2);
  TempFile ckfile(".tpck");
  tempest::resilience::Checkpoint ck;
  ck.slots.push_back(random_field({4, 4, 4}, 1, 1));
  ck.has_rec = true;
  ck.rec = g;
  tempest::resilience::Checkpointer(ckfile.path()).save(ck);
  try {
    (void)io::load_gather(ckfile.path());
    FAIL() << "a checkpoint must not load as a gather";
  } catch (const io::CorruptFileError& err) {
    EXPECT_NE(std::string(err.what()).find("bad gather magic"),
              std::string::npos)
        << err.what();
  }

  TempFile gfile(".tpg");
  io::save_gather(gfile.path(), g);
  EXPECT_THROW((void)tempest::resilience::Checkpointer(gfile.path()).load(),
               io::CorruptFileError);
}

TEST(IoGather, DeclaredCountsAreCheckedBeforeAllocation) {
  // A 12-byte header declaring 2^30 points over nt 2^30: allocating first
  // would ask for 4 EiB of samples.
  TempFile file(".tpg");
  {
    std::ofstream os(file.path(), std::ios::binary);
    const std::uint32_t magic = 0x54504731;  // "TPG1"
    const std::int32_t nt = 1 << 30, npoints = 1 << 30;
    os.write(reinterpret_cast<const char*>(&magic), 4);
    os.write(reinterpret_cast<const char*>(&nt), 4);
    os.write(reinterpret_cast<const char*>(&npoints), 4);
  }
  try {
    (void)io::load_gather(file.path());
    FAIL() << "a lying point count must be rejected";
  } catch (const io::CorruptFileError& err) {
    EXPECT_EQ(err.path(), file.path());
    EXPECT_NE(std::string(err.what()).find("gather coordinates declares"),
              std::string::npos)
        << err.what();
  }
}

TEST(IoCsv, GatherCsvShape) {
  TempFile file(".csv");
  sp::SparseTimeSeries g({{1, 1, 1}, {2, 2, 2}, {3, 3, 3}}, 4);
  g.at(2, 1) = 7.5f;
  io::save_gather_csv(file.path(), g, 0.5);
  std::ifstream is(file.path());
  std::string header;
  std::getline(is, header);
  EXPECT_EQ(header, "t_ms,rec0,rec1,rec2");
  std::string line;
  int rows = 0;
  std::string third;
  while (std::getline(is, line)) {
    if (rows == 2) third = line;
    ++rows;
  }
  EXPECT_EQ(rows, 4);
  EXPECT_EQ(third, "1,0,7.5,0");  // t = 2 * 0.5 ms
}

TEST(IoCsv, SliceCsvShapeAndBounds) {
  TempFile file(".csv");
  tg::Grid3<real_t> f({3, 2, 4}, 0, 0.0f);
  f(1, 1, 2) = 9.0f;
  io::save_slice_csv(file.path(), f, 1);
  std::ifstream is(file.path());
  std::string line;
  int rows = -1;  // header
  bool found = false;
  while (std::getline(is, line)) {
    ++rows;
    found = found || line == "1,2,9";
  }
  EXPECT_EQ(rows, 3 * 4);
  EXPECT_TRUE(found);
  EXPECT_THROW(io::save_slice_csv(file.path(), f, 5),
               tempest::util::PreconditionError);
}

TEST(IoReadFile, ReturnsEveryByteInOrder) {
  TempFile f(".bin");
  std::vector<std::uint8_t> want(70000);
  tempest::util::SplitMix64 rng(7);
  for (std::uint8_t& b : want) b = static_cast<std::uint8_t>(rng.next());
  want[0] = 0;  // embedded zeros and 0x1A must not end the read
  want[1] = 0x1A;
  {
    std::ofstream os(f.path(), std::ios::binary);
    os.write(reinterpret_cast<const char*>(want.data()),
             static_cast<std::streamsize>(want.size()));
  }
  EXPECT_EQ(io::read_file(f.path()), want);
}

TEST(IoReadFile, EmptyFileIsEmpty) {
  TempFile f(".bin");
  { std::ofstream os(f.path(), std::ios::binary); }
  EXPECT_TRUE(io::read_file(f.path()).empty());
}

TEST(IoReadFile, MissingFileIsATypedError) {
  TempFile f(".bin");
  try {
    (void)io::read_file(f.path());
    FAIL() << "reading a missing file must throw";
  } catch (const io::CorruptFileError& e) {
    EXPECT_EQ(e.path(), f.path());
    EXPECT_NE(std::string(e.what()).find("cannot open"), std::string::npos);
  }
}

TEST(IoReadFile, DirectoryIsATypedError) {
  TempFile dir(".d");  // std::remove deletes the empty directory too
  ASSERT_TRUE(std::filesystem::create_directory(dir.path()));
  EXPECT_THROW((void)io::read_file(dir.path()), io::CorruptFileError);
}
