#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "tempest/io/io.hpp"
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

TEST(IoField, RoundTripIsBitExact) {
  TempFile file(".tpf");
  const auto original = random_field({7, 5, 9}, 3, 42);
  io::save_field(file.path(), original);
  const auto loaded = io::load_field(file.path());
  ASSERT_EQ(loaded.extents(), original.extents());
  ASSERT_EQ(loaded.halo(), original.halo());
  ASSERT_EQ(loaded.padded_size(), original.padded_size());
  for (std::size_t i = 0; i < original.padded_size(); ++i) {
    ASSERT_EQ(loaded.raw()[i], original.raw()[i]) << "byte offset " << i;
  }
}

TEST(IoField, RejectsWrongMagicAndTruncation) {
  TempFile file(".tpf");
  {
    std::ofstream os(file.path(), std::ios::binary);
    os << "garbage data, definitely not a field";
  }
  EXPECT_THROW((void)io::load_field(file.path()),
               tempest::util::PreconditionError);

  // Valid header, truncated payload.
  const auto f = random_field({8, 8, 8}, 2, 7);
  io::save_field(file.path(), f);
  {
    std::ifstream is(file.path(), std::ios::binary);
    std::string content((std::istreambuf_iterator<char>(is)),
                        std::istreambuf_iterator<char>());
    content.resize(content.size() / 2);
    std::ofstream os(file.path(), std::ios::binary | std::ios::trunc);
    os << content;
  }
  EXPECT_THROW((void)io::load_field(file.path()),
               tempest::util::PreconditionError);
}

TEST(IoField, CorruptionReportsTypedDescriptiveErrors) {
  TempFile file(".tpf");
  const auto f = random_field({8, 8, 8}, 2, 7);
  io::save_field(file.path(), f);

  // Truncated payload: the declared size no longer matches the file.
  std::string bytes;
  {
    std::ifstream is(file.path(), std::ios::binary);
    bytes.assign((std::istreambuf_iterator<char>(is)),
                 std::istreambuf_iterator<char>());
  }
  {
    std::ofstream os(file.path(), std::ios::binary | std::ios::trunc);
    os.write(bytes.data(), static_cast<std::streamsize>(bytes.size() - 64));
  }
  try {
    (void)io::load_field(file.path());
    FAIL() << "truncated field must be rejected";
  } catch (const io::CorruptFileError& err) {
    const std::string msg = err.what();
    EXPECT_EQ(err.path(), file.path());
    EXPECT_NE(msg.find(file.path()), std::string::npos) << msg;
    EXPECT_NE(msg.find("declares"), std::string::npos) << msg;
    EXPECT_NE(msg.find("truncated or corrupted"), std::string::npos) << msg;
  }

  // Wrong magic names the format, not just "bad file".
  {
    std::ofstream os(file.path(), std::ios::binary | std::ios::trunc);
    os << "XXXXgarbage that is long enough to clear the header check......";
  }
  try {
    (void)io::load_field(file.path());
    FAIL() << "bad magic must be rejected";
  } catch (const io::CorruptFileError& err) {
    EXPECT_NE(std::string(err.what()).find("bad magic"), std::string::npos);
  }
}

TEST(IoField, ImplausibleHeaderRejectedBeforeAllocation) {
  TempFile file(".tpf");
  // Hand-craft a header declaring absurd extents; without the sanity bound
  // this would attempt a terabyte allocation before any size check.
  {
    std::ofstream os(file.path(), std::ios::binary);
    const std::uint32_t magic = 0x54504631;  // "TPF1"
    const std::int32_t nx = 1 << 24, ny = 1 << 24, nz = 1 << 24, halo = 2;
    os.write(reinterpret_cast<const char*>(&magic), 4);
    os.write(reinterpret_cast<const char*>(&nx), 4);
    os.write(reinterpret_cast<const char*>(&ny), 4);
    os.write(reinterpret_cast<const char*>(&nz), 4);
    os.write(reinterpret_cast<const char*>(&halo), 4);
  }
  try {
    (void)io::load_field(file.path());
    FAIL() << "implausible header must be rejected";
  } catch (const io::CorruptFileError& err) {
    EXPECT_NE(std::string(err.what()).find("implausible field header"),
              std::string::npos);
  }
}

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

TEST(IoField, RejectsUnwritablePath) {
  const auto f = random_field({4, 4, 4}, 1, 3);
  EXPECT_THROW(io::save_field("/nonexistent-dir/x.tpf", f),
               tempest::util::PreconditionError);
  EXPECT_THROW((void)io::load_field("/nonexistent-dir/x.tpf"),
               tempest::util::PreconditionError);
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

TEST(IoGather, FieldAndGatherFormatsAreDistinct) {
  TempFile ffile(".tpf");
  const auto f = random_field({4, 4, 4}, 0, 1);
  io::save_field(ffile.path(), f);
  EXPECT_THROW((void)io::load_gather(ffile.path()),
               tempest::util::PreconditionError);

  TempFile gfile(".tpg");
  sp::SparseTimeSeries g({{1, 1, 1}}, 2);
  io::save_gather(gfile.path(), g);
  EXPECT_THROW((void)io::load_field(gfile.path()),
               tempest::util::PreconditionError);
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
