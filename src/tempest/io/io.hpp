#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "tempest/config.hpp"
#include "tempest/grid/grid3.hpp"
#include "tempest/sparse/series.hpp"
#include "tempest/util/error.hpp"

namespace tempest::io {

/// Thrown when a file fails structural validation before its payload is
/// trusted: wrong magic, nonsensical header values, or a declared payload
/// that disagrees with the actual file size (truncation/corruption). The
/// message names the path and exactly what mismatched. Derives from
/// PreconditionError so existing catch sites keep working.
class CorruptFileError : public util::PreconditionError {
 public:
  CorruptFileError(std::string path, const std::string& detail)
      : util::PreconditionError("corrupt file '" + path + "': " + detail),
        path_(std::move(path)) {}

  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// The whole file at `path`, read with one sized read — the loader every
/// CRC-framed reader (checkpoint, journal, black box) validates from.
/// Throws CorruptFileError when the file cannot be opened or yields fewer
/// bytes than its size.
[[nodiscard]] std::vector<std::uint8_t> read_file(const std::string& path);

/// Minimal persistence for fields and gathers: a tagged little-endian
/// binary container (magic + header + raw payload) for exact round trips,
/// plus CSV export for plotting. Wavefield snapshots, shot gathers and RTM
/// images all flow through here in the examples.

/// Save/load a field with its full geometry (extents + halo). The halo
/// contents are preserved exactly, so a loaded field is bitwise identical.
/// load_field validates magic, header sanity and payload length against the
/// actual file size before allocating; throws CorruptFileError otherwise.
void save_field(const std::string& path, const grid::Grid3<real_t>& field);
[[nodiscard]] grid::Grid3<real_t> load_field(const std::string& path);

/// Save/load a sparse time series (coordinates + the nt x npoints data).
/// load_gather performs the same pre-validation as load_field and throws
/// CorruptFileError for a non-finite coordinate.
void save_gather(const std::string& path,
                 const sparse::SparseTimeSeries& gather);
[[nodiscard]] sparse::SparseTimeSeries load_gather(const std::string& path);

/// CSV export of a gather: header "t_ms,rec0,rec1,..." then one row per
/// timestep. `dt_ms` scales the time column.
void save_gather_csv(const std::string& path,
                     const sparse::SparseTimeSeries& gather, double dt_ms);

/// CSV export of one y-slice of a field as (x, z, value) triplets — the
/// plotting format the RTM example uses for images.
void save_slice_csv(const std::string& path,
                    const grid::Grid3<real_t>& field, int y);

}  // namespace tempest::io
