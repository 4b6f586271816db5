#pragma once

#include <string>

#include "tempest/config.hpp"
#include "tempest/grid/grid3.hpp"
#include "tempest/io/record.hpp"
#include "tempest/sparse/series.hpp"

namespace tempest::io {

/// Persistence for shot gathers: TPG1, a tagged host-endian binary file
/// (magic + gather section) for exact round trips, plus CSV export for
/// plotting.

/// The gather section TPG1 and TPCK checkpoints share: i32 nt, i32
/// npoints, npoints x {f64 x, y, z}, then nt rows of npoints samples.
/// get_gather checks each declared count against the bytes left before
/// allocating for it, and rejects a non-finite coordinate.
void put_gather(RecordWriter& w, const sparse::SparseTimeSeries& gather);
[[nodiscard]] sparse::SparseTimeSeries get_gather(RecordReader& r);

/// Save/load a TPG1 gather file: the "TPG1" magic, then the gather
/// section, and nothing after it. load_gather decodes one read_file()
/// image and throws CorruptFileError for a wrong magic, a bad section, or
/// bytes left over.
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
