#include "tempest/core/tile_graph.hpp"

#include <string>

#include "tempest/util/error.hpp"

namespace tempest::core::engine {

TileGraph TileGraph::derive(const analysis::AccessSummary& kernel,
                            const analysis::ScheduleDescriptor& sched,
                            bool sources, bool receivers,
                            const TileSpec& tiles, bool verify) {
  TEMPEST_REQUIRE(tiles.valid());
  TEMPEST_REQUIRE_MSG(sched.time_tiled(),
                      "TileGraph gates temporally blocked bands; barrier "
                      "plans are legal by construction");
  TEMPEST_REQUIRE_MSG(kernel.write_radius == 0,
                      "task-parallel tiles require a point-local write "
                      "footprint: kernel '" + kernel.kernel + "' declares "
                      "write_radius=" + std::to_string(kernel.write_radius) +
                      ", so adjacent concurrent tiles would race on the "
                      "scattered writes");

  // The exact nest the executor implements (stage 2: precomputed, fused,
  // compressed), analyzed by the same machinery that proves the schedule
  // legal. An illegal schedule throws here, before any task exists.
  if (verify) {
    analysis::require_legal(analysis::verify_canonical(
        kernel, /*stage=*/2, sources, receivers, sched));
  }
  return {};
}

}  // namespace tempest::core::engine
