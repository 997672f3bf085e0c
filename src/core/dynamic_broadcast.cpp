#include "core/dynamic_broadcast.hpp"

#include "core/state_hash.hpp"

namespace manet::core {

std::uint32_t BroadcastResult::latency_hops() const {
  std::uint32_t worst = 0;
  for (std::uint32_t h : first_copy_hops)
    if (h != std::numeric_limits<std::uint32_t>::max())
      worst = std::max(worst, h);
  return worst;
}

BroadcastResult dynamic_broadcast(const graph::Graph& g,
                                  const StaticBackbone& backbone,
                                  NodeId source,
                                  const DynamicBroadcastOptions& options) {
  MANET_REQUIRE(backbone.clustering.head_of.size() == g.order() &&
                    backbone.coverage.size() == g.order() &&
                    backbone.tables.ch_hop1.size() == g.order() &&
                    backbone.tables.ch_hop2.size() == g.order(),
                "backbone does not match graph");
  return dynamic_broadcast(g, BackboneRef(backbone), source, options);
}

}  // namespace manet::core
