#include "noc/network.hh"

#include <algorithm>

#include "sim/log.hh"

namespace ih
{

Network::Network(const SysConfig &cfg, const Topology &topo)
    : cfg_(cfg), topo_(topo), router_(topo), tiles_(topo.numTiles()),
      link_free_(static_cast<std::size_t>(tiles_) * 4, 0),
      stats_("noc"),
      statPackets_(stats_.counter("packets")),
      statFlits_(stats_.counter("flits")),
      statIsolationViolations_(stats_.counter("isolation_violations")),
      statLinkStallCycles_(stats_.counter("link_stall_cycles")),
      statTotalLatency_(stats_.counter("total_latency"))
{
    // Link sequences store directed-link indices as 16-bit values.
    IH_ASSERT(static_cast<std::size_t>(tiles_) * 4 <= 0x10000,
              "%u tiles exceed the route plans' 16-bit link indices",
              tiles_);
}

Cycle
Network::unloadedLatency(CoreId src, CoreId dst) const
{
    return static_cast<Cycle>(topo_.hopDistance(src, dst)) *
           cfg_.hopLatency;
}

Network::RoutePlan &
Network::findPlan(const ClusterRange &cluster)
{
    for (const auto &plan : plans_) {
        if (plan->cluster.first == cluster.first &&
            plan->cluster.count == cluster.count) {
            lastPlan_ = plan.get();
            return *lastPlan_;
        }
    }
    plans_.push_back(std::make_unique<RoutePlan>(RoutePlan{
        cluster,
        std::vector<std::uint32_t>(static_cast<std::size_t>(tiles_) * tiles_,
                                   PLAN_UNSET),
        {}}));
    lastPlan_ = plans_.back().get();
    return *lastPlan_;
}

std::uint32_t
Network::fillRoute(RoutePlan &plan, CoreId src, CoreId dst)
{
    const RouteOrder order = router_.selectOrder(src, plan.cluster);
    std::uint32_t bits = order == RouteOrder::YX ? PLAN_YX : 0;
    if (!router_.orderedRouteContained(src, dst, order, plan.cluster))
        bits |= PLAN_LEAVES;
    const std::size_t offset = plan.links.size();
    // The top offset is reserved: its entry would read as PLAN_UNSET.
    IH_ASSERT(offset + 1 < (std::size_t(1) << 30), "route plan overflow");
    plan.links.push_back(0); // hop count, set below
    router_.forEachLink(src, dst, order,
                        [&](CoreId from, CoreId, Router::Direction dir) {
                            plan.links.push_back(static_cast<std::uint16_t>(
                                static_cast<std::size_t>(from) * 4 + dir));
                        });
    plan.links[offset] =
        static_cast<std::uint16_t>(plan.links.size() - offset - 1);
    const std::uint32_t route =
        static_cast<std::uint32_t>(offset) << 2 | bits;
    plan.entries[static_cast<std::size_t>(src) * tiles_ + dst] = route;
    return route;
}

std::vector<unsigned>
Network::routeLinks(CoreId src, CoreId dst, const ClusterRange &cluster)
{
    RoutePlan &plan = planFor(cluster);
    const std::uint32_t route = routeOf(plan, src, dst);
    const std::uint16_t *const seq = plan.links.data() + (route >> 2);
    return std::vector<unsigned>(seq + 1, seq + 1 + seq[0]);
}

void
Network::resetLinkState()
{
    std::fill(link_free_.begin(), link_free_.end(), 0);
}

ClusterRange
Network::wholeMachine() const
{
    return ClusterRange{0, topo_.numTiles()};
}

} // namespace ih
