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
    coords_.reserve(tiles_);
    for (CoreId t = 0; t < tiles_; ++t)
        coords_.push_back(topo.coordOf(t));
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
        cluster, std::vector<std::uint8_t>(
                     static_cast<std::size_t>(tiles_) * tiles_,
                     PLAN_UNSET)}));
    lastPlan_ = plans_.back().get();
    return *lastPlan_;
}

std::uint8_t
Network::fillRoute(RoutePlan &plan, CoreId src, CoreId dst)
{
    const RouteOrder order = router_.selectOrder(src, plan.cluster);
    std::uint8_t route = order == RouteOrder::YX ? PLAN_YX : 0;
    if (!router_.orderedRouteContained(src, dst, order, plan.cluster))
        route |= PLAN_LEAVES;
    plan.entries[static_cast<std::size_t>(src) * tiles_ + dst] = route;
    return route;
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
