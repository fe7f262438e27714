/**
 * @file
 * Timing and isolation accounting for the 2-D mesh network.
 *
 * The network charges a fixed per-hop latency plus contention: each
 * directed link keeps a next-free-time and packets reserve the links on
 * their path in order. The phase engine always advances the globally
 * earliest thread, so reservations arrive in (approximately) global
 * time order, which makes this classic analytic contention model
 * consistent.
 *
 * The network also owns the isolation bookkeeping: every traversal is
 * checked against the active cluster map and any route that leaves its
 * cluster is counted as an isolation violation (the property tests
 * require this counter to stay zero for IRONHIDE configurations).
 */

#ifndef IH_NOC_NETWORK_HH
#define IH_NOC_NETWORK_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "noc/routing.hh"
#include "noc/topology.hh"
#include "sim/stats.hh"

namespace ih
{

/** Mesh network timing model with cluster-isolation accounting. */
class Network
{
  public:
    Network(const SysConfig &cfg, const Topology &topo);

    /**
     * Send a packet of @p flits flits from tile @p src to tile @p dst,
     * injected at time @p when, using dimension order chosen for
     * @p cluster (pass the full-machine range when clustering is off).
     *
     * Defined inline (together with the router walk it calls) because
     * every L1 miss pays at least two traversals.
     *
     * @return arrival time at @p dst.
     */
    Cycle
    traverse(CoreId src, CoreId dst, Cycle when, unsigned flits,
             const ClusterRange &cluster)
    {
        // Local access: no network is involved, so no packet, flit or
        // latency counter moves (a src == dst "traversal" inflating the
        // traffic stats was a latent accounting bug).
        if (src == dst)
            return when;
        statPackets_.inc();
        statFlits_.inc(flits);
        return walkLeg(src, dst, when, flits, planFor(cluster));
    }

    /**
     * Round trip: request of @p req_flits then reply of @p rsp_flits.
     * Fused two-leg walk: the cluster's route plan is looked up once
     * for both legs (every invalidation and dirty-forward round pays
     * this path).
     */
    Cycle
    roundTrip(CoreId a, CoreId b, Cycle when, unsigned req_flits,
              unsigned rsp_flits, const ClusterRange &cluster)
    {
        if (a == b)
            return when; // local round trip, nothing traverses
        statPackets_.inc(2);
        statFlits_.inc(req_flits + rsp_flits);
        RoutePlan &plan = planFor(cluster);
        const Cycle arrive = walkLeg(a, b, when, req_flits, plan);
        return walkLeg(b, a, arrive, rsp_flits, plan);
    }

    /** Latency (no state update) of a one-way traversal without load. */
    Cycle unloadedLatency(CoreId src, CoreId dst) const;

    /** Route-plan bits: the dimension order is Y-X (else X-Y). */
    static constexpr std::uint8_t PLAN_YX = 1;
    /** Route-plan bits: the route leaves its cluster. */
    static constexpr std::uint8_t PLAN_LEAVES = 2;

    /**
     * The cached plan byte of the @p src -> @p dst route under
     * @p cluster: PLAN_YX when Router::selectOrder() picks Y-X,
     * PLAN_LEAVES when Router::orderedRouteContained() is false.
     * Fills the byte if this is the pair's first use under @p cluster.
     */
    std::uint8_t
    routePlan(CoreId src, CoreId dst, const ClusterRange &cluster)
    {
        return routeOf(planFor(cluster), src, dst);
    }

    /** Reset all link reservations (used between experiment phases). */
    void resetLinkState();

    /** Cluster range covering the whole machine (no isolation). */
    ClusterRange wholeMachine() const;

    const Router &router() const { return router_; }
    StatGroup &stats() { return stats_; }
    std::uint64_t isolationViolations() const
    {
        return stats_.value("isolation_violations");
    }

  private:
    /** Plan byte of a pair not routed under the plan's cluster yet. */
    static constexpr std::uint8_t PLAN_UNSET = 0xFF;

    /**
     * Routing decisions of one cluster range, one PLAN_* byte per
     * (src, dst) pair at [src * tiles + dst], each filled on the pair's
     * first leg (a cluster's traffic uses few of the pairs). About
     * 4 KiB on the default 64-tile mesh.
     */
    struct RoutePlan
    {
        ClusterRange cluster;
        std::vector<std::uint8_t> entries;
    };

    /**
     * The plan of @p cluster. Inline: every leg asks, and consecutive
     * legs almost always share the cluster of the last one.
     */
    RoutePlan &
    planFor(const ClusterRange &cluster)
    {
        if (lastPlan_ && lastPlan_->cluster.first == cluster.first &&
            lastPlan_->cluster.count == cluster.count) {
            return *lastPlan_;
        }
        return findPlan(cluster);
    }

    /** planFor() miss: find the cluster's plan, or start an empty one. */
    RoutePlan &findPlan(const ClusterRange &cluster);

    /** The plan byte of @p src -> @p dst, filled on first use. */
    std::uint8_t
    routeOf(RoutePlan &plan, CoreId src, CoreId dst)
    {
        const std::uint8_t route =
            plan.entries[static_cast<std::size_t>(src) * tiles_ + dst];
        return route != PLAN_UNSET ? route : fillRoute(plan, src, dst);
    }

    /** Ask the router for one pair's plan byte and store it. */
    std::uint8_t fillRoute(RoutePlan &plan, CoreId src, CoreId dst);

    /**
     * One directed leg of a traversal from @p src to @p dst (the
     * endpoints differ), routed as @p plan says.
     *
     * Wormhole-ish model: head flit pays hop latency + link wait per
     * hop; body flits stream behind (serialization charged once at the
     * end). The reservation loop carries the base index of the current
     * tile's link quad over the raw link_free_ array — one +-4 (X hop)
     * or +-4*width (Y hop) stride per hop instead of re-deriving
     * linkIndex(from, dir) from scratch — so the per-hop work is a
     * compare, two adds and a store.
     */
    Cycle
    walkLeg(CoreId src, CoreId dst, Cycle when, unsigned flits,
            RoutePlan &plan)
    {
        const std::uint8_t route = routeOf(plan, src, dst);
        if (route & PLAN_LEAVES)
            statIsolationViolations_.inc();

        Cycle *const lf = link_free_.data();
        const Cycle hop = cfg_.hopLatency;
        const std::size_t ystride =
            static_cast<std::size_t>(topo_.width()) * 4;
        std::size_t li = static_cast<std::size_t>(src) * 4;
        Cycle t = when;
        Cycle stall = 0;
        const auto reserve = [&](std::size_t link) {
            Cycle &slot = lf[link];
            if (slot > t) {
                stall += slot - t;
                t = slot;
            }
            // The link stays busy while all flits stream across it.
            slot = t + flits;
            t += hop;
        };
        const Coord &e = coords_[dst];
        int x = coords_[src].x;
        int y = coords_[src].y;
        const auto walk_x = [&]() {
            for (; x < e.x; ++x, li += 4)
                reserve(li + Router::EAST);
            for (; x > e.x; --x, li -= 4)
                reserve(li + Router::WEST);
        };
        const auto walk_y = [&]() {
            for (; y < e.y; ++y, li += ystride)
                reserve(li + Router::SOUTH);
            for (; y > e.y; --y, li -= ystride)
                reserve(li + Router::NORTH);
        };
        if (route & PLAN_YX) {
            walk_y();
            walk_x();
        } else {
            walk_x();
            walk_y();
        }
        t += flits > 1 ? (flits - 1) : 0; // tail serialization
        statLinkStallCycles_.inc(stall);
        statTotalLatency_.inc(t - when);
        return t;
    }

    const SysConfig &cfg_;
    const Topology &topo_;
    Router router_;
    unsigned tiles_;
    /** Coordinate of every tile (no division on the walk). */
    std::vector<Coord> coords_;
    /** next-free-time per directed link (4 per tile). */
    std::vector<Cycle> link_free_;
    /** One plan per cluster range seen so far, created on first use. */
    std::vector<std::unique_ptr<RoutePlan>> plans_;
    RoutePlan *lastPlan_ = nullptr;
    StatGroup stats_;
    // Per-packet counters bound once (StatGroup references are stable).
    Counter &statPackets_;
    Counter &statFlits_;
    Counter &statIsolationViolations_;
    Counter &statLinkStallCycles_;
    Counter &statTotalLatency_;
};

} // namespace ih

#endif // IH_NOC_NETWORK_HH
