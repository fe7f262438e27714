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
     * Fills the pair's route if this is its first use under @p cluster.
     */
    std::uint8_t
    routePlan(CoreId src, CoreId dst, const ClusterRange &cluster)
    {
        return static_cast<std::uint8_t>(
            routeOf(planFor(cluster), src, dst) & PLAN_BITS);
    }

    /**
     * The directed-link indices (tile * 4 + Router::Direction) the
     * @p src -> @p dst leg under @p cluster reserves, in traversal
     * order, as stored in the cluster's route plan (filled on first
     * use). Empty when src == dst.
     */
    std::vector<unsigned> routeLinks(CoreId src, CoreId dst,
                                     const ClusterRange &cluster);

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
    /** The PLAN_* bits of a route entry. */
    static constexpr std::uint32_t PLAN_BITS = PLAN_YX | PLAN_LEAVES;
    /** Route entry of a pair not routed under the plan's cluster yet. */
    static constexpr std::uint32_t PLAN_UNSET = ~std::uint32_t(0);

    /**
     * Routing decisions of one cluster range. entries holds one route
     * entry per (src, dst) pair at [src * tiles + dst]: the PLAN_* bits
     * in the low two bits and, above them, the offset of the pair's
     * link sequence in links. A sequence is its hop count followed by
     * that many directed-link indices. Both are filled on the pair's
     * first leg, so links only holds the pairs a cluster's traffic
     * actually uses (about 16 KiB of entries per plan on the default
     * 64-tile mesh, plus a few bytes per used pair).
     */
    struct RoutePlan
    {
        ClusterRange cluster;
        std::vector<std::uint32_t> entries;
        std::vector<std::uint16_t> links;
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

    /** The route entry of @p src -> @p dst, filled on first use. */
    std::uint32_t
    routeOf(RoutePlan &plan, CoreId src, CoreId dst)
    {
        const std::uint32_t route =
            plan.entries[static_cast<std::size_t>(src) * tiles_ + dst];
        return route != PLAN_UNSET ? route : fillRoute(plan, src, dst);
    }

    /** Ask the router for one pair's route, record its link sequence
     *  and store its entry. */
    std::uint32_t fillRoute(RoutePlan &plan, CoreId src, CoreId dst);

    /**
     * One directed leg of a traversal from @p src to @p dst (the
     * endpoints differ), routed as @p plan says.
     *
     * Wormhole-ish model: head flit pays hop latency + link wait per
     * hop; body flits stream behind (serialization charged once at the
     * end). The leg walks the pair's precomputed link sequence, so the
     * per-hop work is one load of the link index, a compare, two adds
     * and a store — no per-direction loops and no coordinate walk.
     */
    Cycle
    walkLeg(CoreId src, CoreId dst, Cycle when, unsigned flits,
            RoutePlan &plan)
    {
        const std::uint32_t route = routeOf(plan, src, dst);
        if (route & PLAN_LEAVES)
            statIsolationViolations_.inc();

        // After routeOf(): a first use may have grown plan.links.
        const std::uint16_t *const seq = plan.links.data() + (route >> 2);
        const unsigned hops = seq[0];
        Cycle *const lf = link_free_.data();
        const Cycle hop = cfg_.hopLatency;
        Cycle t = when;
        Cycle stall = 0;
        for (unsigned i = 1; i <= hops; ++i) {
            Cycle &slot = lf[seq[i]];
            if (slot > t) {
                stall += slot - t;
                t = slot;
            }
            // The link stays busy while all flits stream across it.
            slot = t + flits;
            t += hop;
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
