/**
 * @file
 * NoC tests: topology geometry, dimension-ordered routing, and the
 * central strong-isolation property — for every legal cluster split,
 * every intra-cluster route (including memory-controller traffic) stays
 * on routers owned by that cluster under the bidirectional X-Y/Y-X
 * policy.
 */

#include <gtest/gtest.h>

#include <map>
#include <string>

#include "noc/network.hh"
#include "noc/routing.hh"
#include "noc/topology.hh"
#include "sim/rng.hh"

using namespace ih;

namespace
{

SysConfig
cfg8x8()
{
    SysConfig cfg;
    cfg.validate();
    return cfg;
}

} // namespace

TEST(Topology, RowMajorCoordinates)
{
    const SysConfig cfg = cfg8x8();
    const Topology topo(cfg);
    EXPECT_EQ(topo.coordOf(0), (Coord{0, 0}));
    EXPECT_EQ(topo.coordOf(7), (Coord{7, 0}));
    EXPECT_EQ(topo.coordOf(8), (Coord{0, 1}));
    EXPECT_EQ(topo.coordOf(63), (Coord{7, 7}));
    EXPECT_EQ(topo.tileAt({3, 2}), 19u);
}

TEST(Topology, McAttachmentsAtCorners)
{
    const SysConfig cfg = cfg8x8();
    const Topology topo(cfg);
    ASSERT_EQ(topo.numMcs(), 4u);
    // Top-edge MCs at the top-left corner columns.
    EXPECT_EQ(topo.mcAttachTile(0), 0u);
    EXPECT_EQ(topo.mcAttachTile(1), 1u);
    EXPECT_TRUE(topo.mcOnTopEdge(0));
    EXPECT_TRUE(topo.mcOnTopEdge(1));
    // Bottom-edge MCs at the bottom-right corner columns.
    EXPECT_EQ(topo.mcAttachTile(2), 63u);
    EXPECT_EQ(topo.mcAttachTile(3), 62u);
    EXPECT_FALSE(topo.mcOnTopEdge(2));
}

TEST(Topology, HopDistance)
{
    const SysConfig cfg = cfg8x8();
    const Topology topo(cfg);
    EXPECT_EQ(topo.hopDistance(0, 0), 0u);
    EXPECT_EQ(topo.hopDistance(0, 7), 7u);
    EXPECT_EQ(topo.hopDistance(0, 63), 14u);
    EXPECT_EQ(topo.hopDistance(9, 18), 2u);
}

TEST(Routing, XyPathShape)
{
    const SysConfig cfg = cfg8x8();
    const Topology topo(cfg);
    const Router router(topo);
    // (1,1) -> (3,2) via XY: x first.
    const auto p = router.path(topo.tileAt({1, 1}), topo.tileAt({3, 2}),
                               RouteOrder::XY);
    ASSERT_EQ(p.size(), 4u);
    EXPECT_EQ(p[0], topo.tileAt({1, 1}));
    EXPECT_EQ(p[1], topo.tileAt({2, 1}));
    EXPECT_EQ(p[2], topo.tileAt({3, 1}));
    EXPECT_EQ(p[3], topo.tileAt({3, 2}));
}

TEST(Routing, YxPathShape)
{
    const SysConfig cfg = cfg8x8();
    const Topology topo(cfg);
    const Router router(topo);
    const auto p = router.path(topo.tileAt({1, 1}), topo.tileAt({3, 2}),
                               RouteOrder::YX);
    ASSERT_EQ(p.size(), 4u);
    EXPECT_EQ(p[1], topo.tileAt({1, 2}));
    EXPECT_EQ(p[2], topo.tileAt({2, 2}));
}

TEST(Routing, SelfRouteIsSingleton)
{
    const SysConfig cfg = cfg8x8();
    const Topology topo(cfg);
    const Router router(topo);
    EXPECT_EQ(router.path(5, 5, RouteOrder::XY).size(), 1u);
}

TEST(Routing, PathLengthIsManhattanDistance)
{
    const SysConfig cfg = cfg8x8();
    const Topology topo(cfg);
    const Router router(topo);
    for (CoreId s = 0; s < 64; s += 5) {
        for (CoreId d = 0; d < 64; d += 7) {
            for (RouteOrder o : {RouteOrder::XY, RouteOrder::YX}) {
                EXPECT_EQ(router.path(s, d, o).size(),
                          topo.hopDistance(s, d) + 1);
            }
        }
    }
}

TEST(Routing, XyOnlyViolatesPartialRowClusters)
{
    // The motivating counter-example from the paper: with X-Y-only
    // routing, a cluster owning a partial row leaks traffic.
    const SysConfig cfg = cfg8x8();
    const Topology topo(cfg);
    const Router router(topo);
    const ClusterRange secure{0, 10}; // row 0 + two tiles of row 1
    // (7,0) -> (1,1): X-Y stays inside; (1,1) -> (7,0) X-Y walks row 1
    // through insecure tiles.
    const auto bad = router.path(topo.tileAt({1, 1}), topo.tileAt({7, 0}),
                                 RouteOrder::XY);
    EXPECT_FALSE(router.pathContained(bad, secure));
    // The policy picks Y-X for boundary-row sources, which is contained.
    EXPECT_EQ(router.selectOrder(topo.tileAt({1, 1}), secure),
              RouteOrder::YX);
    EXPECT_TRUE(router.routeContained(topo.tileAt({1, 1}),
                                      topo.tileAt({7, 0}), secure));
}

/**
 * The central containment property (paper Section III-B2): for every
 * split s in [1, 63], all intra-cluster pairs of both the secure prefix
 * and the insecure suffix route entirely within their cluster, and each
 * cluster's traffic to its own memory controllers is contained too.
 */
class ContainmentProperty : public testing::TestWithParam<unsigned>
{
};

TEST_P(ContainmentProperty, AllIntraClusterRoutesContained)
{
    const unsigned split = GetParam();
    const SysConfig cfg = cfg8x8();
    const Topology topo(cfg);
    const Router router(topo);
    const ClusterRange secure{0, split};
    const ClusterRange insecure{split, 64 - split};

    for (const ClusterRange &cl : {secure, insecure}) {
        for (CoreId s = cl.first; s < cl.first + cl.count; ++s) {
            for (CoreId d = cl.first; d < cl.first + cl.count; ++d) {
                EXPECT_TRUE(router.routeContained(s, d, cl))
                    << "split=" << split << " src=" << s << " dst=" << d;
            }
        }
    }
}

TEST_P(ContainmentProperty, McTrafficContained)
{
    const unsigned split = GetParam();
    const SysConfig cfg = cfg8x8();
    const Topology topo(cfg);
    const Router router(topo);
    const ClusterRange secure{0, split};
    const ClusterRange insecure{split, 64 - split};

    for (const ClusterRange &cl : {secure, insecure}) {
        // MCs whose attachment tile the cluster owns.
        for (McId m = 0; m < topo.numMcs(); ++m) {
            const CoreId attach = topo.mcAttachTile(m);
            if (!cl.contains(attach))
                continue;
            for (CoreId s = cl.first; s < cl.first + cl.count; ++s) {
                EXPECT_TRUE(router.routeContained(s, attach, cl))
                    << "split=" << split << " src=" << s << " mc=" << m;
                EXPECT_TRUE(router.routeContained(attach, s, cl))
                    << "split=" << split << " mc=" << m << " dst=" << s;
            }
        }
    }
}

TEST_P(ContainmentProperty, EachClusterOwnsAController)
{
    const unsigned split = GetParam();
    const SysConfig cfg = cfg8x8();
    const Topology topo(cfg);
    const ClusterRange secure{0, split};
    const ClusterRange insecure{split, 64 - split};
    unsigned s_mcs = 0, i_mcs = 0;
    for (McId m = 0; m < topo.numMcs(); ++m) {
        s_mcs += secure.contains(topo.mcAttachTile(m));
        i_mcs += insecure.contains(topo.mcAttachTile(m));
    }
    EXPECT_GE(s_mcs, 1u);
    EXPECT_GE(i_mcs, 1u);
    EXPECT_EQ(s_mcs + i_mcs, topo.numMcs());
}

INSTANTIATE_TEST_SUITE_P(AllSplits, ContainmentProperty,
                         testing::Range(1u, 64u));

TEST(Network, UnloadedLatencyScalesWithDistance)
{
    const SysConfig cfg = cfg8x8();
    const Topology topo(cfg);
    Network net(cfg, topo);
    EXPECT_EQ(net.unloadedLatency(0, 0), 0u);
    EXPECT_EQ(net.unloadedLatency(0, 7), 7 * cfg.hopLatency);
    EXPECT_EQ(net.unloadedLatency(0, 63), 14 * cfg.hopLatency);
}

TEST(Network, TraverseChargesHopsAndSerialization)
{
    const SysConfig cfg = cfg8x8();
    const Topology topo(cfg);
    Network net(cfg, topo);
    const ClusterRange whole{0, 64};
    // Single-flit packet: pure hop latency.
    EXPECT_EQ(net.traverse(0, 3, 100, 1, whole), 100 + 3 * cfg.hopLatency);
    net.resetLinkState();
    // Multi-flit packet: + (flits-1) tail serialization.
    EXPECT_EQ(net.traverse(0, 3, 100, 5, whole),
              100 + 3 * cfg.hopLatency + 4);
}

TEST(Network, ContentionDelaysSecondPacket)
{
    const SysConfig cfg = cfg8x8();
    const Topology topo(cfg);
    Network net(cfg, topo);
    const ClusterRange whole{0, 64};
    const Cycle t1 = net.traverse(0, 7, 0, 8, whole);
    const Cycle t2 = net.traverse(0, 7, 0, 8, whole); // same links, same time
    EXPECT_GT(t2, t1);
    EXPECT_GT(net.stats().value("link_stall_cycles"), 0u);
}

TEST(Network, LocalAccessBypassesNetwork)
{
    const SysConfig cfg = cfg8x8();
    const Topology topo(cfg);
    Network net(cfg, topo);
    const ClusterRange whole{0, 64};
    EXPECT_EQ(net.traverse(9, 9, 500, 5, whole), 500u);
}

TEST(Network, ViolationCounterCatchesCrossClusterRoutes)
{
    const SysConfig cfg = cfg8x8();
    const Topology topo(cfg);
    Network net(cfg, topo);
    const ClusterRange secure{0, 8}; // row 0 only
    // A route from row 0 to row 3 leaves the cluster.
    net.traverse(0, 24, 0, 1, secure);
    EXPECT_EQ(net.isolationViolations(), 1u);
}

TEST(Network, RoundTripIsTwoTraversals)
{
    const SysConfig cfg = cfg8x8();
    const Topology topo(cfg);
    Network net(cfg, topo);
    const ClusterRange whole{0, 64};
    const Cycle rt = net.roundTrip(0, 9, 0, 1, 5, whole);
    EXPECT_EQ(rt, 2 * cfg.hopLatency // 0->9 is 2 hops
                      + 2 * cfg.hopLatency + 4);
}

namespace
{

/** A WxH mesh config for the routing-equivalence sweeps. */
SysConfig
meshCfg(unsigned w, unsigned h)
{
    SysConfig cfg;
    cfg.meshWidth = w;
    cfg.meshHeight = h;
    cfg.numMcs = 2;
    cfg.numRegions = 4;
    cfg.validate();
    return cfg;
}

} // namespace

// The allocation-free hop walk must visit exactly the tile sequence the
// reference path() materializes — for every (src, dst, order) pair on
// 4x4 and 6x6 meshes.
TEST(Routing, HopWalkMatchesPathEverywhere)
{
    for (const auto &[w, h] :
         {std::pair<unsigned, unsigned>{4, 4}, {6, 6}, {4, 6}, {6, 4}}) {
        const SysConfig cfg = meshCfg(w, h);
        const Topology topo(cfg);
        const Router router(topo);
        const unsigned n = topo.numTiles();
        for (CoreId src = 0; src < n; ++src) {
            for (CoreId dst = 0; dst < n; ++dst) {
                for (const RouteOrder order :
                     {RouteOrder::XY, RouteOrder::YX}) {
                    const std::vector<CoreId> ref =
                        router.path(src, dst, order);
                    std::vector<CoreId> walked;
                    router.forEachHop(src, dst, order, [&](CoreId t) {
                        walked.push_back(t);
                    });
                    ASSERT_EQ(walked, ref)
                        << w << "x" << h << " src=" << src
                        << " dst=" << dst << " order="
                        << (order == RouteOrder::XY ? "XY" : "YX");
                }
            }
        }
    }
}

// The link walk must traverse the same hop sequence edge by edge, with
// each (from, to) adjacent and each direction matching the coordinate
// delta the network's link array expects.
TEST(Routing, LinkWalkMatchesPathEdges)
{
    for (const auto &[w, h] :
         {std::pair<unsigned, unsigned>{4, 4}, {6, 6}, {4, 6}, {6, 4}}) {
        const SysConfig cfg = meshCfg(w, h);
        const Topology topo(cfg);
        const Router router(topo);
        const unsigned n = topo.numTiles();
        for (CoreId src = 0; src < n; ++src) {
            for (CoreId dst = 0; dst < n; ++dst) {
                for (const RouteOrder order :
                     {RouteOrder::XY, RouteOrder::YX}) {
                    const std::vector<CoreId> ref =
                        router.path(src, dst, order);
                    std::size_t i = 0;
                    router.forEachLink(
                        src, dst, order,
                        [&](CoreId from, CoreId to,
                            Router::Direction dir) {
                            ASSERT_LT(i + 1, ref.size());
                            EXPECT_EQ(from, ref[i]);
                            EXPECT_EQ(to, ref[i + 1]);
                            const Coord a = topo.coordOf(from);
                            const Coord b = topo.coordOf(to);
                            switch (dir) {
                              case Router::EAST:
                                EXPECT_EQ(b.x, a.x + 1);
                                EXPECT_EQ(b.y, a.y);
                                break;
                              case Router::WEST:
                                EXPECT_EQ(b.x, a.x - 1);
                                EXPECT_EQ(b.y, a.y);
                                break;
                              case Router::SOUTH:
                                EXPECT_EQ(b.y, a.y + 1);
                                EXPECT_EQ(b.x, a.x);
                                break;
                              case Router::NORTH:
                                EXPECT_EQ(b.y, a.y - 1);
                                EXPECT_EQ(b.x, a.x);
                                break;
                            }
                            ++i;
                        });
                    EXPECT_EQ(i + 1, ref.size());
                }
            }
        }
    }
}

// The O(1) analytic containment check must agree with scanning the
// materialized path, for every (src, dst, order) pair and every
// contiguous cluster range (including empty and full-machine ranges).
TEST(Routing, AnalyticContainmentMatchesPathScan)
{
    for (const auto &[w, h] :
         {std::pair<unsigned, unsigned>{4, 4}, {6, 6}, {4, 6}, {6, 4}}) {
        const SysConfig cfg = meshCfg(w, h);
        const Topology topo(cfg);
        const Router router(topo);
        const unsigned n = topo.numTiles();
        for (CoreId src = 0; src < n; ++src) {
            for (CoreId dst = 0; dst < n; ++dst) {
                for (const RouteOrder order :
                     {RouteOrder::XY, RouteOrder::YX}) {
                    const std::vector<CoreId> ref =
                        router.path(src, dst, order);
                    for (CoreId first = 0; first < n; ++first) {
                        for (unsigned count = 0; count <= n - first;
                             ++count) {
                            const ClusterRange cl{first, count};
                            ASSERT_EQ(router.orderedRouteContained(
                                          src, dst, order, cl),
                                      router.pathContained(ref, cl))
                                << w << "x" << h << " src=" << src
                                << " dst=" << dst << " first=" << first
                                << " count=" << count;
                        }
                    }
                }
            }
        }
    }
}

// The strided link-reservation walk inside Network::traverse (walkLeg
// carries the link_free_ base index with +-4 / +-4*width strides) must
// reserve exactly the links, in exactly the order, that the reference
// Router::forEachLink walk yields — same arrival times, same stall and
// latency counters, for every (src, dst) pair, under both a
// whole-machine cluster (X-Y routes) and a partial-row cluster (Y-X
// routes from the boundary row), with link state carried across packets
// so contention is exercised too.
TEST(Network, TraverseMatchesForEachLinkReservationModel)
{
    for (const auto &[w, h] : {std::pair<unsigned, unsigned>{4, 4},
                               std::pair<unsigned, unsigned>{6, 6}}) {
        const SysConfig cfg = meshCfg(w, h);
        const Topology topo(cfg);
        const Router router(topo);
        Network net(cfg, topo);
        const unsigned tiles = topo.numTiles();
        // 10 tiles: rows 0-1 plus part of row 2 on the 4x4 mesh — a
        // partially owned boundary row, so sources there select Y-X.
        const std::vector<ClusterRange> clusters = {
            ClusterRange{0, tiles}, ClusterRange{0, 2 * w + w / 2}};

        // Shadow reservation model, advanced in lockstep with the real
        // network (which never resets between packets here).
        std::vector<Cycle> shadow(static_cast<std::size_t>(tiles) * 4, 0);
        Cycle when = 0;
        std::uint64_t stalls = 0;
        std::uint64_t latency = 0;
        const auto reference = [&](CoreId src, CoreId dst, Cycle t0,
                                   unsigned flits,
                                   const ClusterRange &cluster) {
            const RouteOrder order = router.selectOrder(src, cluster);
            Cycle t = t0;
            router.forEachLink(
                src, dst, order,
                [&](CoreId from, CoreId, Router::Direction dir) {
                    Cycle &slot =
                        shadow[static_cast<std::size_t>(from) * 4 + dir];
                    if (slot > t) {
                        stalls += slot - t;
                        t = slot;
                    }
                    slot = t + flits;
                    t += cfg.hopLatency;
                });
            t += flits > 1 ? (flits - 1) : 0;
            latency += t - t0;
            return t;
        };

        for (const ClusterRange &cluster : clusters) {
            for (CoreId src = 0; src < tiles; ++src) {
                for (CoreId dst = 0; dst < tiles; ++dst) {
                    if (src == dst)
                        continue;
                    const unsigned flits = 1 + (src + dst) % 5;
                    const Cycle expect =
                        reference(src, dst, when, flits, cluster);
                    const Cycle got =
                        net.traverse(src, dst, when, flits, cluster);
                    ASSERT_EQ(got, expect)
                        << w << "x" << h << " src " << src << " dst "
                        << dst << " cluster [" << cluster.first << ","
                        << cluster.count << ")";
                    // Staggered injection keeps some links contended.
                    when += (src * 7 + dst) % 3;
                }
            }
        }
        // The fused round trip must equal two reference legs.
        for (CoreId src = 0; src < tiles; ++src) {
            const CoreId dst = (src * 13 + 5) % tiles;
            if (src == dst)
                continue;
            const Cycle mid = reference(src, dst, when, 1, clusters[0]);
            const Cycle expect =
                reference(dst, src, mid, 5, clusters[0]);
            ASSERT_EQ(net.roundTrip(src, dst, when, 1, 5, clusters[0]),
                      expect)
                << w << "x" << h << " round trip " << src;
            when += 11;
        }
        EXPECT_EQ(net.stats().value("link_stall_cycles"), stalls);
        EXPECT_EQ(net.stats().value("total_latency"), latency);
    }
}

// The network caches one routing plan per cluster range: a byte per
// (src, dst) pair holding the dimension order and whether the route
// leaves the cluster. Every byte must equal what the router computes,
// for the whole machine and for prefix and suffix clusters that do and
// do not end on a row boundary.
TEST(Network, RoutePlanMatchesRouter)
{
    for (const auto &[w, h] : {std::pair<unsigned, unsigned>{8, 8},
                               std::pair<unsigned, unsigned>{6, 4}}) {
        const SysConfig cfg = meshCfg(w, h);
        const Topology topo(cfg);
        const Router router(topo);
        Network net(cfg, topo);
        const unsigned n = topo.numTiles();
        const std::vector<ClusterRange> clusters = {
            {0, n},                     // whole machine
            {0, 2 * w},                 // row-aligned prefix
            {2 * w, n - 2 * w},         // row-aligned suffix
            {0, w + w / 2},             // prefix ending mid-row
            {w + w / 2, n - w - w / 2}, // suffix starting mid-row
            {1, n - 2},                 // both ends mid-row
        };
        unsigned yx = 0;
        unsigned leaves = 0;
        // Twice round: the second pass reads the bytes the first filled.
        for (int pass = 0; pass < 2; ++pass) {
            for (const ClusterRange &cl : clusters) {
                for (CoreId src = 0; src < n; ++src) {
                    const RouteOrder order = router.selectOrder(src, cl);
                    for (CoreId dst = 0; dst < n; ++dst) {
                        std::uint8_t want =
                            order == RouteOrder::YX ? Network::PLAN_YX : 0;
                        if (!router.orderedRouteContained(src, dst, order,
                                                          cl))
                            want |= Network::PLAN_LEAVES;
                        ASSERT_EQ(net.routePlan(src, dst, cl), want)
                            << w << "x" << h << " [" << cl.first << ","
                            << cl.count << ") " << src << "->" << dst;
                        yx += (want & Network::PLAN_YX) ? 1 : 0;
                        leaves += (want & Network::PLAN_LEAVES) ? 1 : 0;
                    }
                }
            }
        }
        EXPECT_GT(yx, 0u);
        EXPECT_GT(leaves, 0u);
    }
}

// Timing and every noc.* counter of a seeded, contended mix of
// traversals and round trips under several clusters (including routes
// that leave their cluster) must match a reservation walk over the
// materialized Router::path() of each leg.
TEST(Network, PlannedWalkMatchesPathReservationModel)
{
    const SysConfig cfg = meshCfg(6, 4);
    const Topology topo(cfg);
    const Router router(topo);
    Network net(cfg, topo);
    const unsigned n = topo.numTiles();
    const unsigned w = topo.width();
    const std::vector<ClusterRange> clusters = {
        {0, n}, {0, w + 2}, {w + 2, n - w - 2}, {0, 2 * w}};

    std::vector<Cycle> shadow(static_cast<std::size_t>(n) * 4, 0);
    std::map<std::string, std::uint64_t> want = {
        {"packets", 0},
        {"flits", 0},
        {"isolation_violations", 0},
        {"link_stall_cycles", 0},
        {"total_latency", 0},
    };
    const auto leg = [&](CoreId src, CoreId dst, Cycle t0, unsigned flits,
                         const ClusterRange &cl) {
        const std::vector<CoreId> p =
            router.path(src, dst, router.selectOrder(src, cl));
        if (!router.pathContained(p, cl))
            ++want["isolation_violations"];
        Cycle t = t0;
        for (std::size_t i = 1; i < p.size(); ++i) {
            const CoreId from = p[i - 1];
            const CoreId to = p[i];
            const Router::Direction dir =
                to == from + 1   ? Router::EAST
                : to + 1 == from ? Router::WEST
                : to == from + w ? Router::SOUTH
                                 : Router::NORTH;
            Cycle &slot = shadow[static_cast<std::size_t>(from) * 4 + dir];
            if (slot > t) {
                want["link_stall_cycles"] += slot - t;
                t = slot;
            }
            slot = t + flits;
            t += cfg.hopLatency;
        }
        t += flits > 1 ? (flits - 1) : 0;
        want["total_latency"] += t - t0;
        return t;
    };

    Rng rng(77);
    Cycle when = 0;
    for (unsigned i = 0; i < 20000; ++i) {
        const CoreId a = static_cast<CoreId>(rng.nextRange(n));
        const CoreId b = static_cast<CoreId>(rng.nextRange(n));
        const ClusterRange &cl = clusters[rng.nextRange(clusters.size())];
        const unsigned flits = 1 + static_cast<unsigned>(rng.nextRange(5));
        Cycle expect = when;
        Cycle got;
        if (rng.chance(0.5)) {
            if (a != b) {
                want["packets"] += 1;
                want["flits"] += flits;
                expect = leg(a, b, when, flits, cl);
            }
            got = net.traverse(a, b, when, flits, cl);
        } else {
            if (a != b) {
                want["packets"] += 2;
                want["flits"] += 1 + flits;
                expect = leg(b, a, leg(a, b, when, 1, cl), flits, cl);
            }
            got = net.roundTrip(a, b, when, 1, flits, cl);
        }
        ASSERT_EQ(got, expect) << "packet " << i;
        when += rng.nextRange(3); // slow injection: links stay contended
    }
    for (const auto &[name, value] : want)
        EXPECT_EQ(net.stats().value(name), value) << name;
    EXPECT_EQ(net.stats().counters().size(), want.size());
    EXPECT_GT(want["isolation_violations"], 0u);
    EXPECT_GT(want["link_stall_cycles"], 0u);
}
