/**
 * @file
 * Deterministic dimension-ordered routing on the 2-D mesh.
 *
 * The mesh supports bidirectional dimension-ordered routing: every packet
 * is routed either X-then-Y or Y-then-X, selected per packet by a
 * deterministic policy. Strong isolation of on-chip traffic relies on
 * this: with clusters allocated as a row-major prefix (secure) / suffix
 * (insecure) of the tile space, choosing Y-X for packets *sourced in the
 * cluster's boundary (partially owned) row* and X-Y otherwise guarantees
 * every intra-cluster route stays on routers owned by that cluster
 * (IRONHIDE paper, Section III-B2). routeContained() lets callers (and
 * the property tests) verify the guarantee.
 */

#ifndef IH_NOC_ROUTING_HH
#define IH_NOC_ROUTING_HH

#include <algorithm>
#include <vector>

#include "noc/topology.hh"

namespace ih
{

/** Dimension order used by a packet. */
enum class RouteOrder : std::uint8_t
{
    XY = 0, ///< traverse X first, then Y
    YX = 1, ///< traverse Y first, then X
};

/**
 * A contiguous row-major range of tiles forming a cluster.
 * Tiles [first, first+count) belong to the cluster.
 */
struct ClusterRange
{
    CoreId first = 0;
    unsigned count = 0;

    bool
    contains(CoreId t) const
    {
        return t >= first && t < first + count;
    }

    CoreId last() const { return first + count - 1; }
};

/** Stateless routing policy over a topology. */
class Router
{
  public:
    /** Directed link direction off a router, in the order the network's
     *  per-tile link array stores them. */
    enum Direction : unsigned
    {
        EAST = 0,  ///< x + 1
        WEST = 1,  ///< x - 1
        SOUTH = 2, ///< y + 1
        NORTH = 3, ///< y - 1
    };

    explicit Router(const Topology &topo) : topo_(topo) {}

    /**
     * Enumerate the routers a packet visits from @p src to @p dst
     * (inclusive of both endpoints) under @p order.
     *
     * This materializes the hop list and is kept as the reference
     * implementation (and for callers that genuinely need the vector);
     * the allocation-free forEachHop() / forEachLink() walks and the
     * network's own link walk are pinned equivalent to it by
     * tests/test_noc.cc.
     */
    std::vector<CoreId> path(CoreId src, CoreId dst,
                             RouteOrder order) const;

    /**
     * Visit the routers of the @p order route @p src -> @p dst
     * (inclusive of both endpoints, in traversal order) without
     * materializing them: fn(CoreId tile). Tile ids are maintained
     * incrementally (+/-1 per X hop, +/-width per Y hop), so the walk
     * performs no per-hop coordinate math.
     */
    template <typename Fn>
    void
    forEachHop(CoreId src, CoreId dst, RouteOrder order, Fn &&fn) const
    {
        const Coord s = topo_.coordOf(src);
        const Coord e = topo_.coordOf(dst);
        const CoreId w = topo_.width();
        CoreId id = src;
        int x = s.x;
        int y = s.y;
        fn(id);
        auto walk_x = [&]() {
            while (x != e.x) {
                if (e.x > x) {
                    ++x;
                    ++id;
                } else {
                    --x;
                    --id;
                }
                fn(id);
            }
        };
        auto walk_y = [&]() {
            while (y != e.y) {
                if (e.y > y) {
                    ++y;
                    id += w;
                } else {
                    --y;
                    id -= w;
                }
                fn(id);
            }
        };
        if (order == RouteOrder::XY) {
            walk_x();
            walk_y();
        } else {
            walk_y();
            walk_x();
        }
    }

    /**
     * Visit the directed links of the @p order route @p src -> @p dst in
     * traversal order: fn(CoreId from, CoreId to, Direction dir). Same
     * incremental walk as forEachHop(); the (from, dir) pair identifies
     * the link without re-deriving coordinates per hop.
     */
    template <typename Fn>
    void
    forEachLink(CoreId src, CoreId dst, RouteOrder order, Fn &&fn) const
    {
        const Coord s = topo_.coordOf(src);
        const Coord e = topo_.coordOf(dst);
        const CoreId w = topo_.width();
        CoreId id = src;
        int x = s.x;
        int y = s.y;
        auto walk_x = [&]() {
            while (x != e.x) {
                if (e.x > x) {
                    fn(id, id + 1, EAST);
                    ++x;
                    ++id;
                } else {
                    fn(id, id - 1, WEST);
                    --x;
                    --id;
                }
            }
        };
        auto walk_y = [&]() {
            while (y != e.y) {
                if (e.y > y) {
                    fn(id, id + w, SOUTH);
                    ++y;
                    id += w;
                } else {
                    fn(id, id - w, NORTH);
                    --y;
                    id -= w;
                }
            }
        };
        if (order == RouteOrder::XY) {
            walk_x();
            walk_y();
        } else {
            walk_y();
            walk_x();
        }
    }

    /**
     * Select the dimension order for a packet of a cluster: Y-X when the
     * source lies in the cluster's boundary row (the row the cluster only
     * partially owns), X-Y otherwise. The network caches the answer per
     * (cluster, src, dst) in its route plans.
     */
    RouteOrder
    selectOrder(CoreId src, const ClusterRange &cluster) const
    {
        const unsigned width = topo_.width();
        const Coord src_c = topo_.coordOf(src);
        // The boundary row is the row the cluster only partially owns
        // (if any). For a prefix cluster that is the row of its last
        // tile when the cluster does not end at a row boundary; for a
        // suffix cluster, the row of its first tile when it does not
        // start at one.
        const bool starts_aligned = cluster.first % width == 0;
        const bool ends_aligned =
            (cluster.first + cluster.count) % width == 0;

        if (!ends_aligned) {
            const Coord last_c = topo_.coordOf(cluster.last());
            if (src_c.y == last_c.y && cluster.contains(src))
                return RouteOrder::YX;
        }
        if (!starts_aligned) {
            const Coord first_c = topo_.coordOf(cluster.first);
            if (src_c.y == first_c.y && cluster.contains(src))
                return RouteOrder::YX;
        }
        return RouteOrder::XY;
    }

    /** True when every router of @p p lies inside @p cluster. */
    bool pathContained(const std::vector<CoreId> &p,
                       const ClusterRange &cluster) const;

    /**
     * Containment of the @p order route @p src -> @p dst (endpoints
     * included) in @p cluster, computed analytically — O(1), no walk.
     *
     * A dimension-ordered route is two straight segments, and a cluster
     * is one contiguous row-major id interval; an id interval contains a
     * tile set iff it contains the set's minimum and maximum tile ids,
     * which for straight segments lie at the segment endpoints. The
     * equivalence with walking pathContained() over path() is pinned by
     * tests/test_noc.cc.
     */
    bool
    orderedRouteContained(CoreId src, CoreId dst, RouteOrder order,
                          const ClusterRange &cluster) const
    {
        const Coord s = topo_.coordOf(src);
        const Coord d = topo_.coordOf(dst);
        const CoreId w = topo_.width();
        const auto id = [w](int x, int y) {
            return static_cast<CoreId>(y) * w + static_cast<CoreId>(x);
        };
        const int min_x = std::min(s.x, d.x);
        const int max_x = std::max(s.x, d.x);
        const int min_y = std::min(s.y, d.y);
        const int max_y = std::max(s.y, d.y);
        // The route is one horizontal segment (in the turn row) and one
        // vertical segment (in the turn column); min/max tile ids over
        // the route are the min/max over the four segment endpoints.
        CoreId min_id;
        CoreId max_id;
        if (order == RouteOrder::XY) {
            min_id = std::min(id(min_x, s.y), id(d.x, min_y));
            max_id = std::max(id(max_x, s.y), id(d.x, max_y));
        } else {
            min_id = std::min(id(s.x, min_y), id(min_x, d.y));
            max_id = std::max(id(s.x, max_y), id(max_x, d.y));
        }
        return cluster.contains(min_id) && cluster.contains(max_id);
    }

    /**
     * Convenience: route src->dst for @p cluster traffic and report
     * whether the route is contained in the cluster.
     */
    bool routeContained(CoreId src, CoreId dst,
                        const ClusterRange &cluster) const;

    const Topology &topology() const { return topo_; }

  private:
    const Topology &topo_;
};

} // namespace ih

#endif // IH_NOC_ROUTING_HH
