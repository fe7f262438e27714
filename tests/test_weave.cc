/**
 * @file
 * Bound-weave engine tests.
 *
 * The two load-bearing properties of the engine (src/cpu/
 * exec_engine_weave.cc) are pinned here:
 *
 *  - *serial equivalence on contention-free traces*: with one thread
 *    per core and temporally disjoint thread activity, the weave engine
 *    must reproduce the serial reference engine exactly — same
 *    PhaseResult, same value for every counter in the machine, same
 *    audit records — at any quantum length;
 *  - *worker-count unobservability*: on arbitrarily contended traces,
 *    results must be byte-identical at every IRONHIDE_WEAVE_WORKERS
 *    value (the worker count is a host knob, never a model knob).
 *
 * Plus the supporting machinery: the WeavePool's canonical
 * smallest-index exception contract, engine reusability after a
 * throwing task, the env knobs, the weave-domain partition and the
 * route-crossing telemetry.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/system.hh"
#include "cpu/exec_engine.hh"
#include "harness/weave.hh"

using namespace ih;

namespace
{

/**
 * Strided load/store mix over a per-thread arena, with an optional
 * per-thread start stagger. A stagger larger than one thread's total
 * runtime makes the thread activity windows temporally disjoint, and an
 * arena past the TLB reach and L1 capacity but small enough that the
 * combined footprint stays L2-resident gives the contention-free regime
 * where weave must match serial exactly (L2 capacity evictions
 * back-invalidate L1 lines mid-quantum in the serial model — a
 * shared-to-private interaction the weave barrier defers, see the
 * divergence notes in src/cpu/exec_engine_weave.cc). The equivalence
 * tests assert the zero-eviction precondition on the serial run.
 */
class StridedTask : public SteppableTask
{
  public:
    StridedTask(unsigned threads, unsigned steps, Cycle stagger,
                VAddr arena_bytes)
        : done_(threads, 0), steps_(steps), stagger_(stagger),
          arenaBytes_(arena_bytes)
    {
    }

    bool
    step(ExecContext &ctx) override
    {
        const unsigned i = ctx.threadIndex();
        unsigned &n = done_[i];
        if (stagger_ && n == 0) {
            // The stagger must be its own access-free step: the serial
            // engine executes a step's accesses at *call* time, so a
            // huge compute before an access inside one step would issue
            // that access far in the future ahead of other threads'
            // earlier traffic — dragging the shared controllers forward
            // and destroying the temporal disjointness the stagger is
            // meant to create.
            ++n;
            ctx.compute(static_cast<std::uint64_t>(i) * stagger_);
            return true;
        }
        const unsigned m = stagger_ ? n - 1 : n;
        const VAddr arena = 0x400000ull * (i + 1);
        const VAddr va =
            arena + (static_cast<VAddr>(m) * 72) % arenaBytes_;
        if (m % 3 == 2)
            ctx.store(va);
        else
            ctx.load(va);
        ctx.compute(3 + m % 7);
        return ++n < steps_;
    }

  private:
    std::vector<unsigned> done_;
    unsigned steps_;
    Cycle stagger_;
    VAddr arenaBytes_;
};

/** All threads hammer one shared 64 KiB arena at co-prime strides:
 *  cross-core sharing, store upgrades, invalidations, co-located
 *  multiplexing — the contended regime for determinism tests. */
class ContendedTask : public SteppableTask
{
  public:
    ContendedTask(unsigned threads, unsigned steps)
        : done_(threads, 0), steps_(steps)
    {
    }

    bool
    step(ExecContext &ctx) override
    {
        const unsigned i = ctx.threadIndex();
        unsigned &n = done_[i];
        const VAddr va =
            0x10000 +
            ((static_cast<VAddr>(n) * 136 + i * 8) % (64 * 1024));
        if ((n + i) % 2)
            ctx.store(va);
        else
            ctx.load(va);
        ctx.compute(1 + (i + n) % 5);
        return ++n < steps_;
    }

  private:
    std::vector<unsigned> done_;
    unsigned steps_;
};

/** Flat map of every counter in the machine, keyed by group.name. */
std::map<std::string, std::uint64_t>
allCounters(System &sys, bool include_weave)
{
    std::map<std::string, std::uint64_t> out;
    const auto add = [&out](const std::string &prefix,
                            const StatGroup &g) {
        for (const auto &kv : g.counters())
            out[prefix + "." + kv.first] = kv.second.value();
    };
    add("mem", sys.mem().stats());
    add("noc", sys.network().stats());
    for (CoreId c = 0; c < sys.numTiles(); ++c) {
        const std::string id = std::to_string(c);
        add("l1." + id, sys.mem().l1(c).stats());
        add("l2." + id, sys.mem().l2(c).stats());
        add("tlb." + id, sys.mem().tlb(c).stats());
        add("cpu." + id, sys.engine().core(c).stats());
    }
    for (McId m = 0; m < sys.mem().numMcs(); ++m)
        add("mc." + std::to_string(m), sys.mem().mc(m).stats());
    for (const auto &p : sys.processes())
        add("proc." + p->name(), p->stats());
    for (const auto &kv : sys.engine().stats().counters()) {
        // The weave engine's own telemetry has no serial counterpart.
        if (!include_weave && kv.first.rfind("weave_", 0) == 0)
            continue;
        out["engine." + kv.first] = kv.second.value();
    }
    return out;
}

void
expectSameCounters(const std::map<std::string, std::uint64_t> &a,
                   const std::map<std::string, std::uint64_t> &b)
{
    for (const auto &kv : a) {
        const auto it = b.find(kv.first);
        ASSERT_NE(it, b.end()) << "counter missing: " << kv.first;
        EXPECT_EQ(kv.second, it->second) << "counter differs: "
                                         << kv.first;
    }
    EXPECT_EQ(a.size(), b.size());
}

/** Result + full machine state fingerprint of one phase run. */
struct RunOut
{
    PhaseResult res;
    std::map<std::string, std::uint64_t> counters;
    std::uint64_t blockedAudit = 0;
};

template <typename MakeTask>
RunOut
runOnce(const SysConfig &cfg, unsigned threads, MakeTask make,
        bool include_weave, bool counting_checker)
{
    System sys(cfg);
    Process &p = sys.createProcess("p", Domain::INSECURE, threads);
    if (counting_checker) {
        // Stateful but deterministic: both engines consult the checker
        // exactly once per access in the identical (captured) order, so
        // blocking every 7th check must reproduce bit-for-bit.
        auto calls = std::make_shared<std::uint64_t>(0);
        sys.mem().setAccessChecker(
            AccessChecker([calls](Domain, RegionId) {
                return ++*calls % 7 != 0;
            }));
    }
    const std::unique_ptr<SteppableTask> task = make(threads);
    RunOut out;
    out.res = sys.engine().runPhase(p, *task, 1000);
    out.counters = allCounters(sys, include_weave);
    out.blockedAudit = sys.audit().count(AuditKind::ACCESS_BLOCKED);
    return out;
}

void
expectSameRun(const RunOut &serial, const RunOut &weave)
{
    EXPECT_EQ(serial.res.finish, weave.res.finish);
    EXPECT_EQ(serial.res.steps, weave.res.steps);
    EXPECT_EQ(serial.res.instructions, weave.res.instructions);
    EXPECT_EQ(serial.blockedAudit, weave.blockedAudit);
    expectSameCounters(serial.counters, weave.counters);
}

SysConfig
weaveCfg(Cycle quantum, unsigned workers, unsigned domains)
{
    SysConfig cfg = SysConfig::smallTest();
    cfg.engine = EngineKind::WEAVE;
    cfg.weaveQuantum = quantum;
    cfg.weaveWorkers = workers;
    cfg.weaveDomains = domains;
    return cfg;
}

} // namespace

TEST(WeaveEquivalence, SingleThreadMatchesSerialExactly)
{
    // A single thread is trivially contention-free; the 96 KiB arena
    // overruns the TLB reach (32 KiB) and the L1 (4 KiB) but stays
    // L2-resident, so the trace exercises TLB misses, L1 misses and
    // evictions, L2 misses, writebacks and store upgrades without the
    // back-invalidation interaction the barrier defers.
    const auto make = [](unsigned threads) {
        return std::make_unique<StridedTask>(threads, 400, 0,
                                             96 * 1024);
    };
    const RunOut serial =
        runOnce(SysConfig::smallTest(), 1, make, false, false);
    ASSERT_EQ(serial.counters.at("mem.l2_evictions"), 0u)
        << "trace must stay L2-resident for exact equivalence";
    for (const Cycle quantum : {Cycle(1), Cycle(16), Cycle(4096)}) {
        SCOPED_TRACE("quantum=" + std::to_string(quantum));
        const RunOut weave =
            runOnce(weaveCfg(quantum, 2, 4), 1, make, false, false);
        expectSameRun(serial, weave);
    }
}

TEST(WeaveEquivalence, ContentionFreeThreadsMatchSerialExactly)
{
    // 8 threads, one per core, staggered 2^20 cycles apart — far past
    // any one thread's runtime, so no two threads are ever active in
    // the same cycle window. The 8 KiB per-thread arenas (past the
    // 4 KiB L1, so L1 misses and L2 traffic still occur) keep the
    // combined 64 KiB footprint small enough that no L2 set overflows
    // its associativity under the hash distribution.
    const auto make = [](unsigned threads) {
        return std::make_unique<StridedTask>(threads, 200,
                                             Cycle(1) << 20, 8 * 1024);
    };
    const RunOut serial =
        runOnce(SysConfig::smallTest(), 8, make, false, false);
    ASSERT_EQ(serial.counters.at("mem.l2_evictions"), 0u)
        << "trace must stay L2-resident for exact equivalence";
    const RunOut weave =
        runOnce(weaveCfg(4096, 3, 4), 8, make, false, false);
    expectSameRun(serial, weave);
}

TEST(WeaveEquivalence, QuantumInvariantOnContentionFreeTraces)
{
    // The quantum length is part of the timing model only where
    // contention is deferred; with none, every length must reproduce
    // the serial reference (and hence each other).
    const auto make = [](unsigned threads) {
        return std::make_unique<StridedTask>(threads, 120,
                                             Cycle(1) << 20, 16 * 1024);
    };
    const RunOut serial =
        runOnce(SysConfig::smallTest(), 4, make, false, false);
    ASSERT_EQ(serial.counters.at("mem.l2_evictions"), 0u)
        << "trace must stay L2-resident for exact equivalence";
    for (const Cycle quantum :
         {Cycle(64), Cycle(512), Cycle(1) << 20}) {
        SCOPED_TRACE("quantum=" + std::to_string(quantum));
        const RunOut weave =
            runOnce(weaveCfg(quantum, 2, 4), 4, make, false, false);
        expectSameRun(serial, weave);
    }
}

TEST(WeaveEquivalence, BlockedAccessesMatchSerial)
{
    // Region-check rejections take the capture-side blocked path and a
    // barrier-side audit replay; counts, flush penalties and audit
    // records must all match the serial engine.
    const auto make = [](unsigned threads) {
        return std::make_unique<StridedTask>(threads, 300, 0,
                                             96 * 1024);
    };
    const RunOut serial =
        runOnce(SysConfig::smallTest(), 1, make, false, true);
    const RunOut weave =
        runOnce(weaveCfg(4096, 2, 4), 1, make, false, true);
    EXPECT_GT(serial.blockedAudit, 0u); // the trace must exercise it
    expectSameRun(serial, weave);
}

TEST(WeaveDeterminism, ByteIdenticalAcrossWorkerCounts)
{
    // Heavily contended trace: 32 threads multiplexing 16 cores over
    // one shared arena. The worker count must be structurally
    // unobservable — identical PhaseResult and identical value for
    // every counter, weave telemetry included.
    const auto make = [](unsigned threads) {
        return std::make_unique<ContendedTask>(threads, 300);
    };
    const RunOut w1 = runOnce(weaveCfg(4096, 1, 8), 32, make, true,
                              false);
    for (const unsigned workers : {2u, 8u}) {
        SCOPED_TRACE("workers=" + std::to_string(workers));
        const RunOut wn = runOnce(weaveCfg(4096, workers, 8), 32, make,
                                  true, false);
        expectSameRun(w1, wn);
    }
}

TEST(WeaveEngine, TaskExceptionLeavesEngineReusable)
{
    // A workload throwing mid-capture must propagate out of runPhase
    // and leave the engine (capture flag, pools) ready for the next
    // phase.
    class ThrowingTask : public SteppableTask
    {
      public:
        bool
        step(ExecContext &ctx) override
        {
            if (++n_ > 5)
                throw std::runtime_error("task boom");
            ctx.load(0x1000ull * n_);
            return true;
        }

      private:
        unsigned n_ = 0;
    };

    System sys(weaveCfg(4096, 2, 4));
    Process &p = sys.createProcess("p", Domain::INSECURE, 1);
    ThrowingTask bad;
    EXPECT_THROW(sys.engine().runPhase(p, bad, 0), std::runtime_error);
    StridedTask ok(1, 10, 0, 96 * 1024);
    const PhaseResult r = sys.engine().runPhase(p, ok, 0);
    EXPECT_EQ(r.steps, 10u);
}

TEST(WeavePool, CanonicalSmallestIndexException)
{
    // Two lanes throw; whichever finishes first on the host, the
    // exception that propagates must be the smallest lane index (what a
    // serial loop would have produced), and every lane must still run.
    WeavePool pool(4);
    std::vector<std::atomic<unsigned>> ran(8);
    for (unsigned iter = 1; iter <= 50; ++iter) {
        bool threw = false;
        try {
            pool.run(8, [&ran](std::size_t i) {
                ran[i].fetch_add(1);
                if (i == 2)
                    throw std::runtime_error("lane2");
                if (i == 6)
                    throw std::runtime_error("lane6");
            });
        } catch (const std::runtime_error &e) {
            threw = true;
            EXPECT_STREQ(e.what(), "lane2");
        }
        EXPECT_TRUE(threw);
        for (std::size_t i = 0; i < ran.size(); ++i)
            EXPECT_EQ(ran[i].load(), iter) << "lane " << i;
    }
}

TEST(WeavePool, SerialFallbackAndEmptyRun)
{
    WeavePool pool(1); // no worker threads: plain loop semantics
    std::vector<std::size_t> order;
    pool.run(5, [&order](std::size_t i) { order.push_back(i); });
    EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
    pool.run(0, [](std::size_t) { FAIL() << "no lanes to run"; });
    EXPECT_THROW(pool.run(3,
                          [](std::size_t i) {
                              if (i == 1)
                                  throw std::runtime_error("lane1");
                          }),
                 std::runtime_error);
}

TEST(WeaveWorkers, EffectiveCountCappedAtDomains)
{
    SysConfig cfg = SysConfig::smallTest();
    cfg.weaveDomains = 4;
    cfg.weaveWorkers = 64;
    EXPECT_EQ(effectiveWeaveWorkers(cfg), 4u);
    cfg.weaveWorkers = 2;
    EXPECT_EQ(effectiveWeaveWorkers(cfg), 2u);
    cfg.weaveDomains = 64; // clamps to the 16 tiles
    cfg.weaveWorkers = 64;
    EXPECT_EQ(effectiveWeaveWorkers(cfg), 16u);
}

TEST(WeaveEnv, EngineAndWorkerKnobs)
{
    setenv("IRONHIDE_ENGINE", "weave", 1);
    setenv("IRONHIDE_WEAVE_WORKERS", "3", 1);
    SysConfig cfg = SysConfig::smallTest();
    applyWeaveEnv(cfg);
    EXPECT_EQ(cfg.engine, EngineKind::WEAVE);
    EXPECT_EQ(cfg.weaveWorkers, 3u);
    setenv("IRONHIDE_ENGINE", "serial", 1);
    applyWeaveEnv(cfg);
    EXPECT_EQ(cfg.engine, EngineKind::SERIAL);
    unsetenv("IRONHIDE_ENGINE");
    unsetenv("IRONHIDE_WEAVE_WORKERS");
    // Absent knobs leave the config untouched.
    cfg.engine = EngineKind::WEAVE;
    applyWeaveEnv(cfg);
    EXPECT_EQ(cfg.engine, EngineKind::WEAVE);
    EXPECT_EQ(cfg.weaveWorkers, 3u);
}

TEST(SystemWeave, DomainPartitionCoversTilesOnce)
{
    SysConfig cfg = SysConfig::smallTest();
    cfg.weaveDomains = 3; // uneven split of the 16 tiles
    System sys(cfg);
    EXPECT_EQ(sys.numWeaveDomains(), 3u);
    CoreId next = 0;
    for (unsigned d = 0; d < sys.numWeaveDomains(); ++d) {
        const std::vector<CoreId> tiles = sys.weaveDomainTiles(d);
        ASSERT_FALSE(tiles.empty());
        EXPECT_EQ(tiles.front(), next); // contiguous with predecessor
        for (std::size_t k = 0; k < tiles.size(); ++k) {
            if (k) {
                EXPECT_EQ(tiles[k], tiles[k - 1] + 1);
            }
            EXPECT_EQ(sys.weaveDomainOf(tiles[k]), d);
        }
        next = tiles.back() + 1;
    }
    EXPECT_EQ(next, sys.numTiles()); // partition covers every tile

    cfg.weaveDomains = 64; // more domains than tiles clamps
    EXPECT_EQ(cfg.effectiveWeaveDomains(), 16u);
}

TEST(NetworkWeave, RouteDomainCrossingsCountsBoundaryHops)
{
    SysConfig cfg = SysConfig::smallTest();
    cfg.weaveDomains = 4; // one 4-tile row per domain on the 4x4 mesh
    System sys(cfg);
    const ClusterRange whole = sys.network().wholeMachine();
    Network &net = sys.network();
    EXPECT_EQ(net.routeDomainCrossings(0, 0, whole), 0u);
    EXPECT_EQ(net.routeDomainCrossings(0, 3, whole), 0u);  // same row
    EXPECT_EQ(net.routeDomainCrossings(5, 6, whole), 0u);  // same row
    EXPECT_EQ(net.routeDomainCrossings(0, 12, whole), 3u); // one column
    EXPECT_EQ(net.routeDomainCrossings(0, 15, whole), 3u); // corner hop
}
