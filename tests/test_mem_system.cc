/**
 * @file
 * Memory-system integration tests: the full access path (TLB -> L1 ->
 * home L2 -> controller -> DRAM), MSI coherence actions, purge
 * semantics, the DRAM-region access check, and page re-homing.
 */

#include <gtest/gtest.h>

#include <map>

#include "core/access_check.hh"
#include "mem/directory.hh"
#include "mem/memory_system.hh"
#include "noc/network.hh"
#include "sim/rng.hh"

using namespace ih;

namespace
{

struct Rig
{
    SysConfig cfg = SysConfig::smallTest();
    Topology topo{cfg};
    Network net{cfg, topo};
    MemorySystem mem{cfg, topo, net};
    PhysAllocator &alloc = mem.allocator();
    AddressSpace space{cfg, alloc, 1, Domain::SECURE};
    ClusterRange whole{0, topo.numTiles()};

    AccessResult
    acc(CoreId core, VAddr va, MemOp op, Cycle t = 0)
    {
        return mem.access(core, space, va, op, t, whole);
    }
};

} // namespace

TEST(MemorySystem, ColdAccessMissesEverywhere)
{
    Rig r;
    const AccessResult res = r.acc(0, 0x1000, MemOp::LOAD);
    EXPECT_FALSE(res.tlbHit);
    EXPECT_FALSE(res.l1Hit);
    EXPECT_FALSE(res.l2Hit);
    EXPECT_GT(res.finish, r.cfg.dramLatency); // went to DRAM
}

TEST(MemorySystem, SecondAccessHitsL1)
{
    Rig r;
    r.acc(0, 0x1000, MemOp::LOAD);
    const AccessResult res = r.acc(0, 0x1000, MemOp::LOAD, 1000);
    EXPECT_TRUE(res.tlbHit);
    EXPECT_TRUE(res.l1Hit);
    EXPECT_EQ(res.finish, 1000 + r.cfg.l1Latency);
}

TEST(MemorySystem, OtherCoreHitsSharedL2)
{
    Rig r;
    r.acc(0, 0x1000, MemOp::LOAD);
    const AccessResult res = r.acc(1, 0x1000, MemOp::LOAD, 5000);
    EXPECT_FALSE(res.l1Hit);
    EXPECT_TRUE(res.l2Hit);
}

TEST(MemorySystem, StoreMakesLineDirtyAndWritable)
{
    Rig r;
    r.acc(0, 0x1000, MemOp::STORE);
    const PageInfo *pi = r.space.translate(0x1000);
    ASSERT_NE(pi, nullptr);
    const CacheLine *line = r.mem.l1(0).peek(pi->ppage);
    ASSERT_NE(line, nullptr);
    EXPECT_TRUE(line->dirty);
    EXPECT_TRUE(line->writable);
}

TEST(MemorySystem, StoreInvalidatesOtherSharers)
{
    Rig r;
    r.acc(0, 0x1000, MemOp::LOAD);
    r.acc(1, 0x1000, MemOp::LOAD, 1000);
    const Addr pa = r.space.translate(0x1000)->ppage;
    EXPECT_NE(r.mem.l1(0).peek(pa), nullptr);
    EXPECT_NE(r.mem.l1(1).peek(pa), nullptr);

    r.acc(2, 0x1000, MemOp::STORE, 2000);
    EXPECT_EQ(r.mem.l1(0).peek(pa), nullptr);
    EXPECT_EQ(r.mem.l1(1).peek(pa), nullptr);
    EXPECT_NE(r.mem.l1(2).peek(pa), nullptr);
    EXPECT_GT(r.mem.stats().value("invalidations_sent"), 0u);
}

TEST(MemorySystem, DirtyDataForwardedToReader)
{
    Rig r;
    r.acc(0, 0x1000, MemOp::STORE); // core 0 owns the line dirty
    const AccessResult res = r.acc(1, 0x1000, MemOp::LOAD, 4000);
    EXPECT_TRUE(res.l2Hit);
    EXPECT_EQ(r.mem.stats().value("dirty_forwards"), 1u);
    const Addr pa = r.space.translate(0x1000)->ppage;
    // The former owner's copy is clean now.
    const CacheLine *old_owner = r.mem.l1(0).peek(pa);
    ASSERT_NE(old_owner, nullptr);
    EXPECT_FALSE(old_owner->dirty);
}

TEST(MemorySystem, UpgradeOnStoreToSharedLine)
{
    Rig r;
    r.acc(0, 0x1000, MemOp::LOAD);
    r.acc(1, 0x1000, MemOp::LOAD, 1000);
    // Core 0 hits its own L1 copy but must upgrade (invalidate core 1).
    const AccessResult res = r.acc(0, 0x1000, MemOp::STORE, 2000);
    EXPECT_TRUE(res.l1Hit);
    EXPECT_EQ(r.mem.stats().value("upgrades"), 1u);
    const Addr pa = r.space.translate(0x1000)->ppage;
    EXPECT_EQ(r.mem.l1(1).peek(pa), nullptr);
}

TEST(MemorySystem, TlbMissChargesPageWalk)
{
    Rig r;
    const AccessResult first = r.acc(0, 0x1000, MemOp::LOAD);
    r.acc(0, 0x1000, MemOp::LOAD, first.finish);
    // New page, same core: TLB miss but maybe L2-local; charge at least
    // the walk latency.
    const AccessResult other =
        r.acc(0, 0x100000, MemOp::LOAD, first.finish);
    EXPECT_FALSE(other.tlbHit);
    EXPECT_GE(other.finish - first.finish, r.cfg.tlbMissLatency);
}

TEST(MemorySystem, PurgeErasesPrivateStateAndCharges)
{
    Rig r;
    r.acc(0, 0x1000, MemOp::STORE);
    r.acc(0, 0x2000, MemOp::LOAD);
    EXPECT_GT(r.mem.l1(0).validLines(), 0u);

    const Cycle done = r.mem.purgePrivate({0}, 10000);
    EXPECT_EQ(r.mem.l1(0).validLines(), 0u);
    const Cycle expected = 10000 +
                           r.cfg.l1Lines() * r.cfg.l1PurgePerLine +
                           r.cfg.tlbEntries * r.cfg.tlbPurgePerEntry;
    EXPECT_EQ(done, expected);
    // Dirty data survived into the L2 home (write-back, not loss).
    const Addr pa = r.space.translate(0x1000)->ppage;
    const CoreId home = r.mem.homeOfPhys(pa);
    const CacheLine *l2_line = r.mem.l2(home).peek(pa);
    ASSERT_NE(l2_line, nullptr);
    EXPECT_TRUE(l2_line->dirty);
}

TEST(MemorySystem, PurgeIsParallelAcrossCores)
{
    Rig r;
    const Cycle one = r.mem.purgePrivate({0}, 0);
    // Re-purge (caches empty but the dummy-buffer cost is geometric).
    const Cycle all = r.mem.purgePrivate({0, 1, 2, 3, 4, 5}, 0);
    EXPECT_EQ(one, all); // max, not sum
}

TEST(MemorySystem, PurgedTlbMissesAgain)
{
    Rig r;
    r.acc(0, 0x1000, MemOp::LOAD);
    r.mem.purgePrivate({0}, 0);
    const AccessResult res = r.acc(0, 0x1000, MemOp::LOAD, 20000);
    EXPECT_FALSE(res.tlbHit);
    EXPECT_FALSE(res.l1Hit);
    EXPECT_TRUE(res.l2Hit); // shared state was not purged
}

TEST(MemorySystem, AccessCheckerBlocksForbiddenRegions)
{
    Rig r;
    AddressSpace insecure(r.cfg, r.alloc, 2, Domain::INSECURE);
    insecure.setAllowedRegions({0}); // maps into region 0...
    r.mem.setAccessChecker(
        RegionCheck::fromFunction([](Domain d, RegionId region) {
            return !(d == Domain::INSECURE && region == 0); // 0 is secure
        }));
    const AccessResult res =
        r.mem.access(0, insecure, 0x1000, MemOp::LOAD, 0, r.whole);
    EXPECT_TRUE(res.blocked);
    EXPECT_EQ(r.mem.blockedAccesses(), 1u);
    // The blocked request must not have installed any state.
    EXPECT_EQ(r.mem.l1(0).validLines(), 0u);
}

TEST(MemorySystem, SecureAllowedThroughChecker)
{
    Rig r;
    r.mem.setAccessChecker(RegionCheck::fromFunction(
        [](Domain d, RegionId) { return d == Domain::SECURE; }));
    const AccessResult res = r.acc(0, 0x1000, MemOp::LOAD);
    EXPECT_FALSE(res.blocked);
}

TEST(MemorySystem, TableCheckBlocksLikeClosure)
{
    // The value-type check the production models install must behave
    // like the closure escape hatch on the access path itself.
    Rig r;
    AddressSpace insecure(r.cfg, r.alloc, 2, Domain::INSECURE);
    insecure.setAllowedRegions({0});
    RegionOwnership own(r.cfg.numRegions);
    own.assign(0, Domain::SECURE); // region 0 secure-owned
    r.mem.setAccessChecker(own.makeCheck());
    const AccessResult blocked =
        r.mem.access(0, insecure, 0x1000, MemOp::LOAD, 0, r.whole);
    EXPECT_TRUE(blocked.blocked);
    EXPECT_EQ(r.mem.l1(0).validLines(), 0u);
    const AccessResult ok = r.acc(0, 0x1000, MemOp::LOAD); // secure space
    EXPECT_FALSE(ok.blocked);
    // Clearing restores pass-through for everyone.
    r.mem.setAccessChecker(RegionCheck());
    const AccessResult after =
        r.mem.access(0, insecure, 0x1000, MemOp::LOAD, 0, r.whole);
    EXPECT_FALSE(after.blocked);
}

TEST(MemorySystem, SetAssociativeTlbConfigRuns)
{
    SysConfig cfg = SysConfig::smallTest();
    cfg.tlbWays = 2; // 8 entries -> 4 sets of 2
    cfg.validate();
    Topology topo{cfg};
    Network net{cfg, topo};
    MemorySystem mem{cfg, topo, net};
    AddressSpace space{cfg, mem.allocator(), 1, Domain::SECURE};
    const ClusterRange whole{0, topo.numTiles()};
    EXPECT_EQ(mem.tlb(0).ways(), 2u);
    EXPECT_EQ(mem.tlb(0).numSets(), 4u);
    // Touch far more pages than the TLB holds; the per-set structure
    // must keep serving translations and counting coherently.
    unsigned accesses = 0;
    for (VAddr va = 0; va < 64 * cfg.pageBytes; va += cfg.pageBytes / 2) {
        mem.access(0, space, va, MemOp::LOAD, 0, whole);
        ++accesses;
    }
    EXPECT_EQ(mem.tlb(0).hits() + mem.tlb(0).misses(), accesses);
    EXPECT_GT(mem.tlb(0).stats().value("evictions"), 0u);
    EXPECT_LE(mem.tlb(0).validEntriesOf(Domain::SECURE), 8u);
}

TEST(MemorySystem, DrainControllersClosesRows)
{
    Rig r;
    r.acc(0, 0x1000, MemOp::LOAD);
    // Touch the same row again through another core: row-buffer hit.
    r.acc(1, 0x1040, MemOp::LOAD, 100000);
    const auto hits_before = r.mem.mc(0).dram().stats().value("row_hits") +
                             r.mem.mc(1).dram().stats().value("row_hits");
    EXPECT_GT(hits_before, 0u);

    const Cycle done = r.mem.drainControllers({0, 1}, 200000);
    EXPECT_GE(done, 200000 + r.cfg.mcDrainBase);
}

TEST(MemorySystem, RegionControllerRemap)
{
    Rig r;
    EXPECT_EQ(r.mem.regionController(0), 0u);
    r.mem.setRegionController(0, 1);
    EXPECT_EQ(r.mem.regionController(0), 1u);
}

TEST(MemorySystem, RehomeScrubsOldSlicesOnly)
{
    Rig r;
    r.space.setHomingMode(HomingMode::LOCAL_HOMING);
    r.space.setAllowedSlices({0, 1, 2, 3});
    Cycle t = 0;
    for (VAddr va = 0; va < 8 * r.cfg.pageBytes; va += 64)
        t = r.acc(0, va, MemOp::LOAD, t).finish;

    unsigned lines_on_lost = 0;
    for (CoreId s : {2u, 3u})
        lines_on_lost += r.mem.l2(s).validLines();
    EXPECT_GT(lines_on_lost, 0u);

    const std::uint64_t moved = r.mem.rehomePages(r.space, {0, 1});
    EXPECT_EQ(moved, 4u);
    for (CoreId s : {2u, 3u})
        EXPECT_EQ(r.mem.l2(s).validLines(), 0u);
    // Surviving slices keep their lines.
    EXPECT_GT(r.mem.l2(0).validLines() + r.mem.l2(1).validLines(), 0u);
}

TEST(MemorySystem, L1EvictionWritesBackDirtyLine)
{
    Rig r;
    // Fill one L1 set with dirty lines, then overflow it.
    const unsigned sets = r.cfg.l1Bytes / (64 * r.cfg.l1Assoc);
    Cycle t = 0;
    for (unsigned w = 0; w <= r.cfg.l1Assoc; ++w) {
        const VAddr va = static_cast<VAddr>(w) * sets * 64;
        t = r.acc(0, va, MemOp::STORE, t).finish;
    }
    EXPECT_GT(r.mem.stats().value("l1_writebacks"), 0u);
}

TEST(Directory, BitmaskHelpers)
{
    std::uint64_t m = 0;
    m = Directory::addSharer(m, 3);
    m = Directory::addSharer(m, 60);
    EXPECT_TRUE(Directory::isSharer(m, 3));
    EXPECT_FALSE(Directory::isSharer(m, 4));
    EXPECT_EQ(Directory::count(m), 2u);
    EXPECT_FALSE(Directory::single(m));
    m = Directory::removeSharer(m, 60);
    EXPECT_TRUE(Directory::single(m));
    EXPECT_FALSE(Directory::single(0));

    std::vector<CoreId> seen;
    Directory::forEachSharer(Directory::addSharer(m, 17),
                             [&](CoreId c) { seen.push_back(c); });
    EXPECT_EQ(seen, (std::vector<CoreId>{3, 17}));
}

TEST(MemController, QueueContentionGrows)
{
    const SysConfig cfg = SysConfig::smallTest();
    MemController mc(0, cfg);
    const Cycle t1 = mc.serviceRead(0x0, 0);
    const Cycle t2 = mc.serviceRead(0x100000, 0);
    EXPECT_GT(t2, t1); // second request waits for the issue slot
    EXPECT_GT(mc.stats().value("queue_wait_cycles"), 0u);
}

TEST(MemController, DrainCostScalesWithPendingWrites)
{
    const SysConfig cfg = SysConfig::smallTest();
    MemController mc(0, cfg);
    const Cycle empty_drain = mc.drain(0) - 0;
    for (int i = 0; i < 10; ++i)
        mc.acceptWrite(static_cast<Addr>(i) * 64, 0);
    EXPECT_EQ(mc.pendingWrites(), 10u);
    const Cycle start = 100000;
    const Cycle full_drain = mc.drain(start) - start;
    EXPECT_GT(full_drain, empty_drain);
    EXPECT_EQ(mc.pendingWrites(), 0u);
}

TEST(Dram, RowBufferHitsAndPurge)
{
    const SysConfig cfg = SysConfig::smallTest();
    Dram d("t", cfg);
    EXPECT_EQ(d.access(0x0), cfg.dramLatency);       // row miss
    EXPECT_EQ(d.access(0x40), cfg.dramRowHitLatency); // same row
    d.closeAllRows();
    EXPECT_EQ(d.access(0x40), cfg.dramLatency);       // purged
}

TEST(MemorySystem, BlockedAccessDoesNotPrimeTlbOrPredictor)
{
    // The region check runs after the page walk but *before* the TLB
    // fill: on a fault the hardware discards the walked translation, so
    // a blocked access never primes the TLB/way predictor for a line it
    // was not allowed to touch (a blocked-then-allowed sequence pays
    // the full walk twice).
    Rig r;
    AddressSpace insecure(r.cfg, r.alloc, 2, Domain::INSECURE);
    insecure.setAllowedRegions({0});
    r.mem.setAccessChecker(
        RegionCheck::fromFunction([](Domain d, RegionId region) {
            return !(d == Domain::INSECURE && region == 0);
        }));

    const AccessResult blocked =
        r.mem.access(0, insecure, 0x1000, MemOp::LOAD, 0, r.whole);
    EXPECT_TRUE(blocked.blocked);
    EXPECT_FALSE(blocked.tlbHit);
    // The walk itself is still charged — the region of the physical
    // address is only known once it completes.
    EXPECT_EQ(blocked.finish,
              r.cfg.tlbMissLatency + r.cfg.pipelineFlushCycles);
    EXPECT_EQ(r.mem.tlb(0).stats().value("fills"), 0u);
    EXPECT_EQ(r.mem.tlb(0).misses(), 1u);
    EXPECT_EQ(r.mem.tlb(0).validEntriesOf(Domain::INSECURE), 0u);

    // Allowed afterwards: nothing was primed, so the access misses the
    // TLB again and only now installs the entry.
    r.mem.setAccessChecker(RegionCheck());
    const AccessResult ok =
        r.mem.access(0, insecure, 0x1000, MemOp::LOAD, 1000, r.whole);
    EXPECT_FALSE(ok.blocked);
    EXPECT_FALSE(ok.tlbHit);
    EXPECT_EQ(r.mem.tlb(0).misses(), 2u);
    EXPECT_EQ(r.mem.tlb(0).stats().value("fills"), 1u);
    EXPECT_EQ(r.mem.tlb(0).validEntriesOf(Domain::INSECURE), 1u);

    // A blocked access that *hits* a legitimately installed entry keeps
    // it (the entry was earned by an allowed access) and charges only
    // the protection-fault penalty.
    r.mem.setAccessChecker(
        RegionCheck::fromFunction([](Domain d, RegionId region) {
            return !(d == Domain::INSECURE && region == 0);
        }));
    const AccessResult again =
        r.mem.access(0, insecure, 0x1000, MemOp::LOAD, 2000, r.whole);
    EXPECT_TRUE(again.blocked);
    EXPECT_TRUE(again.tlbHit);
    EXPECT_EQ(again.finish, 2000 + r.cfg.pipelineFlushCycles);
    EXPECT_EQ(r.mem.tlb(0).validEntriesOf(Domain::INSECURE), 1u);
    // Blocked accesses never install cache state either (unchanged).
    EXPECT_EQ(r.mem.l1(0).validLines(), 1u); // just the allowed line
}

// ---- Fast-path vs reference equivalence -----------------------------------

namespace
{

struct EquivRig
{
    SysConfig cfg = SysConfig::smallTest();
    Topology topo{cfg};
    Network net{cfg, topo};
    MemorySystem mem{cfg, topo, net};
    AddressSpace hashSpace{cfg, mem.allocator(), 1, Domain::SECURE};
    AddressSpace localSpace{cfg, mem.allocator(), 2, Domain::SECURE};
    AddressSpace insecure{cfg, mem.allocator(), 3, Domain::INSECURE};
    ClusterRange whole{0, topo.numTiles()};

    AddressSpace &
    spaceOf(unsigned which)
    {
        return which == 0 ? hashSpace
                          : which == 1 ? localSpace : insecure;
    }
};

std::vector<std::pair<std::string, std::uint64_t>>
countersOf(EquivRig &r)
{
    std::vector<std::pair<std::string, std::uint64_t>> out;
    const auto add = [&](const StatGroup &g) {
        for (const auto &[name, c] : g.counters())
            out.emplace_back(g.name() + "." + name, c.value());
    };
    add(r.mem.stats());
    add(r.net.stats());
    for (CoreId c = 0; c < r.topo.numTiles(); ++c) {
        add(r.mem.l1(c).stats());
        add(r.mem.l2(c).stats());
        add(r.mem.tlb(c).stats());
    }
    for (McId m = 0; m < r.mem.numMcs(); ++m) {
        add(r.mem.mc(m).stats());
        add(r.mem.mc(m).dram().stats());
    }
    return out;
}

} // namespace

TEST(MemorySystem, SplitAccessMatchesReferenceOnMixedTrace)
{
    // Drive the split access() and the single-function
    // accessReference() through an identical mixed trace — TLB
    // hits/misses, L1/L2 hits and misses, store upgrades, sharing,
    // both homing modes, blocked insecure accesses and a mid-trace
    // purge (stale way predictions) — and require identical
    // AccessResults at every step plus identical full counter maps at
    // the end.
    EquivRig a; // split fast/miss path
    EquivRig b; // reference implementation
    for (EquivRig *r : {&a, &b}) {
        r->localSpace.setHomingMode(HomingMode::LOCAL_HOMING);
        r->localSpace.setAllowedSlices({0, 1});
        r->insecure.setAllowedRegions({0, 1});
        // Region 0 is secure-owned: the insecure pages that round-robin
        // into it block, the rest are allowed.
        r->mem.setAccessChecker(
            RegionCheck::fromFunction([](Domain d, RegionId region) {
                return !(d == Domain::INSECURE && region == 0);
            }));
    }

    Cycle ta = 0;
    Cycle tb = 0;
    unsigned step = 0;
    bool saw_blocked = false;
    bool saw_upgrade_path = false;
    const auto drive = [&](unsigned which, CoreId core, VAddr va,
                           MemOp op) {
        const AccessResult ra =
            a.mem.access(core, a.spaceOf(which), va, op, ta, a.whole);
        const AccessResult rb = b.mem.accessReference(
            core, b.spaceOf(which), va, op, tb, b.whole);
        ASSERT_EQ(ra.finish, rb.finish) << "step " << step;
        ASSERT_EQ(ra.tlbHit, rb.tlbHit) << "step " << step;
        ASSERT_EQ(ra.l1Hit, rb.l1Hit) << "step " << step;
        ASSERT_EQ(ra.l2Hit, rb.l2Hit) << "step " << step;
        ASSERT_EQ(ra.blocked, rb.blocked) << "step " << step;
        saw_blocked |= ra.blocked;
        saw_upgrade_path |= ra.l1Hit && op == MemOp::STORE;
        ta = ra.finish;
        tb = rb.finish;
        ++step;
    };

    for (unsigned i = 0; i < 600; ++i) {
        drive(0, i % 4, 0x10000 + (i * 64) % 8192,
              (i % 3 == 0) ? MemOp::STORE : MemOp::LOAD);
        if (i % 7 == 0) {
            drive(1, (i % 4) + 4, 0x40000 + (i * 64) % 16384,
                  (i % 2) ? MemOp::STORE : MemOp::LOAD);
        }
        if (i % 5 == 0) {
            drive(2, i % 4, 0x1000 + (i % 4) * 0x2000,
                  (i % 2) ? MemOp::STORE : MemOp::LOAD);
        }
    }
    ASSERT_TRUE(saw_blocked) << "trace never exercised the blocked path";
    ASSERT_TRUE(saw_upgrade_path);

    // Purge, then keep going: cold TLBs + stale way predictions.
    ta = a.mem.purgePrivate({0, 1, 2, 3}, ta);
    tb = b.mem.purgePrivate({0, 1, 2, 3}, tb);
    ASSERT_EQ(ta, tb);
    for (unsigned i = 0; i < 200; ++i)
        drive(0, i % 4, 0x10000 + (i * 64) % 8192, MemOp::LOAD);

    const auto ca = countersOf(a);
    const auto cb = countersOf(b);
    ASSERT_EQ(ca.size(), cb.size());
    for (std::size_t i = 0; i < ca.size(); ++i) {
        EXPECT_EQ(ca[i].first, cb[i].first) << "at index " << i;
        EXPECT_EQ(ca[i].second, cb[i].second)
            << "counter " << ca[i].first << " diverged";
    }
}

// The translation memos (the address space's translation cache, the
// noted-home skip and the TLB way predictor) are validated shortcuts.
// A trace that cycles through more pages than any memo has slots, over
// every region, in a local-homed and a hash-homed space, with a
// mid-trace re-homing, must give identical results and counters on the
// split and the reference path, and the physical home map must follow
// every page's current home.
TEST(MemorySystem, TranslationMemosMatchReferenceAcrossManyPages)
{
    EquivRig a; // split fast/miss path
    EquivRig b; // reference implementation
    for (EquivRig *r : {&a, &b}) {
        r->localSpace.setHomingMode(HomingMode::LOCAL_HOMING);
        r->localSpace.setAllowedSlices({0, 1, 2, 3, 4, 5});
    }
    ASSERT_EQ(a.localSpace.allowedRegions().size(), a.cfg.numRegions);

    constexpr unsigned kPages = 160; // beyond every memo's slot count
    const VAddr page = a.cfg.pageBytes;
    Cycle ta = 0;
    Cycle tb = 0;
    unsigned step = 0;
    const auto drive = [&](unsigned which, CoreId core, VAddr va,
                           MemOp op) {
        const AccessResult ra =
            a.mem.access(core, a.spaceOf(which), va, op, ta, a.whole);
        const AccessResult rb = b.mem.accessReference(
            core, b.spaceOf(which), va, op, tb, b.whole);
        ASSERT_EQ(ra.finish, rb.finish) << "step " << step;
        ASSERT_EQ(ra.tlbHit, rb.tlbHit) << "step " << step;
        ASSERT_EQ(ra.l1Hit, rb.l1Hit) << "step " << step;
        ASSERT_EQ(ra.l2Hit, rb.l2Hit) << "step " << step;
        ASSERT_EQ(ra.blocked, rb.blocked) << "step " << step;
        if (which == 1) {
            const PageInfo *info = a.localSpace.translate(va);
            ASSERT_NE(info, nullptr);
            EXPECT_EQ(a.mem.homeOfPhys(info->ppage), info->homeSlice)
                << "step " << step;
        }
        ta = ra.finish;
        tb = rb.finish;
        ++step;
    };
    const auto sweep = [&](unsigned rounds) {
        for (unsigned round = 0; round < rounds; ++round) {
            for (unsigned p = 0; p < kPages; ++p) {
                // Strided page order: consecutive accesses land on pages
                // of different regions and different slots.
                const unsigned q = (p * 37 + round * 11) % kPages;
                const VAddr line = ((p + round) % 8) * a.cfg.lineBytes;
                drive(1, p % 8, 0x100000 + q * page + line,
                      (p + round) % 3 == 0 ? MemOp::STORE : MemOp::LOAD);
                drive(0, (p + 3) % 8, 0x400000 + q * page + line,
                      MemOp::LOAD);
                if (p % 4 == 0)
                    drive(1, p % 8, 0x100000 + p * page, MemOp::LOAD);
            }
        }
    };

    sweep(3);
    EXPECT_EQ(a.localSpace.mappedPages(), kPages);
    const std::uint64_t moved_a = a.mem.rehomePages(a.localSpace, {6, 7});
    const std::uint64_t moved_b = b.mem.rehomePages(b.localSpace, {6, 7});
    ASSERT_EQ(moved_a, moved_b);
    ASSERT_GT(moved_a, 0u);
    sweep(2);

    const auto ca = countersOf(a);
    const auto cb = countersOf(b);
    ASSERT_EQ(ca.size(), cb.size());
    for (std::size_t i = 0; i < ca.size(); ++i) {
        EXPECT_EQ(ca[i].first, cb[i].first) << "at index " << i;
        EXPECT_EQ(ca[i].second, cb[i].second)
            << "counter " << ca[i].first << " diverged";
    }
}

// ---- Single-owner invariant ------------------------------------------------

namespace
{

/** Tiny caches on the 4x4 mesh: L1 victims and L2 back-invalidations
 *  happen within a few accesses. */
SysConfig
tinyCacheConfig()
{
    SysConfig cfg = SysConfig::smallTest();
    cfg.l1Bytes = 512;      // 4 sets x 2 ways
    cfg.l1Assoc = 2;
    cfg.l2SliceBytes = 1024; // 8 sets x 2 ways
    cfg.l2Assoc = 2;
    cfg.validate();
    return cfg;
}

} // namespace

// The miss path forwards dirty data from at most one L1: the one the
// directory lists as the only sharer besides the requester. That is
// sound only while an L1 holds a line dirty exactly when its home L2
// line's sharer mask is that core alone. Seeded random loads and
// stores from every core over three spaces (two local-homed, one
// hash-homed on a slice subset), interleaved with private purges and
// page re-homing, must keep the invariant after every operation.
TEST(MemorySystem, DirtyL1LineIsItsHomeSoleSharer)
{
    const SysConfig cfg = tinyCacheConfig();
    Topology topo(cfg);
    Network net(cfg, topo);
    MemorySystem mem(cfg, topo, net);
    const ClusterRange whole{0, topo.numTiles()};
    AddressSpace secure(cfg, mem.allocator(), 1, Domain::SECURE);
    AddressSpace insecure(cfg, mem.allocator(), 2, Domain::INSECURE);
    AddressSpace hashed(cfg, mem.allocator(), 3, Domain::INSECURE);
    secure.setHomingMode(HomingMode::LOCAL_HOMING);
    secure.setAllowedSlices({0, 1, 2, 3, 4, 5, 6, 7});
    insecure.setHomingMode(HomingMode::LOCAL_HOMING);
    insecure.setAllowedSlices({8, 9, 10, 11, 12, 13, 14, 15});
    hashed.setAllowedSlices({4, 5, 6, 7, 8, 9, 10, 11});
    AddressSpace *const spaces[] = {&secure, &insecure, &hashed};

    // Physical page -> (space, virtual page), to find a line's home.
    std::map<Addr, std::pair<AddressSpace *, VAddr>> owner;
    const auto homeOf = [&](Addr line_pa) {
        const Addr ppage = line_pa & ~static_cast<Addr>(cfg.pageBytes - 1);
        const auto it = owner.find(ppage);
        if (it == owner.end()) {
            ADD_FAILURE() << "no space maps ppage " << ppage;
            return CoreId{0};
        }
        AddressSpace &space = *it->second.first;
        if (space.homingMode() == HomingMode::LOCAL_HOMING)
            return space.translate(it->second.second)->homeSlice;
        return Homing::hashHome(line_pa, space.allowedSlices());
    };
    unsigned dirty_seen = 0;
    const auto check = [&](unsigned step) {
        for (CoreId c = 0; c < topo.numTiles(); ++c) {
            mem.l1(c).forEachLine([&](CacheLine &line) {
                if (!line.dirty)
                    return;
                ++dirty_seen;
                const CacheLine *home =
                    mem.l2(homeOf(line.lineAddr)).peek(line.lineAddr);
                ASSERT_NE(home, nullptr)
                    << "step " << step << ": core " << c
                    << " holds a dirty line its home does not cache";
                ASSERT_EQ(home->sharers, Directory::bit(c))
                    << "step " << step << ": core " << c
                    << " holds a dirty line beside other sharers";
            });
        }
    };

    Rng rng(20201);
    Cycle t = 0;
    const std::vector<std::vector<CoreId>> secure_homes = {
        {0, 1, 2, 3, 4, 5, 6, 7}, {0, 1, 2, 3}, {4, 5, 6, 7, 8, 9}};
    unsigned purges = 0;
    unsigned rehomes = 0;
    for (unsigned step = 0; step < 20000; ++step) {
        const std::uint64_t roll = rng.nextRange(1000);
        if (roll < 15) {
            std::vector<CoreId> cores;
            for (CoreId c = 0; c < topo.numTiles(); ++c) {
                if (rng.chance(0.3))
                    cores.push_back(c);
            }
            t = mem.purgePrivate(cores, t);
            ++purges;
        } else if (roll < 20) {
            mem.rehomePages(secure,
                            secure_homes[rng.nextRange(
                                secure_homes.size())]);
            ++rehomes;
        } else {
            const CoreId core =
                static_cast<CoreId>(rng.nextRange(topo.numTiles()));
            AddressSpace &space = *spaces[rng.nextRange(3)];
            // 6 pages x 4 lines: contended, and larger than the caches.
            const VAddr va = rng.nextRange(6) * cfg.pageBytes +
                             rng.nextRange(4) * cfg.lineBytes;
            const MemOp op =
                rng.chance(0.4) ? MemOp::STORE : MemOp::LOAD;
            t = mem.access(core, space, va, op, t, whole).finish;
            const VAddr vpage = va & ~static_cast<VAddr>(cfg.pageBytes - 1);
            owner[space.translate(va)->ppage] = {&space, vpage};
        }
        check(step);
        if (HasFatalFailure())
            return;
    }
    // The trace must reach the machinery the invariant depends on.
    EXPECT_GT(purges, 0u);
    EXPECT_GT(rehomes, 0u);
    EXPECT_GT(dirty_seen, 0u);
    EXPECT_GT(mem.stats().value("upgrades"), 0u);
    EXPECT_GT(mem.stats().value("dirty_forwards"), 0u);
    EXPECT_GT(mem.stats().value("l1_writebacks"), 0u);
    EXPECT_GT(mem.stats().value("back_invalidations"), 0u);
    EXPECT_GT(mem.stats().value("rehomed_pages"), 0u);
}
