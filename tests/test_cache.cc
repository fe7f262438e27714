/**
 * @file
 * Cache tag-store and replacement-policy tests.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "mem/cache.hh"
#include "mem/replacement.hh"
#include "sim/rng.hh"

using namespace ih;

namespace
{

/** 1 KiB, 2-way, 64 B lines -> 8 sets. */
Cache
smallCache(const std::string &repl = "lru")
{
    return Cache("t", 1024, 2, 64, repl);
}

} // namespace

TEST(Cache, Geometry)
{
    Cache c = smallCache();
    EXPECT_EQ(c.numSets(), 8u);
    EXPECT_EQ(c.assoc(), 2u);
    EXPECT_EQ(c.capacityLines(), 16u);
    EXPECT_EQ(c.lineAddrOf(0x1234), 0x1200u);
    EXPECT_EQ(c.setOf(0x0000), c.setOf(0x2000)); // 8 sets * 64 B period
}

TEST(Cache, MissThenHit)
{
    Cache c = smallCache();
    EXPECT_EQ(c.lookup(0x100), nullptr);
    c.insert(0x100, 1, Domain::SECURE);
    CacheLine *line = c.lookup(0x100);
    ASSERT_NE(line, nullptr);
    EXPECT_EQ(line->ownerProc, 1u);
    EXPECT_EQ(line->ownerDomain, Domain::SECURE);
    EXPECT_EQ(c.hits(), 1u);
    EXPECT_EQ(c.misses(), 1u);
}

TEST(Cache, SameSetEvictionIsLru)
{
    Cache c = smallCache();
    const Addr a = 0x0000, b = 0x0200, d = 0x0400; // same set (stride 512)
    c.insert(a, 0, Domain::INSECURE);
    c.insert(b, 0, Domain::INSECURE);
    c.lookup(a); // a is now MRU
    const Eviction ev = c.insert(d, 0, Domain::INSECURE);
    ASSERT_TRUE(ev.happened);
    EXPECT_EQ(ev.victim.lineAddr, b);
    EXPECT_NE(c.peek(a), nullptr);
    EXPECT_EQ(c.peek(b), nullptr);
}

TEST(Cache, InsertIntoFreeWayNoEviction)
{
    Cache c = smallCache();
    EXPECT_FALSE(c.insert(0x000, 0, Domain::INSECURE).happened);
    EXPECT_FALSE(c.insert(0x200, 0, Domain::INSECURE).happened);
}

// insert() hands back the line it filled — the miss path sets the
// coherence bits through it instead of searching the set again — both
// into a free way and into an evicted victim's way, under LRU and
// tree-PLRU.
TEST(Cache, InsertReturnsTheFilledLine)
{
    for (const char *repl : {"lru", "plru"}) {
        Cache c = smallCache(repl);
        // Three lines of one set (stride 512): two free ways, then a
        // fill that has to evict.
        for (const Addr a : {Addr(0x0000), Addr(0x0200), Addr(0x0410)}) {
            const Eviction ev = c.insert(a, 7, Domain::SECURE);
            EXPECT_EQ(ev.happened, a == 0x0410) << repl << " " << a;
            ASSERT_NE(ev.line, nullptr) << repl;
            EXPECT_TRUE(ev.line->valid);
            EXPECT_EQ(ev.line->lineAddr, c.lineAddrOf(a)) << repl;
            EXPECT_EQ(ev.line->ownerProc, 7u);
            EXPECT_FALSE(ev.line->dirty);
            EXPECT_EQ(ev.line, c.findLine(a)) << repl << " " << a;
            if (ev.happened) {
                EXPECT_NE(ev.victim.lineAddr, c.lineAddrOf(a));
                EXPECT_EQ(c.findLine(ev.victim.lineAddr), nullptr);
            }
            // Writes through the returned pointer land in the cache.
            ev.line->dirty = true;
            EXPECT_TRUE(c.peek(a)->dirty) << repl;
        }
    }
}

TEST(Cache, DirtyEvictionReported)
{
    Cache c = smallCache();
    c.insert(0x000, 0, Domain::INSECURE);
    c.lookup(0x000)->dirty = true;
    c.insert(0x200, 0, Domain::INSECURE);
    const Eviction ev = c.insert(0x400, 0, Domain::INSECURE);
    ASSERT_TRUE(ev.happened);
    EXPECT_TRUE(ev.victim.dirty);
    EXPECT_EQ(c.stats().value("dirty_evictions"), 1u);
}

TEST(Cache, InvalidateLine)
{
    Cache c = smallCache();
    c.insert(0x100, 2, Domain::SECURE);
    auto dropped = c.invalidateLine(0x100);
    ASSERT_TRUE(dropped.has_value());
    EXPECT_EQ(dropped->ownerProc, 2u);
    EXPECT_EQ(c.peek(0x100), nullptr);
    EXPECT_FALSE(c.invalidateLine(0x100).has_value());
}

TEST(Cache, FlushAllReallyErasesEverything)
{
    Cache c = smallCache();
    for (Addr a = 0; a < 1024; a += 64)
        c.insert(a, 0, Domain::SECURE);
    c.lookup(0x40)->dirty = true;
    unsigned dirty_seen = 0;
    const unsigned flushed = c.flushAll(
        [&](const CacheLine &line) {
            ++dirty_seen;
            EXPECT_EQ(line.lineAddr, 0x40u);
        });
    EXPECT_EQ(flushed, 16u);
    EXPECT_EQ(dirty_seen, 1u);
    EXPECT_EQ(c.validLines(), 0u);
    EXPECT_EQ(c.validLinesOf(Domain::SECURE), 0u);
}

TEST(Cache, ValidLinesByDomain)
{
    Cache c = smallCache();
    c.insert(0x000, 0, Domain::SECURE);
    c.insert(0x040, 1, Domain::INSECURE);
    c.insert(0x080, 0, Domain::SECURE);
    EXPECT_EQ(c.validLinesOf(Domain::SECURE), 2u);
    EXPECT_EQ(c.validLinesOf(Domain::INSECURE), 1u);
}

TEST(Cache, FindLineDoesNotTouchStats)
{
    Cache c = smallCache();
    c.insert(0x100, 0, Domain::INSECURE);
    const auto hits = c.hits();
    const auto misses = c.misses();
    EXPECT_NE(c.findLine(0x100), nullptr);
    EXPECT_EQ(c.findLine(0x999000), nullptr);
    EXPECT_EQ(c.hits(), hits);
    EXPECT_EQ(c.misses(), misses);
}

TEST(Cache, PeekDoesNotPerturbLru)
{
    Cache c = smallCache();
    c.insert(0x000, 0, Domain::INSECURE);
    c.insert(0x200, 0, Domain::INSECURE);
    // Peek at the LRU line (0x000 was inserted first, then 0x200
    // touched later); peeking must not promote it.
    c.peek(0x000);
    const Eviction ev = c.insert(0x400, 0, Domain::INSECURE);
    ASSERT_TRUE(ev.happened);
    EXPECT_EQ(ev.victim.lineAddr, 0x000u);
}

TEST(Cache, ForEachLineVisitsValidOnly)
{
    Cache c = smallCache();
    c.insert(0x000, 0, Domain::INSECURE);
    c.insert(0x040, 0, Domain::INSECURE);
    c.invalidateLine(0x000);
    unsigned n = 0;
    c.forEachLine([&](CacheLine &) { ++n; });
    EXPECT_EQ(n, 1u);
}

TEST(Cache, MissRateComputation)
{
    Cache c = smallCache();
    c.lookup(0x0); // miss
    c.insert(0x0, 0, Domain::INSECURE);
    c.lookup(0x0); // hit
    c.lookup(0x0); // hit
    EXPECT_NEAR(c.missRate(), 1.0 / 3.0, 1e-9);
}

TEST(Replacement, LruVictimIsOldest)
{
    LruPolicy lru(4, 4);
    for (unsigned w = 0; w < 4; ++w)
        lru.touch(0, w);
    EXPECT_EQ(lru.victim(0), 0u);
    lru.touch(0, 0);
    EXPECT_EQ(lru.victim(0), 1u);
}

TEST(Replacement, LruSetsIndependent)
{
    LruPolicy lru(2, 2);
    lru.touch(0, 0);
    lru.touch(0, 1);
    lru.touch(1, 1);
    lru.touch(1, 0);
    EXPECT_EQ(lru.victim(0), 0u);
    EXPECT_EQ(lru.victim(1), 1u);
}

TEST(Replacement, TreePlruAvoidsMostRecent)
{
    TreePlruPolicy plru(1, 4);
    for (unsigned w = 0; w < 4; ++w)
        plru.touch(0, w);
    // The victim must never be the most recently touched way.
    for (unsigned w = 0; w < 4; ++w) {
        plru.touch(0, w);
        EXPECT_NE(plru.victim(0), w);
    }
}

TEST(Replacement, RandomIsDeterministicPerSeed)
{
    RandomPolicy a(4, 8, 99), b(4, 8, 99);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.victim(2), b.victim(2));
}

TEST(Replacement, FactoryCreatesAllKinds)
{
    EXPECT_STREQ(ReplacementPolicy::create("lru", 2, 2)->name(), "lru");
    EXPECT_STREQ(ReplacementPolicy::create("plru", 2, 2)->name(), "plru");
    EXPECT_STREQ(ReplacementPolicy::create("random", 2, 2)->name(),
                 "random");
}

TEST(ReplacementDeathTest, UnknownKindIsFatal)
{
    EXPECT_EXIT(ReplacementPolicy::create("fifo", 2, 2),
                testing::ExitedWithCode(1), "unknown replacement");
}

/** Property: after filling N distinct lines <= capacity with unique set
 *  mapping, all are resident (no spurious evictions). */
class CacheFillProperty
    : public testing::TestWithParam<std::tuple<unsigned, unsigned>>
{
};

TEST_P(CacheFillProperty, FullOccupancyWithoutConflicts)
{
    const auto [sets, assoc] = GetParam();
    Cache c("p", sets * assoc * 64, assoc, 64);
    for (unsigned s = 0; s < sets; ++s) {
        for (unsigned w = 0; w < assoc; ++w) {
            const Addr a = (static_cast<Addr>(w) * sets + s) * 64;
            EXPECT_FALSE(c.insert(a, 0, Domain::INSECURE).happened);
        }
    }
    EXPECT_EQ(c.validLines(), sets * assoc);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheFillProperty,
    testing::Values(std::make_tuple(1u, 1u), std::make_tuple(8u, 2u),
                    std::make_tuple(64u, 4u), std::make_tuple(16u, 8u),
                    std::make_tuple(128u, 16u)));

namespace
{

/** One lookup's observable outcome: hit, and which line. */
Addr
lookupOutcome(Cache &c, Addr a)
{
    const CacheLine *line = c.lookup(a);
    return line ? line->lineAddr : ~Addr(0);
}

} // namespace

/**
 * A flushed cache must behave exactly like a newly constructed one:
 * same hits, misses, victims and invalidation results for the same
 * operations, whether the flush erased state or took the no-fill fast
 * path. Seeded random operation streams include back-to-back flushes
 * and flushes of never-filled caches; the flush return value and the
 * flushes/flushed_lines counters are checked exactly.
 */
TEST(Cache, FlushRestoresFreshBehaviour)
{
    for (const char *repl : {"lru", "plru"}) {
        for (std::uint64_t seed : {1u, 2u, 3u}) {
            SCOPED_TRACE(std::string(repl) + " seed " +
                         std::to_string(seed));
            // 8 sets x 4 ways over a 64-line address pool: sets
            // overflow, so victims are chosen by the policy.
            const auto make = [&] {
                return std::make_unique<Cache>("t", 2048, 4, 64, repl);
            };
            auto c = make();
            auto fresh = make();
            Rng rng(seed);
            std::uint64_t flushes = 0, flushed_lines = 0;
            // Never flushed, so the purge counters are not in the dump.
            EXPECT_EQ(c->stats().counters().count("flushes"), 0u);
            for (int i = 0; i < 20000; ++i) {
                const std::uint64_t op = rng.nextRange(100);
                const Addr a = rng.nextRange(64) * 64;
                if (op < 4 || i == 0) {
                    // Flush (i == 0: of a never-filled cache), and
                    // sometimes flush again right away.
                    const unsigned reps = op < 2 ? 2 : 1;
                    for (unsigned r = 0; r < reps; ++r) {
                        const unsigned valid = c->validLines();
                        ASSERT_EQ(valid, fresh->validLines());
                        unsigned dirty = 0;
                        c->forEachLine([&](CacheLine &l) {
                            dirty += l.dirty ? 1 : 0;
                        });
                        unsigned dirty_seen = 0;
                        ASSERT_EQ(c->flushAll([&](const CacheLine &l) {
                                      EXPECT_TRUE(l.valid && l.dirty);
                                      ++dirty_seen;
                                  }),
                                  valid);
                        ASSERT_EQ(dirty_seen, dirty);
                        ++flushes;
                        flushed_lines += valid;
                        ASSERT_EQ(c->stats().value("flushes"), flushes);
                        ASSERT_EQ(c->stats().value("flushed_lines"),
                                  flushed_lines);
                        ASSERT_EQ(c->validLines(), 0u);
                        fresh = make();
                    }
                } else if (op < 50) {
                    const Addr hit = lookupOutcome(*c, a);
                    ASSERT_EQ(hit, lookupOutcome(*fresh, a)) << "i=" << i;
                    if (hit != ~Addr(0) && op < 20) {
                        c->findLine(a)->dirty = true;
                        fresh->findLine(a)->dirty = true;
                    }
                } else if (op < 90) {
                    if (c->peek(a))
                        continue;
                    const Eviction ev = c->insert(a, 1, Domain::SECURE);
                    const Eviction ref = fresh->insert(a, 1, Domain::SECURE);
                    ASSERT_EQ(ev.happened, ref.happened) << "i=" << i;
                    ASSERT_EQ(ev.victim.lineAddr, ref.victim.lineAddr);
                    ASSERT_EQ(ev.victim.dirty, ref.victim.dirty);
                } else {
                    const auto dropped = c->invalidateLine(a);
                    ASSERT_EQ(dropped.has_value(),
                              fresh->invalidateLine(a).has_value());
                }
            }
            EXPECT_GT(flushes, 1000u);
        }
    }
}
