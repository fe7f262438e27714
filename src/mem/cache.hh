/**
 * @file
 * Generic set-associative cache tag store used for both the private L1s
 * and the shared L2 slices. The model is functional over tags (no data
 * payload) and keeps per-line coherence metadata:
 *
 *  - dirty:     line differs from the level below
 *  - writable:  M/E permission (L1 only; L2 lines ignore it)
 *  - sharers:   bitmask of cores holding the line (L2 home lines act as
 *               the MSI directory entry for their address)
 *  - ownerProc / ownerDomain: the process/domain that installed the line,
 *               used by the purge engine and the isolation audits
 *
 * flushAll()/invalidateLine() really erase state, so locality loss after
 * a purge is an emergent property of the simulation rather than a
 * constant in a cost model.
 */

#ifndef IH_MEM_CACHE_HH
#define IH_MEM_CACHE_HH

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "mem/replacement.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace ih
{

/** Metadata of one cache line. */
struct CacheLine
{
    Addr lineAddr = 0;    ///< address of the first byte of the line
    bool valid = false;
    bool dirty = false;
    bool writable = false;            ///< M/E permission (L1 use)
    std::uint64_t sharers = 0;        ///< directory bitmask (L2 use)
    ProcId ownerProc = INVALID_PROC;
    Domain ownerDomain = Domain::INSECURE;
};

/** Result of an insertion: the filled line, and the victim line when
 *  one was evicted. */
struct Eviction
{
    CacheLine *line = nullptr; ///< the newly filled line
    bool happened = false;
    CacheLine victim;
};

/** A set-associative, write-back cache tag store. */
class Cache
{
  public:
    /**
     * @param name        stat prefix ("l1.12", "l2.3", ...)
     * @param size_bytes  total capacity
     * @param assoc       ways per set
     * @param line_bytes  line size
     * @param repl        replacement policy kind ("lru", "plru", "random")
     */
    Cache(std::string name, unsigned size_bytes, unsigned assoc,
          unsigned line_bytes, const std::string &repl = "lru",
          std::uint64_t seed = 1);

    /** Align @p addr down to its line address. */
    Addr lineAddrOf(Addr addr) const { return addr & ~lineMask_; }

    /** Set index of @p addr. Shift/mask for the (usual) power-of-two set
     *  count; the division fallback keeps odd test geometries working. */
    unsigned
    setOf(Addr addr) const
    {
        const Addr line = addr >> lineShift_;
        if (setMask_ != 0)
            return static_cast<unsigned>(line & setMask_);
        return static_cast<unsigned>(line % numSets_);
    }

    /**
     * Look up @p addr. On a hit the replacement state is touched and a
     * pointer to the (mutable) line is returned; nullptr on miss.
     *
     * Defined inline (with the LRU policy devirtualized) because this
     * runs several times per simulated memory access.
     */
    CacheLine *
    lookup(Addr addr)
    {
        const Addr la = lineAddrOf(addr);
        const unsigned set = setOf(la);
        CacheLine *const base =
            &lines_[static_cast<std::size_t>(set) * assoc_];
        for (unsigned w = 0; w < assoc_; ++w) {
            CacheLine &line = base[w];
            if (line.valid && line.lineAddr == la) {
                if (lru_)
                    lru_->touchFast(set, w);
                else
                    repl_->touch(set, w);
                statHits_.inc();
                return &line;
            }
        }
        statMisses_.inc();
        return nullptr;
    }

    /** Look up without touching replacement state or stats (probes). */
    const CacheLine *
    peek(Addr addr) const
    {
        const Addr la = lineAddrOf(addr);
        const unsigned set = setOf(la);
        const CacheLine *const base =
            &lines_[static_cast<std::size_t>(set) * assoc_];
        for (unsigned w = 0; w < assoc_; ++w) {
            if (base[w].valid && base[w].lineAddr == la)
                return &base[w];
        }
        return nullptr;
    }

    /**
     * Mutable lookup that touches neither stats nor replacement state;
     * for protocol bookkeeping (directory updates, writeback folding).
     */
    CacheLine *
    findLine(Addr addr)
    {
        const Addr la = lineAddrOf(addr);
        const unsigned set = setOf(la);
        CacheLine *const base =
            &lines_[static_cast<std::size_t>(set) * assoc_];
        for (unsigned w = 0; w < assoc_; ++w) {
            if (base[w].valid && base[w].lineAddr == la)
                return &base[w];
        }
        return nullptr;
    }

    /**
     * Insert the line containing @p addr (must not be present).
     * @return the filled line, and the eviction performed to make
     *         room, if any.
     */
    Eviction insert(Addr addr, ProcId owner, Domain domain);

    /** Invalidate the line containing @p addr if present.
     *  @return the line as it was, when it existed. */
    std::optional<CacheLine> invalidateLine(Addr addr);

    /**
     * Flush-and-invalidate the whole cache. Host cost is O(1) when
     * nothing was filled since the last flush, else one pass over the
     * lines; results and counters are the same either way.
     * @param on_dirty invoked for every dirty line written back.
     * @return number of lines that were valid.
     */
    unsigned flushAll(const std::function<void(const CacheLine &)> &on_dirty
                      = {});

    /** Count currently valid lines. */
    unsigned validLines() const;

    /** Count valid lines owned by @p domain. */
    unsigned validLinesOf(Domain domain) const;

    /**
     * Count valid lines owned by process @p proc. Read-only observation
     * hook (no stats, no LRU movement): this is the occupancy census a
     * prime+probe attacker takes of its own resident lines, so it must
     * not perturb the state it observes.
     */
    unsigned validLinesOfProc(ProcId proc) const;

    /** Visit every valid line (mutable access, for remapping). */
    void forEachLine(const std::function<void(CacheLine &)> &fn);

    unsigned numSets() const { return numSets_; }
    unsigned assoc() const { return assoc_; }
    unsigned lineBytes() const { return lineBytes_; }
    unsigned capacityLines() const { return numSets_ * assoc_; }

    std::uint64_t hits() const { return stats_.value("hits"); }
    std::uint64_t misses() const { return stats_.value("misses"); }
    double
    missRate() const
    {
        const double total = static_cast<double>(hits() + misses());
        return total == 0.0 ? 0.0 : static_cast<double>(misses()) / total;
    }

    StatGroup &stats() { return stats_; }
    const StatGroup &stats() const { return stats_; }

  private:
    CacheLine &lineAt(unsigned set, unsigned way);
    const CacheLine &lineAt(unsigned set, unsigned way) const;

    std::string name_;
    unsigned numSets_;
    unsigned assoc_;
    unsigned lineBytes_;
    unsigned lineShift_;  ///< log2(lineBytes_)
    unsigned setMask_;    ///< numSets_ - 1 when a power of two, else 0
    Addr lineMask_;
    std::vector<CacheLine> lines_;
    std::unique_ptr<ReplacementPolicy> repl_;
    /** repl_ downcast when it is the (default) LRU policy, letting the
     *  inline lookup skip the virtual touch() on every hit. */
    LruPolicy *lru_ = nullptr;
    mutable StatGroup stats_;
    // Hot-path counters bound once at construction (StatGroup references
    // are stable), so per-access accounting is a plain increment instead
    // of a string build + map lookup.
    Counter &statHits_;
    Counter &statMisses_;
    Counter &statFills_;
    Counter &statEvictions_;
    Counter &statDirtyEvictions_;
    Counter &statInvalidations_;
    // Purge-path counters, bound on first flush (see lazyCounter()).
    Counter *statFlushes_ = nullptr;
    Counter *statFlushedLines_ = nullptr;
    /** insert() calls since the last flushAll(); zero means flushAll()
     *  has nothing to erase (see there). */
    std::uint64_t fillsSinceFlush_ = 0;
};

} // namespace ih

#endif // IH_MEM_CACHE_HH
