/**
 * @file
 * Per-core translation lookaside buffer. Set-associative with per-set
 * true LRU (configurable ways; a single set of `entries` ways is the
 * degenerate fully associative configuration the paper models), tracking
 * the owning process of each entry so purges and the purge-completeness
 * property tests can reason about which state belongs to which security
 * domain.
 *
 * Lookup cost is O(ways) within the indexed set, with a small way
 * predictor in front: dense kernels touch the same handful of pages for
 * many consecutive lines, so most lookups resolve against a predicted
 * entry without scanning the set at all. The predictor is purely an
 * implementation shortcut — hit/miss outcomes, LRU order and every
 * counter are identical with it disabled.
 */

#ifndef IH_MEM_TLB_HH
#define IH_MEM_TLB_HH

#include <cstdint>
#include <vector>

#include "sim/stats.hh"
#include "sim/types.hh"

namespace ih
{

/** One TLB entry (virtual page -> physical page for one process). */
struct TlbEntry
{
    VAddr vpage = 0;
    Addr ppage = 0;
    ProcId proc = INVALID_PROC;
    Domain domain = Domain::INSECURE;
    bool valid = false;
    std::uint64_t stamp = 0;
};

/** Set-associative, per-set-LRU TLB. */
class Tlb
{
  public:
    /**
     * @param entries total entry count
     * @param ways    associativity; 0 (the default) means fully
     *                associative (ways == entries, one set)
     */
    Tlb(std::string name, unsigned entries, unsigned page_bytes,
        unsigned ways = 0);

    /**
     * Look up the translation of @p vaddr for @p proc. Inline: this runs
     * once per simulated memory access, and the way-predictor fast path
     * resolves the overwhelmingly common same-page-as-recently case
     * without scanning the set.
     */
    TlbEntry *
    lookup(VAddr vaddr, ProcId proc)
    {
        if (TlbEntry *e = lookupPredicted(vaddr, proc))
            return e;
        return lookupScan(vaddr, proc);
    }

    /**
     * The predictor-probe half of lookup(): resolve @p vaddr against the
     * way-predicted entry only. On a predictor hit the entry is stamped
     * and the hit counted, exactly as lookup() would; on a predictor
     * miss *nothing* is counted and nullptr is returned — the caller
     * must finish with lookupScan() (which then counts the hit or miss)
     * for the combined counters to match one lookup() call.
     *
     * This split exists so MemorySystem::access() can inline just the
     * probe into its fast path and keep the set scan out of line.
     * Predictions are validated before use (valid + vpage + proc), so a
     * stale prediction — e.g. after flushProc()/flushAll(), which leave
     * wayPred_ untouched — only costs the set scan it would have done
     * anyway and can never return a flushed entry.
     */
    TlbEntry *
    lookupPredicted(VAddr vaddr, ProcId proc)
    {
        const VAddr vp = vpageOf(vaddr);
        TlbEntry &m = entries_[wayPred_[predSlot(vp)]];
        if (m.valid && m.vpage == vp && m.proc == proc) {
            m.stamp = ++tick_;
            statHits_.inc();
            return &m;
        }
        return nullptr;
    }

    /** The set-scan half of lookup(); see lookupPredicted(). */
    TlbEntry *
    lookupScan(VAddr vaddr, ProcId proc)
    {
        const VAddr vp = vpageOf(vaddr);
        return lookupSlow(vp, proc, predSlot(vp));
    }

    /** Install a translation, evicting the set's LRU entry if full. */
    void insert(VAddr vaddr, Addr ppage, ProcId proc, Domain domain);

    /** Invalidate everything; O(1) when no entry is valid.
     *  @return number of entries dropped. */
    unsigned flushAll();

    /** Invalidate entries of one process. @return entries dropped. */
    unsigned flushProc(ProcId proc);

    /** Count valid entries belonging to @p domain. */
    unsigned validEntriesOf(Domain domain) const;

    unsigned capacity() const { return static_cast<unsigned>(
        entries_.size()); }
    unsigned ways() const { return ways_; }
    unsigned numSets() const { return numSets_; }

    /** Set index the page of @p vaddr maps to (for tests). */
    unsigned setOf(VAddr vaddr) const
    {
        return setIndex(vpageOf(vaddr));
    }

    std::uint64_t hits() const { return stats_.value("hits"); }
    std::uint64_t misses() const { return stats_.value("misses"); }
    StatGroup &stats() { return stats_; }

  private:
    /** Way-predictor slots (power of two). Workloads interleave a
     *  handful of arrays, so a single MRU entry thrashes; indexing the
     *  prediction by page-number bits keeps each stream's entry live. */
    static constexpr unsigned PRED_SLOTS = 64;

    VAddr vpageOf(VAddr vaddr) const { return vaddr & ~pageMask_; }

    unsigned predSlot(VAddr vpage) const
    {
        return static_cast<unsigned>((vpage >> pageShift_) &
                                     (PRED_SLOTS - 1));
    }

    /** Set scan behind the predictor fast path (@p vp page-aligned). */
    TlbEntry *lookupSlow(VAddr vp, ProcId proc, unsigned slot);

    unsigned setIndex(VAddr vpage) const
    {
        // Page-number bits select the set (power-of-two set count).
        return static_cast<unsigned>((vpage >> pageShift_) & setMask_);
    }

    std::vector<TlbEntry> entries_; ///< set s occupies [s*ways, (s+1)*ways)
    VAddr pageMask_;
    unsigned pageShift_;
    unsigned ways_;
    unsigned numSets_;
    unsigned setMask_;
    /** Entry index predicted for each slot (validated on every use, so
     *  a stale prediction only costs the set scan it would have done
     *  anyway — hit/miss outcomes are unaffected). */
    std::vector<unsigned> wayPred_;
    std::uint64_t tick_ = 0;
    StatGroup stats_;
    // Per-access counters bound once (StatGroup references are stable).
    Counter &statHits_;
    Counter &statMisses_;
    Counter &statFills_;
    Counter &statEvictions_;
    // Purge-path counters, bound on first use (see lazyCounter()).
    Counter *statFlushes_ = nullptr;
    Counter *statFlushedEntries_ = nullptr;
    /** Valid entries right now; kept exact by insert/flushAll/flushProc. */
    unsigned validEntries_ = 0;
};

} // namespace ih

#endif // IH_MEM_TLB_HH
