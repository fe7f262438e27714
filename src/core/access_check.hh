/**
 * @file
 * The hardware DRAM-region access check.
 *
 * MI6 and IRONHIDE defuse speculative microarchitecture-state attacks by
 * checking, for every memory access, whether the home DRAM region of the
 * target line belongs to the requester's security domain. A request from
 * the insecure domain to a secure-owned region is stalled until resolved
 * and then discarded — the attacker/victim pairing required by
 * Spectre-class attacks simply cannot form across the boundary.
 *
 * RegionOwnership is the table the check consults; it also drives the
 * page allocator's region assignment, so the same object guarantees both
 * "secure data only lives in secure regions" and "insecure requests
 * never read secure regions".
 */

#ifndef IH_CORE_ACCESS_CHECK_HH
#define IH_CORE_ACCESS_CHECK_HH

#include <vector>

#include "mem/memory_system.hh"
#include "sim/types.hh"

namespace ih
{

/** Static DRAM-region ownership map. */
class RegionOwnership
{
  public:
    explicit RegionOwnership(unsigned num_regions);

    /** Assign @p region to @p domain. */
    void assign(RegionId region, Domain domain);

    /** Owner of @p region. */
    Domain owner(RegionId region) const;

    /** All regions owned by @p domain. */
    std::vector<RegionId> regionsOf(Domain domain) const;

    /** Split regions contiguously: first half secure, second insecure. */
    static RegionOwnership evenSplit(unsigned num_regions);

    /**
     * Build the per-access check enforced by the memory system, as the
     * inlineable value type installed by the production models. The
     * rule mirrors the paper: the secure domain may access everything it
     * needs (its own regions plus the insecure-owned IPC regions, which
     * hold only data considered insecure); the insecure domain must
     * never touch secure-owned regions.
     */
    RegionCheck makeCheck() const;

    unsigned numRegions() const
    {
        return static_cast<unsigned>(owner_.size());
    }

  private:
    std::vector<Domain> owner_;
};

} // namespace ih

#endif // IH_CORE_ACCESS_CHECK_HH
