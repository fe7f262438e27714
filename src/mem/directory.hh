/**
 * @file
 * MSI directory bookkeeping helpers. Each L2 home line doubles as the
 * directory entry of its address; the sharer set is a 64-bit core
 * bitmask stored in CacheLine::sharers. These helpers keep the bit
 * manipulation in one audited place and are unit-tested directly.
 */

#ifndef IH_MEM_DIRECTORY_HH
#define IH_MEM_DIRECTORY_HH

#include <cstdint>

#include "sim/types.hh"

namespace ih
{

/** Static helpers over a 64-bit sharer mask. */
class Directory
{
  public:
    static constexpr unsigned MAX_CORES = 64;

    static std::uint64_t
    bit(CoreId core)
    {
        return std::uint64_t(1) << core;
    }

    static bool
    isSharer(std::uint64_t mask, CoreId core)
    {
        return (mask & bit(core)) != 0;
    }

    static std::uint64_t
    addSharer(std::uint64_t mask, CoreId core)
    {
        return mask | bit(core);
    }

    static std::uint64_t
    removeSharer(std::uint64_t mask, CoreId core)
    {
        return mask & ~bit(core);
    }

    /** Number of sharers in @p mask. */
    static unsigned
    count(std::uint64_t mask)
    {
        return static_cast<unsigned>(__builtin_popcountll(mask));
    }

    /** True when @p mask names exactly one core (no popcount needed). */
    static bool
    single(std::uint64_t mask)
    {
        return mask != 0 && (mask & (mask - 1)) == 0;
    }

    /**
     * Visit every sharer core id in @p mask. Takes the callable as a
     * template parameter (not std::function) so the per-access protocol
     * loops in the memory system never type-erase or allocate.
     */
    template <typename Fn>
    static void
    forEachSharer(std::uint64_t mask, Fn &&fn)
    {
        while (mask) {
            const unsigned c = __builtin_ctzll(mask);
            fn(static_cast<CoreId>(c));
            mask &= mask - 1;
        }
    }
};

} // namespace ih

#endif // IH_MEM_DIRECTORY_HH
