#include "core/access_check.hh"

#include "sim/log.hh"

namespace ih
{

RegionOwnership::RegionOwnership(unsigned num_regions)
    : owner_(num_regions, Domain::INSECURE)
{
    IH_ASSERT(num_regions > 0, "need at least one region");
}

void
RegionOwnership::assign(RegionId region, Domain domain)
{
    IH_ASSERT(region < owner_.size(), "region %u out of range", region);
    owner_[region] = domain;
}

Domain
RegionOwnership::owner(RegionId region) const
{
    IH_ASSERT(region < owner_.size(), "region %u out of range", region);
    return owner_[region];
}

std::vector<RegionId>
RegionOwnership::regionsOf(Domain domain) const
{
    std::vector<RegionId> out;
    for (RegionId r = 0; r < owner_.size(); ++r) {
        if (owner_[r] == domain)
            out.push_back(r);
    }
    return out;
}

RegionOwnership
RegionOwnership::evenSplit(unsigned num_regions)
{
    RegionOwnership own(num_regions);
    for (RegionId r = 0; r < num_regions / 2; ++r)
        own.assign(r, Domain::SECURE);
    return own;
}

RegionCheck
RegionOwnership::makeCheck() const
{
    return RegionCheck::fromTable(owner_);
}

} // namespace ih
