#include "core/system.hh"

#include "sim/log.hh"

namespace ih
{

System::System(const SysConfig &cfg)
    : cfg_(cfg), topo_(cfg_), net_(cfg_, topo_), mem_(cfg_, topo_, net_),
      engine_(cfg_, mem_)
{
    cfg_.validate();
    // Every blocked access on this machine lands in the security audit
    // log (the MemorySystem stays standalone-drivable without one).
    mem_.setAuditLog(&audit_);
}

Process &
System::createProcess(const std::string &name, Domain domain,
                      unsigned threads)
{
    const auto id = static_cast<ProcId>(procs_.size());
    procs_.push_back(std::make_unique<Process>(id, name, domain, threads,
                                               cfg_, mem_.allocator()));
    Process &p = *procs_.back();
    // Until a security model configures placement, a process may run
    // anywhere.
    std::vector<CoreId> all(topo_.numTiles());
    for (CoreId t = 0; t < topo_.numTiles(); ++t)
        all[t] = t;
    p.setCores(all);
    p.setCluster(ClusterRange{0, topo_.numTiles()});
    return p;
}

std::vector<CoreId>
System::prefixTiles(unsigned n) const
{
    IH_ASSERT(n >= 1 && n <= topo_.numTiles(), "bad prefix size %u", n);
    std::vector<CoreId> out;
    for (CoreId t = 0; t < n; ++t)
        out.push_back(t);
    return out;
}

std::vector<CoreId>
System::suffixTiles(unsigned n) const
{
    IH_ASSERT(n < topo_.numTiles(), "bad suffix start %u", n);
    std::vector<CoreId> out;
    for (CoreId t = n; t < topo_.numTiles(); ++t)
        out.push_back(t);
    return out;
}

} // namespace ih
