#include "core/realloc_predictor.hh"

#include <algorithm>

#include "sim/log.hh"

namespace ih
{

ReallocPredictor::ReallocPredictor(unsigned min_secure, unsigned max_secure,
                                   Cycle probe_cost)
    : minSecure_(min_secure), maxSecure_(max_secure), probeCost_(probe_cost)
{
    IH_ASSERT(min_secure >= 1 && min_secure <= max_secure,
              "bad predictor range [%u, %u]", min_secure, max_secure);
}

unsigned
ReallocPredictor::clamp(long s) const
{
    return static_cast<unsigned>(
        std::clamp<long>(s, minSecure_, maxSecure_));
}

ReallocPredictor::Decision
ReallocPredictor::gradientSearch(unsigned start, const ProbeFn &probe) const
{
    Decision d;
    unsigned s = clamp(start);
    unsigned probes = 0;
    auto eval = [&](unsigned x) {
        ++probes;
        return probe(x);
    };
    // Geometric step schedule: an eighth of the range, halving down to 1.
    unsigned step = std::max(1u, (maxSecure_ - minSecure_) / 8);
    double best = eval(s);
    while (true) {
        bool improved = false;
        // Finite-difference gradient: look one step each way, walk the
        // descending direction while it keeps improving.
        for (int dir : {+1, -1}) {
            while (true) {
                const unsigned cand = clamp(static_cast<long>(s) +
                                            dir * static_cast<long>(step));
                if (cand == s)
                    break;
                const double f = eval(cand);
                if (f < best) {
                    best = f;
                    s = cand;
                    improved = true;
                } else {
                    break;
                }
            }
        }
        if (!improved) {
            if (step == 1)
                break;
            step /= 2;
        }
    }

    d.secureCores = s;
    d.probes = probes;
    d.searchCost = static_cast<Cycle>(probes) * probeCost_;
    d.predicted = best;
    return d;
}

ReallocPredictor::Decision
ReallocPredictor::optimalSweep(const ProbeFn &probe) const
{
    Decision d;
    double best = -1.0;
    for (unsigned s = minSecure_; s <= maxSecure_; ++s) {
        const double f = probe(s);
        ++d.probes;
        if (best < 0.0 || f < best) {
            best = f;
            d.secureCores = s;
        }
    }
    d.searchCost = 0; // oracle: no charged overhead, by definition
    d.predicted = best;
    return d;
}

unsigned
ReallocPredictor::withVariation(unsigned decision, int pct,
                                unsigned total_cores) const
{
    const long delta =
        (static_cast<long>(total_cores) * pct + (pct >= 0 ? 50 : -50)) /
        100;
    return clamp(static_cast<long>(decision) + delta);
}

} // namespace ih
