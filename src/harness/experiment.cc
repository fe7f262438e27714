#include "harness/experiment.hh"

#include <algorithm>
#include <map>

#include "core/ironhide.hh"
#include "harness/report.hh"
#include "sim/log.hh"

namespace ih
{

namespace
{

/** One probe: a short IRONHIDE run at a fixed split on a fresh machine. */
double
probeCompletion(const AppSpec &spec, const SysConfig &cfg, unsigned split,
                std::uint64_t interactions)
{
    System sys(cfg);
    Ironhide model(sys);
    model.setInitialSplit(split);
    InteractiveApp app(sys, model, spec);
    RunOptions opts;
    opts.warmup = std::min<std::uint64_t>(2, interactions / 2);
    opts.maxInteractions = interactions + opts.warmup;
    const RunResult r = app.run(opts);
    return static_cast<double>(r.completion);
}

} // namespace

ReallocPredictor::Decision
decideSplit(const AppSpec &spec, const SysConfig &cfg, SplitPolicy policy,
            std::uint64_t probe_interactions, unsigned workers)
{
    // The probe search is serial. The parameter remains only because
    // perfbench/driver.cc's runCell() passes a literal 1; it goes with
    // the next change to the benchmark.
    IH_ASSERT(workers == 1, "decideSplit: probe workers must be 1 (got %u)",
              workers);
    const unsigned tiles = cfg.meshWidth * cfg.meshHeight;
    // Keep at least two tiles per cluster so both memory controllers of
    // each edge stay reachable.
    ReallocPredictor pred(2, tiles - 2, 0);
    // probeCompletion() is a pure function of the split, so a split the
    // gradient walk re-crosses after an improvement is served from this
    // memo instead of being simulated again.
    std::map<unsigned, double> memo;
    const auto probe = [&](unsigned s) {
        const auto it = memo.find(s);
        if (it != memo.end())
            return it->second;
        const double f = probeCompletion(spec, cfg, s, probe_interactions);
        memo.emplace(s, f);
        return f;
    };

    switch (policy) {
      case SplitPolicy::HEURISTIC:
        return pred.gradientSearch(tiles / 2, probe);
      case SplitPolicy::OPTIMAL: {
        // Oracle: sweep even splits, then refine +/-1 around the best.
        ReallocPredictor::Decision best;
        double best_f = -1.0;
        for (unsigned s = 2; s <= tiles - 2; s += 2) {
            const double f = probe(s);
            ++best.probes;
            if (best_f < 0 || f < best_f) {
                best_f = f;
                best.secureCores = s;
            }
        }
        for (int d : {-1, +1}) {
            const long cand = static_cast<long>(best.secureCores) + d;
            if (cand >= 2 && cand <= static_cast<long>(tiles) - 2) {
                const double f = probe(static_cast<unsigned>(cand));
                ++best.probes;
                if (f < best_f) {
                    best_f = f;
                    best.secureCores = static_cast<unsigned>(cand);
                }
            }
        }
        best.predicted = best_f;
        return best;
      }
      case SplitPolicy::FIXED:
      case SplitPolicy::STATIC_HALF:
        break;
    }
    ReallocPredictor::Decision d;
    d.secureCores = tiles / 2;
    return d;
}

ExperimentResult
runExperiment(const AppSpec &spec, ArchKind kind, const SysConfig &cfg,
              const IronhideOptions &ihopts)
{
    ExperimentResult out;
    out.app = spec.name;
    out.arch = archName(kind);

    System sys(cfg);
    std::unique_ptr<SecurityModel> model = createModel(kind, sys);
    RunOptions opts;
    opts.warmup = std::min<std::uint64_t>(8, spec.interactions / 4);

    if (kind == ArchKind::IRONHIDE &&
        ihopts.policy != SplitPolicy::STATIC_HALF) {
        unsigned target;
        if (ihopts.policy == SplitPolicy::FIXED) {
            target = ihopts.fixedSplit;
        } else {
            ReallocPredictor::Decision d =
                decideSplit(spec, cfg, ihopts.policy,
                            ihopts.probeInteractions);
            target = d.secureCores;
            out.probes = d.probes;
            if (ihopts.variationPct != 0) {
                const unsigned tiles = cfg.meshWidth * cfg.meshHeight;
                ReallocPredictor pred(2, tiles - 2, 0);
                target = pred.withVariation(target, ihopts.variationPct,
                                            tiles);
            }
        }
        opts.reconfigTarget = target;
        out.decidedSplit = target;
    }

    InteractiveApp app(sys, *model, spec);
    out.run = app.run(opts);
    if (out.decidedSplit == 0)
        out.decidedSplit = model->secureCoreCount();
    return out;
}

double
benchScale()
{
    return envPositiveDouble("IRONHIDE_SCALE", 1.0);
}

SysConfig
benchConfig()
{
    SysConfig cfg;
    cfg.validate();
    return cfg;
}

} // namespace ih
