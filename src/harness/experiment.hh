/**
 * @file
 * Experiment runner: builds a fresh machine per (application,
 * architecture) pair, executes the run protocol of the paper's
 * methodology (warmup, then a timed region; for IRONHIDE the cluster
 * binding is decided and one reconfiguration charged), and returns the
 * measured RunResult. All benches and several integration tests sit on
 * top of this.
 */

#ifndef IH_HARNESS_EXPERIMENT_HH
#define IH_HARNESS_EXPERIMENT_HH

#include <string>

#include "core/realloc_predictor.hh"
#include "core/security_model.hh"
#include "workloads/interactive_app.hh"

namespace ih
{

/** How IRONHIDE's cluster binding is chosen. */
enum class SplitPolicy : std::uint8_t
{
    HEURISTIC = 0, ///< gradient search (the paper's predictor)
    OPTIMAL,       ///< exhaustive oracle sweep, no charged overhead
    FIXED,         ///< a caller-specified split
    STATIC_HALF,   ///< stay at the initial 32/32 (no reconfiguration)
};

/** Extra knobs for IRONHIDE runs. */
struct IronhideOptions
{
    SplitPolicy policy = SplitPolicy::HEURISTIC;
    unsigned fixedSplit = 0;       ///< used by FIXED
    int variationPct = 0;          ///< Figure 8's +/-x% perturbation
    std::uint64_t probeInteractions = 4;
};

/** Outcome of one experiment. */
struct ExperimentResult
{
    std::string app;
    std::string arch;
    RunResult run;
    unsigned decidedSplit = 0;  ///< secure cores chosen (IRONHIDE)
    unsigned probes = 0;        ///< predictor probe evaluations
};

/**
 * Decide the secure-cluster split for @p spec via probe runs.
 *
 * Each probe is a complete short simulation on a fresh machine at one
 * split. Probes are memoized per call, so a split the search revisits
 * is simulated once; the Decision's probe count still counts every
 * search step. @p workers must be 1: the parameter survives only for
 * perfbench/driver.cc, which passes it explicitly.
 */
ReallocPredictor::Decision
decideSplit(const AppSpec &spec, const SysConfig &cfg, SplitPolicy policy,
            std::uint64_t probe_interactions, unsigned workers = 1);

/** Run @p spec under architecture @p kind on a fresh machine. */
ExperimentResult runExperiment(const AppSpec &spec, ArchKind kind,
                               const SysConfig &cfg,
                               const IronhideOptions &ihopts = {});

/** Benchmark-wide scale factor from the IRONHIDE_SCALE env var (1.0
 *  default); benches multiply their workload sizes by this. */
double benchScale();

/** The machine configuration used by all benches. */
SysConfig benchConfig();

} // namespace ih

#endif // IH_HARNESS_EXPERIMENT_HH
