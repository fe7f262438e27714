/**
 * @file
 * The repo benchmark driver: runs one named workload of Figure 6 cells
 * (application x architecture) for a time budget and prints one JSON
 * result line. See WORKLOADS.md beside this file for why each workload
 * exists and which layer metric should move which end-to-end metric.
 *
 * Two passes exist. The untraced pass reports the end-to-end metrics
 * (--trace 0). The traced pass (--trace 1) wraps the simulator's public
 * seams — thin SecurityModel subclasses around enclaveEnter/Exit and
 * reconfigure, a forwarding InteractiveWorkload installed through a
 * wrapped AppSpec::make — and reports host time and exact work counts
 * per layer. Every pass's simulated outputs are checked against the
 * pinned outputs in pins.tsv; a traced run also checks that traced and
 * untraced passes produce identical outputs.
 *
 * This file only calls into the simulator; it changes nothing under
 * src/. It reads the clock freely, which is why it lives outside the
 * determinism lint's scan roots.
 */

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/ironhide.hh"
#include "core/mi6.hh"
#include "core/sgx_like.hh"
#include "harness/experiment.hh"
#include "harness/sweep.hh"
#include "sim/log.hh"
#include "sim/stats.hh"

extern char **environ;

using namespace ih;

namespace
{

using Clock = std::chrono::steady_clock;

double
since(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
cpuClock(clockid_t id)
{
    timespec ts{};
    clock_gettime(id, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

double
processCpu()
{
    return cpuClock(CLOCK_PROCESS_CPUTIME_ID);
}

double
threadCpu()
{
    return cpuClock(CLOCK_THREAD_CPUTIME_ID);
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Interquartile range over the median (Python statistics.quantiles). */
double
spread(std::vector<double> v)
{
    if (v.size() < 2)
        return 0.0;
    std::sort(v.begin(), v.end());
    const double n = static_cast<double>(v.size());
    const auto q = [&](double p) {
        const double pos = p * (n + 1) - 1; // exclusive method
        const double lo = std::clamp(std::floor(pos), 0.0, n - 1);
        const double hi = std::min(lo + 1, n - 1);
        return v[static_cast<std::size_t>(lo)] +
               (pos - lo) * (v[static_cast<std::size_t>(hi)] -
                             v[static_cast<std::size_t>(lo)]);
    };
    const double m = median(v);
    return m > 0 ? (q(0.75) - q(0.25)) / m : 0.0;
}

std::uint64_t
fnv1a(const std::string &s, std::uint64_t h = 0xcbf29ce484222325ull)
{
    for (unsigned char c : s) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return h;
}

// ---------------------------------------------------------------------------
// Reference kernel (cpu_ref): no simulator code, so a simulator speed-up
// cannot also speed up the reference. Two halves, each shaped like one
// side of the simulator's host work: a dependent walk around a 256 KiB
// random cycle (latency-bound pointer chasing) and four independent
// hash chains streaming over a 1 MiB array (high-IPC arithmetic). Host
// contention slows the second far more than the first, as it slows the
// OS-level cells far more than the user-level ones.
// ---------------------------------------------------------------------------

class RefKernel
{
  public:
    RefKernel() : next_(std::size_t{1} << 16), data_(std::size_t{1} << 17)
    {
        // Sattolo's shuffle: one cycle through every slot.
        std::uint64_t x = 0x9E3779B97F4A7C15ull;
        for (std::size_t i = 0; i < next_.size(); ++i)
            next_[i] = static_cast<std::uint32_t>(i);
        for (std::size_t i = 0; i < data_.size(); ++i)
            data_[i] = i * 0x2545F4914F6CDD1Dull;
        for (std::size_t i = next_.size() - 1; i > 0; --i) {
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            const std::size_t j = (x * 0x2545F4914F6CDD1Dull) % i;
            std::swap(next_[i], next_[j]);
        }
    }

    /**
     * One sample: an untimed lap of each half to bring the tables back
     * into cache (the cell that ran before evicted them), then the
     * thread CPU seconds of 8 walk laps and 24 stream laps.
     */
    double
    sample()
    {
        walk(next_.size());
        stream(1);
        const double t0 = threadCpu();
        walk(8 * next_.size());
        stream(24);
        return threadCpu() - t0;
    }

  private:
    void
    walk(std::size_t steps)
    {
        std::uint32_t i = static_cast<std::uint32_t>(sink_ % next_.size());
        std::uint64_t h = sink_;
        for (std::size_t k = 0; k < steps; ++k) {
            i = next_[i];
            h = (h ^ i) * 0xff51afd7ed558ccdull;
            h ^= h >> 29;
        }
        sink_ = h | 1;
    }

    void
    stream(int laps)
    {
        std::uint64_t a = sink_, b = 0, c = 0, d = 0;
        for (int l = 0; l < laps; ++l) {
            for (std::size_t k = 0; k + 4 <= data_.size(); k += 4) {
                a = (a ^ data_[k]) * 0x9E3779B97F4A7C15ull;
                b += data_[k + 1] ^ (b >> 7);
                c = (c + data_[k + 2]) * 0xff51afd7ed558ccdull;
                d ^= data_[k + 3] + (d << 3);
            }
        }
        sink_ = (a ^ b ^ c ^ d) | 1;
    }

    std::vector<std::uint32_t> next_;
    std::vector<std::uint64_t> data_;
    std::uint64_t sink_ = 1;
};

// ---------------------------------------------------------------------------
// Workloads and cells
// ---------------------------------------------------------------------------

struct WorkloadDef
{
    const char *name;
    bool user;     ///< include the user-level apps
    bool os;       ///< include the OS-level apps
    double scale;  ///< standardApps() scale
    bool parallel; ///< run the grid through the sweep runner
};

const WorkloadDef WORKLOADS[] = {
    {"user_serial", true, false, 0.3, false},
    {"os_serial", false, true, 1.0, false},
    {"fig6_parallel", true, true, 0.3, true},
};

/** Seeds map onto this many pinned workload-seed slots. */
constexpr std::uint64_t SEED_SLOTS = 16;

SysConfig
slotConfig(std::uint64_t slot)
{
    SysConfig cfg;
    cfg.seed += slot; // slot 0 is the default seed
    cfg.validate();
    return cfg;
}

/** The Figure 6 cells of the selected app levels, app-major. */
std::vector<SweepJob>
gridJobs(bool user, bool os, double scale, const SysConfig &cfg)
{
    std::vector<AppSpec> apps;
    for (AppSpec &a : standardApps(scale))
        if (a.osLevel ? os : user)
            apps.push_back(std::move(a));
    return SweepGrid()
        .config(cfg)
        .apps(apps)
        .archs({ArchKind::SGX_LIKE, ArchKind::MI6, ArchKind::IRONHIDE})
        .jobs();
}

/**
 * The pinned simulated outputs of one cell, tab-separated; doubles
 * print with 17 significant digits so they round-trip exactly.
 */
std::string
pinValues(const ExperimentResult &r)
{
    return strprintf("%llu\t%llu\t%llu\t%llu\t%llu\t%llu\t%u\t%u\t%.17g\t"
                     "%.17g",
                     static_cast<unsigned long long>(r.run.completion),
                     static_cast<unsigned long long>(r.run.instructions),
                     static_cast<unsigned long long>(r.run.transitions),
                     static_cast<unsigned long long>(r.run.purgeCycles),
                     static_cast<unsigned long long>(r.run.transitionCycles),
                     static_cast<unsigned long long>(r.run.reconfigCycles),
                     r.decidedSplit, r.probes, r.run.l1MissRate,
                     r.run.l2MissRate);
}

std::string
pinKey(double scale, std::uint64_t slot, const std::string &app,
       const std::string &arch)
{
    return strprintf("%.2f\t%llu\t%s\t%s", scale,
                     static_cast<unsigned long long>(slot), app.c_str(),
                     arch.c_str());
}

/** pins.tsv: key columns (scale, slot, app, arch), then pinValues(). */
std::map<std::string, std::string>
loadPins(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        fatal("cannot read pins file '%s'", path.c_str());
    std::map<std::string, std::string> pins;
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::size_t cut = line.find('\t');
        for (int field = 1; field < 4 && cut != std::string::npos; ++field)
            cut = line.find('\t', cut + 1);
        if (cut == std::string::npos)
            fatal("malformed pins line: %s", line.c_str());
        pins[line.substr(0, cut)] = line.substr(cut + 1);
    }
    return pins;
}

// ---------------------------------------------------------------------------
// Layer tracing: per-cell host time and work counts
// ---------------------------------------------------------------------------

struct LayerTimes
{
    double systemBuild = 0, workloadBuild = 0, appBuild = 0, probe = 0,
           run = 0, step = 0, beginPhase = 0, enterExit = 0, reconfigure = 0,
           cell = 0;
    std::uint64_t steps = 0, phases = 0, probeRuns = 0, enterExitCalls = 0,
                  purgeCycles = 0;
    std::map<std::string, std::uint64_t> counts; ///< "mem.x" / "noc.x"

    /** Engine time left after the timed children: never negative. */
    double engineSelf() const { return run - step - enterExit - beginPhase; }

    void
    add(const LayerTimes &o)
    {
        systemBuild += o.systemBuild;
        workloadBuild += o.workloadBuild;
        appBuild += o.appBuild;
        probe += o.probe;
        run += o.run;
        step += o.step;
        beginPhase += o.beginPhase;
        enterExit += o.enterExit;
        reconfigure += o.reconfigure;
        cell += o.cell;
        steps += o.steps;
        phases += o.phases;
        probeRuns += o.probeRuns;
        enterExitCalls += o.enterExitCalls;
        purgeCycles += o.purgeCycles;
        for (const auto &[k, v] : o.counts)
            counts[k] += v;
    }
};

/** Forwards to the real workload, timing beginPhase() and step(). */
class TimedWorkload final : public InteractiveWorkload
{
  public:
    TimedWorkload(std::unique_ptr<InteractiveWorkload> inner,
                  LayerTimes &t)
        : inner_(std::move(inner)), t_(t)
    {
    }

    void
    setup(Process &proc, IpcBuffer &ipc) override
    {
        inner_->setup(proc, ipc);
    }

    void
    beginPhase(PhaseKind kind, std::uint64_t interaction,
               unsigned num_threads) override
    {
        const auto t0 = Clock::now();
        inner_->beginPhase(kind, interaction, num_threads);
        t_.beginPhase += since(t0);
        ++t_.phases;
    }

    bool
    step(ExecContext &ctx) override
    {
        const auto t0 = Clock::now();
        const bool more = inner_->step(ctx);
        t_.step += since(t0);
        ++t_.steps;
        return more;
    }

  private:
    std::unique_ptr<InteractiveWorkload> inner_;
    LayerTimes &t_;
};

/** @p spec with make() timed and its workloads wrapped. */
AppSpec
tracedSpec(const AppSpec &spec, LayerTimes &t)
{
    AppSpec s = spec;
    s.make = [make = spec.make, &t](const SysConfig &cfg) {
        const auto t0 = Clock::now();
        WorkloadPair inner = make(cfg);
        t.workloadBuild += since(t0);
        WorkloadPair p;
        p.insecure =
            std::make_unique<TimedWorkload>(std::move(inner.insecure), t);
        p.secure =
            std::make_unique<TimedWorkload>(std::move(inner.secure), t);
        return p;
    };
    return s;
}

/** An architecture with its entry/exit and reconfiguration timed. */
template <typename Base>
class TimedModel final : public Base
{
  public:
    TimedModel(System &sys, LayerTimes &t) : Base(sys), t_(t) {}

    Cycle
    enclaveEnter(Process &proc, Cycle t) override
    {
        const auto t0 = Clock::now();
        const Cycle r = Base::enclaveEnter(proc, t);
        t_.enterExit += since(t0);
        ++t_.enterExitCalls;
        return r;
    }

    Cycle
    enclaveExit(Process &proc, Cycle t) override
    {
        const auto t0 = Clock::now();
        const Cycle r = Base::enclaveExit(proc, t);
        t_.enterExit += since(t0);
        ++t_.enterExitCalls;
        return r;
    }

    Cycle
    reconfigure(unsigned secure_cores, Cycle t) override
    {
        const auto t0 = Clock::now();
        const Cycle r = Base::reconfigure(secure_cores, t);
        t_.reconfigure += since(t0);
        return r;
    }

  private:
    LayerTimes &t_;
};

std::unique_ptr<SecurityModel>
makeModel(ArchKind kind, System &sys, LayerTimes *t)
{
    if (!t)
        return createModel(kind, sys);
    switch (kind) {
      case ArchKind::SGX_LIKE:
        return std::make_unique<TimedModel<SgxLike>>(sys, *t);
      case ArchKind::MI6:
        return std::make_unique<TimedModel<MulticoreMi6>>(sys, *t);
      case ArchKind::IRONHIDE:
        return std::make_unique<TimedModel<Ironhide>>(sys, *t);
      default:
        fatal("no timed model for architecture %s", archName(kind));
    }
}

const char *const MEM_COUNTERS[] = {"accesses", "l1_misses", "l2_misses",
                                    "tlb_misses", "invalidations_sent",
                                    "private_purges"};
const char *const NOC_COUNTERS[] = {"packets", "flits",
                                    "link_stall_cycles"};

/** One cell's outcome on the decomposed path. */
struct CellRun
{
    ExperimentResult out;
    double setup = 0;  ///< System + model + InteractiveApp constructors
    LayerTimes layers; ///< filled when traced
    std::string error; ///< non-empty when the cell threw
};

/**
 * One cell through the same protocol runExperiment() follows (System,
 * createModel, decideSplit, InteractiveApp, run) with the constructors
 * timed apart from the run. Must reproduce runExperiment() exactly —
 * the pins (generated through runExperiment) check that it does.
 */
CellRun
runCell(const SweepJob &job, bool traced)
{
    CellRun c;
    LayerTimes *lt = traced ? &c.layers : nullptr;
    const auto cell0 = Clock::now();
    try {
        ExperimentResult &r = c.out;
        r.app = job.app.name;
        r.arch = archName(job.arch);

        auto t0 = Clock::now();
        System sys(job.cfg);
        const double sys_s = since(t0);
        t0 = Clock::now();
        std::unique_ptr<SecurityModel> model = makeModel(job.arch, sys, lt);
        const double model_s = since(t0);

        RunOptions opts;
        opts.warmup = std::min<std::uint64_t>(8, job.app.interactions / 4);
        if (job.arch == ArchKind::IRONHIDE) {
            // Probes run on their own fresh machines: pass the unwrapped
            // spec so probe steps stay out of the step bucket.
            t0 = Clock::now();
            const ReallocPredictor::Decision d =
                decideSplit(job.app, job.cfg, job.ihopts.policy,
                            job.ihopts.probeInteractions, 1);
            if (lt) {
                lt->probe += since(t0);
                lt->probeRuns += d.probes;
            }
            opts.reconfigTarget = d.secureCores;
            r.decidedSplit = d.secureCores;
            r.probes = d.probes;
        }

        const AppSpec spec = lt ? tracedSpec(job.app, *lt) : job.app;
        t0 = Clock::now();
        InteractiveApp app(sys, *model, spec);
        const double app_s = since(t0);
        c.setup = sys_s + model_s + app_s;

        t0 = Clock::now();
        r.run = app.run(opts);
        const double run_s = since(t0);
        if (r.decidedSplit == 0)
            r.decidedSplit = model->secureCoreCount();

        if (lt) {
            lt->systemBuild += sys_s;
            lt->appBuild += app_s;
            lt->run += run_s;
            lt->purgeCycles += model->purgeOverhead();
            for (const char *k : MEM_COUNTERS)
                lt->counts[std::string("mem.") + k] +=
                    sys.mem().stats().value(k);
            for (const char *k : NOC_COUNTERS)
                lt->counts[std::string("noc.") + k] +=
                    sys.network().stats().value(k);
        }
    } catch (const std::exception &e) {
        c.error = e.what();
    }
    if (lt)
        lt->cell = since(cell0);
    return c;
}

/** Construct a cell's System, model and InteractiveApp; return seconds. */
double
setupOnly(const SweepJob &job)
{
    const auto t0 = Clock::now();
    System sys(job.cfg);
    std::unique_ptr<SecurityModel> model = createModel(job.arch, sys);
    InteractiveApp app(sys, *model, job.app);
    return since(t0); // read before the destructors run
}

// ---------------------------------------------------------------------------
// Passes
// ---------------------------------------------------------------------------

struct Pass
{
    std::vector<ExperimentResult> cells;
    std::vector<std::string> errors; ///< per cell, empty = ok
    double wall = 0, cpu = 0, setup = 0;
    std::vector<double> cellWall; ///< serial passes: wall per cell
    std::vector<double> kernel;   ///< reference-kernel samples, seconds
    std::uint64_t instructions = 0;
    LayerTimes layers;
};

Pass
runPass(const std::vector<SweepJob> &jobs, bool parallel, unsigned workers,
        bool traced, RefKernel &kernel)
{
    Pass p;
    p.errors.assign(jobs.size(), "");
    p.cells.resize(jobs.size());
    const auto keep = [&](std::size_t i, CellRun &c) {
        p.cells[i] = std::move(c.out);
        p.errors[i] = std::move(c.error);
        p.setup += c.setup;
        p.layers.add(c.layers);
        // The timed children of InteractiveApp::run must fit inside it.
        if (c.layers.engineSelf() < 0)
            p.errors[i] = "layer buckets exceed sim.run_s";
    };
    if (!parallel) {
        // Serial: cells one after another, the reference kernel timed
        // between them (outside the pass's wall and CPU time).
        for (std::size_t i = 0; i < jobs.size(); ++i) {
            const auto w0 = Clock::now();
            const double c0 = processCpu();
            CellRun c = runCell(jobs[i], traced);
            p.cpu += processCpu() - c0;
            p.cellWall.push_back(since(w0));
            p.wall += p.cellWall.back();
            keep(i, c);
            p.kernel.push_back(kernel.sample());
        }
    } else if (!traced) {
        // The figure benches' sweep path. Its cells construct their own
        // machines, so set-up is timed by a separate construction round.
        for (const SweepJob &j : jobs)
            p.setup += setupOnly(j);
        const auto w0 = Clock::now();
        const double c0 = processCpu();
        try {
            p.cells = SweepRunner(workers).run(jobs);
        } catch (const std::exception &e) {
            for (std::string &err : p.errors)
                err = e.what();
        }
        p.cpu = processCpu() - c0;
        p.wall = since(w0);
        for (int k = 0; k < 8; ++k)
            p.kernel.push_back(kernel.sample());
    } else {
        // Traced grid: the same worker pool, fanned out over the
        // decomposed (and wrapped) cells so every layer is timed.
        const auto w0 = Clock::now();
        const double c0 = processCpu();
        std::vector<CellRun> runs = SweepRunner(workers).map<CellRun>(
            jobs.size(),
            [&](std::size_t i) { return runCell(jobs[i], true); });
        p.cpu = processCpu() - c0;
        p.wall = since(w0);
        for (std::size_t i = 0; i < runs.size(); ++i)
            keep(i, runs[i]);
        for (int k = 0; k < 8; ++k)
            p.kernel.push_back(kernel.sample());
    }
    for (const ExperimentResult &c : p.cells)
        p.instructions += c.run.instructions;
    return p;
}

// ---------------------------------------------------------------------------
// Command line
// ---------------------------------------------------------------------------

struct Args
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 10;
    bool trace = false;
    unsigned workers = 4;
    double scale = 0;    ///< 0 = the workload's own scale
    unsigned passes = 0; ///< 0 = as many as fit in --seconds
    std::string pins;
    std::uint64_t anchorCycles = 0, anchorInstructions = 0;
    bool dumpPins = false;
};

std::uint64_t
parseU64(const char *flag, const char *s)
{
    char *end = nullptr;
    errno = 0;
    const unsigned long long v = std::strtoull(s, &end, 10);
    if (errno || end == s || *end || s[0] == '-')
        fatal("%s: expected an unsigned integer, got '%s'", flag, s);
    return v;
}

double
parsePositive(const char *flag, const char *s)
{
    char *end = nullptr;
    const double v = std::strtod(s, &end);
    if (end == s || *end || !(v > 0) || !std::isfinite(v))
        fatal("%s: expected a positive number, got '%s'", flag, s);
    return v;
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string f = argv[i];
        if (f == "--dump-pins") {
            a.dumpPins = true;
            continue;
        }
        if (i + 1 >= argc)
            fatal("%s requires a value", f.c_str());
        const char *v = argv[++i];
        if (f == "--workload")
            a.workload = v;
        else if (f == "--seed")
            a.seed = parseU64("--seed", v);
        else if (f == "--seconds")
            a.seconds = parsePositive("--seconds", v);
        else if (f == "--trace")
            a.trace = parseU64("--trace", v) != 0;
        else if (f == "--workers")
            a.workers = static_cast<unsigned>(
                std::clamp<std::uint64_t>(parseU64("--workers", v), 1, 64));
        else if (f == "--scale")
            a.scale = parsePositive("--scale", v);
        else if (f == "--passes")
            a.passes = static_cast<unsigned>(parseU64("--passes", v));
        else if (f == "--pins")
            a.pins = v;
        else if (f == "--anchor-cycles")
            a.anchorCycles = parseU64("--anchor-cycles", v);
        else if (f == "--anchor-instructions")
            a.anchorInstructions = parseU64("--anchor-instructions", v);
        else
            fatal("unknown flag '%s'", f.c_str());
    }
    return a;
}

/**
 * Clear every IRONHIDE_* / IH_* variable: the simulator reads knobs
 * such as IRONHIDE_THREADS, IRONHIDE_DOMAINS, IRONHIDE_ENGINE and
 * IH_FAULT_INJECT at call time, and the benchmark takes its own worker
 * count, scale and seed as arguments instead.
 */
void
scrubEnvironment()
{
    std::vector<std::string> names;
    for (char **e = environ; *e; ++e) {
        const std::string kv = *e;
        if (kv.rfind("IRONHIDE_", 0) == 0 || kv.rfind("IH_", 0) == 0)
            names.push_back(kv.substr(0, kv.find('=')));
    }
    for (const std::string &n : names) {
        unsetenv(n.c_str());
        std::printf("env: cleared %s\n", n.c_str());
    }
}

/** Every pinned (scale, slot, cell) a workload or its smoke mode uses. */
int
dumpPins(unsigned workers)
{
    std::printf("# Pinned simulated outputs of every benchmark cell, made by "
                "runExperiment().\n# Regenerate only for an intentional "
                "model change: ih_perfbench --dump-pins\n");
    std::printf("# scale\tslot\tapp\tarch\tcompletion\tinstructions\t"
                "transitions\tpurge_cycles\ttransition_cycles\t"
                "reconfig_cycles\tsecure_cores\tprobes\tl1_miss_rate\t"
                "l2_miss_rate\n");
    for (std::uint64_t slot = 0; slot < SEED_SLOTS; ++slot) {
        const SysConfig cfg = slotConfig(slot);
        std::vector<std::pair<double, std::vector<SweepJob>>> grids;
        grids.push_back({0.3, gridJobs(true, true, 0.3, cfg)});
        grids.push_back({1.0, gridJobs(false, true, 1.0, cfg)});
        grids.push_back({0.05, gridJobs(true, true, 0.05, cfg)});
        for (const auto &[scale, jobs] : grids) {
            const std::vector<ExperimentResult> rs =
                SweepRunner(workers).run(jobs);
            for (const ExperimentResult &r : rs) {
                std::printf("%s\t%s\n",
                            pinKey(scale, slot, r.app, r.arch).c_str(),
                            pinValues(r).c_str());
            }
            std::fflush(stdout);
        }
    }
    return 0;
}

/** IRONHIDE speedup geomeans over the cells of one pass (info only). */
void
printFidelity(const std::vector<ExperimentResult> &cells)
{
    std::map<std::string, std::map<std::string, double>> by_app;
    for (const ExperimentResult &c : cells)
        by_app[c.app][c.arch] = static_cast<double>(c.run.completion);
    std::vector<double> user_mi6, os_mi6, all_mi6, all_sgx;
    for (const auto &[app, t] : by_app) {
        if (!t.count("ironhide") || !t.count("mi6") || !t.count("sgx"))
            continue;
        const double ih = t.at("ironhide");
        const bool os = app.find(", OS>") != std::string::npos;
        (os ? os_mi6 : user_mi6).push_back(t.at("mi6") / ih);
        all_mi6.push_back(t.at("mi6") / ih);
        all_sgx.push_back(t.at("sgx") / ih);
    }
    const auto g = [](const std::vector<double> &v) {
        return v.empty() ? std::string("-")
                         : strprintf("%.2fx", geomean(v));
    };
    std::printf("fidelity (info): IRONHIDE over MI6 user %s (paper ~1.32x)"
                ", OS %s (~3.1x), all %s (~2.1x); over SGX all %s "
                "(~1.2x)\n",
                g(user_mi6).c_str(), g(os_mi6).c_str(), g(all_mi6).c_str(),
                g(all_sgx).c_str());
}

/** The repo golden: the 27-cell scale-0.1 perf_smoke grid totals. */
bool
checkAnchor(const Args &a)
{
    const std::vector<ExperimentResult> rs = SweepRunner(a.workers).run(
        gridJobs(true, true, 0.1, slotConfig(0)));
    std::uint64_t cycles = 0, insts = 0;
    for (const ExperimentResult &r : rs) {
        cycles += r.run.completion;
        insts += r.run.instructions;
    }
    const bool ok =
        cycles == a.anchorCycles && insts == a.anchorInstructions;
    std::printf("anchor: %zu cells at scale 0.1: %llu cycles, %llu "
                "instructions (golden %llu / %llu) %s\n",
                rs.size(), static_cast<unsigned long long>(cycles),
                static_cast<unsigned long long>(insts),
                static_cast<unsigned long long>(a.anchorCycles),
                static_cast<unsigned long long>(a.anchorInstructions),
                ok ? "ok" : "MISMATCH");
    return ok;
}

void
metric(std::string &json, const std::string &name, double value,
       const char *unit)
{
    if (json.back() != '{')
        json += ", ";
    json += strprintf("\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                      name.c_str(), value, unit);
}

} // namespace

int
main(int argc, char **argv)
{
    scrubEnvironment();
    const Args a = parseArgs(argc, argv);
    if (a.dumpPins)
        return dumpPins(a.workers);

    const WorkloadDef *w = nullptr;
    for (const WorkloadDef &d : WORKLOADS)
        if (a.workload == d.name)
            w = &d;
    if (!w)
        fatal("unknown workload '%s' (user_serial, os_serial, "
              "fig6_parallel)",
              a.workload.c_str());
    if (a.pins.empty() || a.anchorCycles == 0)
        fatal("--pins and --anchor-cycles/--anchor-instructions are "
              "required");

    const double scale = a.scale > 0 ? a.scale : w->scale;
    const std::uint64_t slot = a.seed % SEED_SLOTS;
    const SysConfig cfg = slotConfig(slot);
    const std::vector<SweepJob> jobs = gridJobs(w->user, w->os, scale, cfg);
    const unsigned workers = w->parallel ? a.workers : 1;
    const std::map<std::string, std::string> pins = loadPins(a.pins);
    std::printf("workload %s: %zu cells, scale %.2f, seed %llu -> slot "
                "%llu (SysConfig::seed %#llx), %u worker(s), trace %d\n",
                w->name, jobs.size(), scale,
                static_cast<unsigned long long>(a.seed),
                static_cast<unsigned long long>(slot),
                static_cast<unsigned long long>(cfg.seed), workers,
                a.trace ? 1 : 0);

    // Measure: passes until the budget is spent (at least one of each
    // kind). A traced run interleaves untraced and traced passes in
    // U T T U order, so host drift over the run cancels out of the
    // tracing overhead.
    RefKernel kernel;
    std::vector<Pass> plain, traced;
    const auto start = Clock::now();
    double longest = 0;
    for (unsigned n = 0;; ++n) {
        const bool tr = a.trace && (n % 4 == 1 || n % 4 == 2);
        const auto p0 = Clock::now();
        (tr ? traced : plain)
            .push_back(runPass(jobs, w->parallel, workers, tr, kernel));
        longest = std::max(longest, since(p0));
        const Pass &last = (tr ? traced : plain).back();
        std::string cw;
        for (double c : last.cellWall)
            cw += strprintf(" %.4f", c);
        cw += " kernel_ms";
        for (double k : last.kernel)
            cw += strprintf(" %.4f", k * 1e3);
        std::printf("pass %u%s: wall %.4f cpu %.4f setup %.4f cells%s\n", n,
                    tr ? " traced" : "", last.wall, last.cpu, last.setup,
                    cw.c_str());
        const bool have_all = !plain.empty() && (!a.trace || !traced.empty());
        if (a.passes ? n + 1 >= a.passes && have_all
                     : have_all && since(start) + longest > a.seconds)
            break;
    }

    // Correctness: every pass against the pins and the first pass.
    std::uint64_t attempted = 0, failed = 0;
    bool consistent = true;
    std::uint64_t digest = 0;
    const Pass &first = plain.front();
    for (const std::vector<Pass> *set : {&plain, &traced}) {
        for (const Pass &p : *set) {
            for (std::size_t i = 0; i < jobs.size(); ++i) {
                ++attempted;
                const std::string key =
                    pinKey(scale, slot, jobs[i].app.name,
                           archName(jobs[i].arch));
                const std::string got = pinValues(p.cells[i]);
                const auto pin = pins.find(key);
                std::string why;
                if (!p.errors[i].empty())
                    why = "threw: " + p.errors[i];
                else if (pin == pins.end())
                    why = "no pinned outputs for this cell";
                else if (pin->second != got)
                    why = "outputs " + got + " != pinned " + pin->second;
                if (!why.empty()) {
                    ++failed;
                    std::printf("FAILED cell %s %s: %s\n",
                                jobs[i].app.name.c_str(),
                                archName(jobs[i].arch), why.c_str());
                }
                if (got != pinValues(first.cells[i]))
                    consistent = false;
            }
        }
    }
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        const std::string line =
            pinKey(scale, slot, first.cells[i].app, first.cells[i].arch) +
            "\t" + pinValues(first.cells[i]);
        std::printf("cell\t%s\n", line.c_str());
        digest = fnv1a(line + "\n", i ? digest : 0xcbf29ce484222325ull);
    }
    std::printf("digest %s slot %llu: %016llx\n", w->name,
                static_cast<unsigned long long>(slot),
                static_cast<unsigned long long>(digest));
    if (!consistent)
        std::printf("FAILED: passes disagree (traced vs untraced or "
                    "run to run)\n");
    printFidelity(first.cells);

    const double peak_rss_mb = [] {
        rusage ru{};
        getrusage(RUSAGE_SELF, &ru);
        return static_cast<double>(ru.ru_maxrss) / 1024.0;
    }();
    const bool anchor_ok = checkAnchor(a);

    // Raw host seconds swing by about +/-20% with the load other tenants
    // put on a shared host, so the gated times are in reference-kernel
    // units: each pass is divided by the median of the kernel samples
    // taken beside it, and a slow stretch of the host divides out.
    // setup_s stays in seconds, rescaled to a host whose kernel sample
    // takes REF_SAMPLE_S. The raw figures are printed for the record.
    constexpr double REF_SAMPLE_S = 0.005;
    std::vector<double> wall, cpu, mips, raw_setup, wall_ref, cpu_ref,
        kinst_ref, setup, samples;
    for (const Pass &p : plain) {
        const double k = median(p.kernel);
        const double insts = static_cast<double>(p.instructions);
        wall.push_back(p.wall);
        cpu.push_back(p.cpu);
        mips.push_back(insts / p.wall / 1e6);
        wall_ref.push_back(p.wall / k);
        cpu_ref.push_back(p.cpu / k);
        kinst_ref.push_back(insts / (p.wall / k) / 1e3);
        raw_setup.push_back(p.setup);
        setup.push_back(p.setup / k * REF_SAMPLE_S);
    }
    for (const std::vector<Pass> *set : {&plain, &traced})
        for (const Pass &p : *set)
            samples.insert(samples.end(), p.kernel.begin(), p.kernel.end());
    std::printf("refkernel: %zu samples, median %.3f ms, spread %.3f\n",
                samples.size(), median(samples) * 1e3, spread(samples));
    std::printf("passes: %zu untraced, %zu traced; wall spread %.3f\n",
                plain.size(), traced.size(), spread(wall));
    std::printf("raw: wall %.4f s, cpu %.4f s, %.3f simulated MIPS, setup "
                "%.4f s\n",
                median(wall), median(cpu), median(mips), median(raw_setup));

    std::string m = "{";
    if (!a.trace) {
        metric(m, "wall_ref", median(wall_ref), "ratio");
        metric(m, "cpu_ref", median(cpu_ref), "ratio");
        metric(m, "sim_kinst_per_ref", median(kinst_ref), "kinst/ref");
        metric(m, "setup_s", median(setup), "s");
        metric(m, "peak_rss_mb", peak_rss_mb, "MB");
    } else {
        // Times: median over traced passes; counts repeat exactly.
        const LayerTimes &c = traced.front().layers;
        const auto med = [&](double LayerTimes::*f) {
            std::vector<double> v;
            for (const Pass &p : traced)
                v.push_back(p.layers.*f);
            return median(v);
        };
        std::vector<double> twall, util, self, probe_frac, ee_frac;
        for (const Pass &p : traced) {
            twall.push_back(p.wall);
            util.push_back(p.cpu / (p.wall * workers));
            self.push_back(p.layers.engineSelf());
            probe_frac.push_back(p.layers.probe / p.layers.cell);
            ee_frac.push_back(p.layers.enterExit / p.layers.cell);
        }
        const double step_s = med(&LayerTimes::step);
        const double self_s = median(self);
        const auto count = [&](const char *k) {
            const auto it = c.counts.find(k);
            return it == c.counts.end() ? 0.0
                                        : static_cast<double>(it->second);
        };
        metric(m, "harness.probe_s", med(&LayerTimes::probe), "s");
        metric(m, "harness.probe_runs", static_cast<double>(c.probeRuns),
               "count");
        metric(m, "harness.probe_frac", median(probe_frac), "ratio");
        metric(m, "harness.pool_util", median(util), "ratio");
        metric(m, "core.enter_exit_s", med(&LayerTimes::enterExit), "s");
        metric(m, "core.enter_exit_frac", median(ee_frac), "ratio");
        metric(m, "core.reconfigure_s", med(&LayerTimes::reconfigure), "s");
        metric(m, "core.transitions",
               static_cast<double>(c.enterExitCalls), "count");
        metric(m, "core.purge_cycles", static_cast<double>(c.purgeCycles),
               "cycles");
        metric(m, "core.system_build_s", med(&LayerTimes::systemBuild),
               "s");
        metric(m, "workloads.step_s", step_s, "s");
        metric(m, "workloads.steps", static_cast<double>(c.steps), "count");
        metric(m, "workloads.phases", static_cast<double>(c.phases),
               "count");
        metric(m, "workloads.build_s", med(&LayerTimes::workloadBuild),
               "s");
        metric(m, "workloads.app_build_s", med(&LayerTimes::appBuild), "s");
        metric(m, "cpu.engine_self_s", self_s, "s");
        metric(m, "cpu.ns_per_phase",
               self_s / static_cast<double>(std::max<std::uint64_t>(
                            1, c.phases)) * 1e9,
               "ns");
        for (const char *k : MEM_COUNTERS)
            metric(m, std::string("mem.") + k,
                   count((std::string("mem.") + k).c_str()), "count");
        metric(m, "mem.step_ns_per_access",
               step_s / std::max(1.0, count("mem.accesses")) * 1e9, "ns");
        for (const char *k : NOC_COUNTERS)
            metric(m, std::string("noc.") + k,
                   count((std::string("noc.") + k).c_str()),
                   std::strcmp(k, "link_stall_cycles") ? "count"
                                                       : "cycles");
        metric(m, "sim.run_s", med(&LayerTimes::run), "s");
        metric(m, "trace.overhead_frac", median(twall) / median(wall) - 1,
               "ratio");
    }
    m += "}";

    const bool correct = failed == 0 && consistent && anchor_ok;
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": %s}\n",
                correct ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed), m.c_str());
    return 0;
}
