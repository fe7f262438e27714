/**
 * @file
 * Open-loop serving sweep: session-latency percentiles and
 * goodput-vs-offered-load curves under continuous enclave churn.
 *
 * The paper evaluates IRONHIDE on one application at a time; this
 * bench asks the deployment question instead: a long-lived machine
 * receives a Poisson stream of sessions over the paper's applications,
 * every arrival spawns an enclave invocation (secure allocation,
 * reconfiguration decision, teardown scrub on the next distrusting
 * arrival), and each architecture's ladder escalates the offered load
 * until saturation (harness/serve). The headline contrast: SGX pays a
 * constant per-interaction tax, MI6's purge-bracketed entry/exit
 * crushes its saturation point, and IRONHIDE serves near the insecure
 * machine's knee while still purging between distrusting apps.
 *
 * One job = one architecture's whole ladder, run through the generic
 * fault-tolerance layer: IRONHIDE_SHARD skips ladders other shards
 * own, --journal resumes completed ladders across crashes, --isolate
 * forks each ladder into a supervised child (IRONHIDE_JOB_TIMEOUT_MS /
 * IRONHIDE_JOB_RETRIES apply). `--json <path>` writes the
 * "BENCH_serve/v1" report — byte-identical at any IRONHIDE_THREADS
 * setting (CI diffs 1 vs 4).
 *
 * Knobs: IRONHIDE_SERVE_SESSIONS (sessions per ladder rung, default
 * 48), IRONHIDE_SERVE_APPS (serve only the first n paper apps),
 * IRONHIDE_SERVE_SEED (arrival-process seed),
 * IRONHIDE_SERVE_LAMBDA0 (first rung's offered load in sessions/s;
 * unset = calibrate off the insecure machine),
 * IRONHIDE_SERVE_CALIB (pinned = calibrate the ladder origin on the
 * INSECURE machine so every architecture runs the same absolute
 * loads, the default; per-arch = calibrate on the architecture under
 * test, starting each ladder the same relative distance below its own
 * knee), IRONHIDE_MAX_LOAD_STEPS (rung bound, default 6).
 */

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "harness/experiment.hh"
#include "harness/report.hh"
#include "harness/serve.hh"
#include "harness/sweep.hh"
#include "sim/log.hh"

using namespace ih;

namespace
{

const ArchKind kArchs[] = {ArchKind::INSECURE, ArchKind::SGX_LIKE,
                           ArchKind::MI6, ArchKind::IRONHIDE};
constexpr std::size_t kNumArchs = 4;

LoadLadderOptions
ladderOptions(const std::vector<AppSpec> &apps)
{
    LoadLadderOptions opts;
    opts.maxSteps = maxLoadSteps();
    opts.lambda0 = envPositiveDouble("IRONHIDE_SERVE_LAMBDA0", 0.0);
    opts.serve.sessions = 48;
    unsigned long v = 0;
    if (parseEnvUnsigned("IRONHIDE_SERVE_SESSIONS",
                         std::getenv("IRONHIDE_SERVE_SESSIONS"),
                         1000000ul, v) &&
        v > 0)
        opts.serve.sessions = v;
    if (parseEnvUnsigned("IRONHIDE_SERVE_SEED",
                         std::getenv("IRONHIDE_SERVE_SEED"),
                         0xFFFFFFFFul, v))
        opts.serve.seed = v;
    if (const char *calib = std::getenv("IRONHIDE_SERVE_CALIB")) {
        const std::string s = calib;
        if (s == "per-arch")
            opts.perArchCalib = true;
        else if (s != "pinned")
            fatal("unknown IRONHIDE_SERVE_CALIB '%s' (pinned|per-arch)",
                  calib);
    }
    (void)apps;
    return opts;
}

std::string
serveToJson(const std::vector<std::string> &payloads,
            const PayloadOutcome &out)
{
    JsonWriter w;
    w.beginObject();
    w.key("schema").value("BENCH_serve/v1");
    w.key("sweep").value("serve_openloop");
    w.key("jobs").value(std::uint64_t{kNumArchs});
    if (out.sharded()) {
        w.key("shard").value(out.shard.str());
        w.key("shard_jobs").value(std::uint64_t{out.shardJobs()});
    }
    w.key("complete").value(out.complete());
    const std::vector<std::size_t> failed = out.failedCells();
    if (!failed.empty()) {
        w.key("failed_cells").beginArray();
        for (const std::size_t i : failed)
            w.value(std::uint64_t{i});
        w.endArray();
    }

    w.key("results").beginArray();
    for (std::size_t i = 0; i < kNumArchs; ++i) {
        const CellOutcome &c = out.cells[i];
        if (c.status == CellStatus::SKIPPED)
            continue;
        w.beginObject();
        w.key("job").value(std::uint64_t{i});
        w.key("arch").value(archName(kArchs[i]));
        w.key("status").value(cellStatusName(c.status, c.attempts));
        if (c.attempts > 1)
            w.key("attempts").value(c.attempts);
        if (!c.ok()) {
            w.key("error").value(c.error);
            w.endObject();
            continue;
        }
        LoadLadderResult ladder;
        const bool ok = deserializeLadder(payloads[i], ladder);
        IH_ASSERT(ok, "validated ladder payload failed to decode");
        w.key("stop_reason").value(ladder.stopReason);
        w.key("steps").beginArray();
        for (const ServeCellResult &s : ladder.steps) {
            w.beginObject();
            w.key("offered_per_sec").value(s.offeredPerSec);
            w.key("sessions").value(s.sessions);
            w.key("makespan_cycles").value(s.makespan);
            w.key("p50_cycles").value(s.p50);
            w.key("p99_cycles").value(s.p99);
            w.key("p999_cycles").value(s.p999);
            w.key("max_latency_cycles").value(s.maxLatency);
            w.key("mean_latency_cycles").value(s.meanLatency);
            w.key("goodput_per_sec").value(s.goodputPerSec);
            w.key("max_queue_depth").value(s.maxQueueDepth);
            w.key("reconfig_events").value(s.reconfigEvents);
            w.key("app_switch_purges").value(s.appSwitchPurges);
            w.key("transitions").value(s.transitions);
            w.key("purge_cycles").value(s.purgeCycles);
            w.key("transition_cycles").value(s.transitionCycles);
            w.key("reconfig_cycles").value(s.reconfigCycles);
            w.endObject();
        }
        w.endArray();
        w.endObject();
    }
    w.endArray();
    w.endObject();
    return w.str();
}

} // namespace

int
main(int argc, char **argv)
{
    const SysConfig cfg = benchConfig();
    std::vector<AppSpec> apps = standardApps(benchScale());
    unsigned long nApps = 0;
    if (parseEnvUnsigned("IRONHIDE_SERVE_APPS",
                         std::getenv("IRONHIDE_SERVE_APPS"), apps.size(),
                         nApps) &&
        nApps > 0)
        apps.resize(nApps);
    const LoadLadderOptions base = ladderOptions(apps);

    printBanner("Open-loop serving: latency under enclave churn",
                "Poisson session arrivals on a long-lived machine; "
                "offered load escalates until saturation per "
                "architecture.");
    std::printf("sessions/rung %" PRIu64 ", rung bound %u, apps %zu\n\n",
                base.serve.sessions, base.maxSteps, apps.size());

    jsonReportPath(argc, argv); // fail-fast probe before the runs
    const SweepRunOptions opts = sweepRunFromArgs(argc, argv);
    const FaultPlan faults = FaultPlan::fromEnv();

    // One job per architecture. The IRONHIDE ladder binds each app's
    // preferred split once (the paper's heuristic) and rebinds the
    // cluster per arriving session; recomputing inside the job keeps
    // it self-contained under --isolate and resume.
    const auto runJob = [&](std::size_t i) {
        LoadLadderOptions lopts = base;
        if (kArchs[i] == ArchKind::IRONHIDE) {
            for (const AppSpec &app : apps)
                lopts.serve.splits.push_back(
                    decideSplit(app, cfg, SplitPolicy::HEURISTIC, 4)
                        .secureCores);
        }
        return serializeLadder(
            runLoadLadder(kArchs[i], cfg, apps, lopts));
    };
    const auto validate = [](const std::string &payload) {
        LoadLadderResult r;
        return deserializeLadder(payload, r);
    };
    const auto perturb = [](const std::string &payload) {
        LoadLadderResult r;
        const bool ok = deserializeLadder(payload, r);
        IH_ASSERT(ok, "NONDET perturbation of an undecodable payload");
        if (!r.steps.empty())
            r.steps[0].transitions += 1;
        return serializeLadder(r);
    };

    PayloadOutcome out;
    try {
        out = runFaultTolerantPayloadSweep("serve_openloop", kNumArchs,
                                           runJob, validate, perturb,
                                           opts, faults);
    } catch (const JournalError &e) {
        fatal("%s", e.what());
    }

    if (out.sharded())
        std::printf("shard %s: %zu of %zu jobs\n", out.shard.str().c_str(),
                    out.shardJobs(), kNumArchs);
    if (!opts.journalPath.empty())
        std::printf("resume: %zu of %zu jobs already complete\n",
                    out.resumed, out.shardJobs());
    for (const std::size_t i : out.failedCells()) {
        const CellOutcome &c = out.cells[i];
        std::printf("%s job %zu (%s): %s [%u attempt%s]\n",
                    c.status == CellStatus::TIMEOUT ? "TIMEOUT"
                                                    : "FAILED",
                    i, archName(kArchs[i]), c.error.c_str(), c.attempts,
                    c.attempts == 1 ? "" : "s");
    }
    if (!out.complete())
        std::printf("sweep degraded: %zu of %zu cells failed; the table "
                    "covers the survivors only\n",
                    out.failedCells().size(), out.shardJobs());

    Table table({"arch", "offered/s", "goodput/s", "p50(us)", "p99(us)",
                 "p999(us)", "maxq", "reconfigs", "purges", "stop"});
    for (std::size_t i = 0; i < kNumArchs; ++i) {
        if (!out.cells[i].ok())
            continue;
        LoadLadderResult ladder;
        const bool ok = deserializeLadder(out.payloads[i], ladder);
        IH_ASSERT(ok, "validated ladder payload failed to decode");
        for (std::size_t s = 0; s < ladder.steps.size(); ++s) {
            const ServeCellResult &c = ladder.steps[s];
            const bool last = s + 1 == ladder.steps.size();
            table.addRow(
                {s == 0 ? ladder.arch : "", Table::num(c.offeredPerSec, 0),
                 Table::num(c.goodputPerSec, 0),
                 Table::num(cyclesToUs(c.p50), 1),
                 Table::num(cyclesToUs(c.p99), 1),
                 Table::num(cyclesToUs(c.p999), 1),
                 strprintf("%" PRIu64, c.maxQueueDepth),
                 strprintf("%" PRIu64, c.reconfigEvents),
                 strprintf("%" PRIu64, c.appSwitchPurges),
                 last ? ladder.stopReason : ""});
        }
        table.addSeparator();
    }
    table.print();

    if (const char *path = jsonReportPath(argc, argv)) {
        writeTextFile(path, serveToJson(out.payloads, out) + "\n");
        std::printf("wrote JSON report: %s\n", path);
    }
    return out.exitCode();
}
