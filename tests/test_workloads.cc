/**
 * @file
 * Workload tests: the graph generator and kernels compute real results;
 * the SimArray instrumentation issues the expected simulated traffic;
 * every benchmark application's phases terminate and make progress.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <numeric>

#include "core/insecure.hh"
#include "workloads/convnet.hh"
#include "workloads/graph_apps.hh"
#include "workloads/interactive_app.hh"

using namespace ih;

TEST(RoadGraph, CsrIsWellFormed)
{
    Csr g = RoadGraphGen(16, 16, 0.2, 7).build();
    EXPECT_EQ(g.numVertices(), 256u);
    EXPECT_EQ(g.rowOff.front(), 0u);
    EXPECT_EQ(g.rowOff.back(), g.numEdges());
    for (std::size_t u = 0; u < g.numVertices(); ++u) {
        EXPECT_LE(g.rowOff[u], g.rowOff[u + 1]);
        // Sorted adjacency (triangle counting requires it).
        for (std::uint32_t e = g.rowOff[u] + 1; e < g.rowOff[u + 1]; ++e)
            EXPECT_LE(g.col[e - 1], g.col[e]);
    }
    for (std::uint32_t v : g.col)
        EXPECT_LT(v, g.numVertices());
    for (std::uint32_t w : g.weight)
        EXPECT_GT(w, 0u);
}

TEST(RoadGraph, GridEdgesAreSymmetric)
{
    Csr g = RoadGraphGen(8, 8, 0.0, 3).build();
    // Pure grid: every edge has its reverse.
    for (std::uint32_t u = 0; u < g.numVertices(); ++u) {
        for (std::uint32_t e = g.rowOff[u]; e < g.rowOff[u + 1]; ++e) {
            const std::uint32_t v = g.col[e];
            bool found = false;
            for (std::uint32_t e2 = g.rowOff[v]; e2 < g.rowOff[v + 1];
                 ++e2) {
                found |= g.col[e2] == u;
            }
            EXPECT_TRUE(found) << u << "->" << v;
        }
    }
}

TEST(RoadGraph, DeterministicForSeed)
{
    Csr a = RoadGraphGen(12, 12, 0.3, 42).build();
    Csr b = RoadGraphGen(12, 12, 0.3, 42).build();
    EXPECT_EQ(a.col, b.col);
    EXPECT_EQ(a.weight, b.weight);
}

namespace
{

/** A tiny machine + app harness for workload-level runs. */
struct AppRig
{
    System sys{SysConfig::smallTest()};
    InsecureBaseline model{sys};
    InteractiveApp app;

    explicit AppRig(const AppSpec &spec) : app(sys, model, spec) {}
};

AppSpec
tinyApp(const std::string &name)
{
    AppSpec spec = findApp(name, 0.05);
    spec.interactions = 4;
    spec.insecureThreads = 4;
    spec.secureThreads = 4;
    return spec;
}

} // namespace

TEST(GraphApps, SsspComputesFiniteSourceDistance)
{
    const AppSpec spec = tinyApp("<SSSP, GRAPH>");
    AppRig rig(spec);
    const RunResult r = rig.app.run(RunOptions{.warmup = 0});
    EXPECT_GT(r.completion, 0u);
    auto &sssp = dynamic_cast<SsspWorkload &>(rig.app.secureWorkload());
    EXPECT_EQ(sssp.distanceOf(0), 0u); // source
    // Relaxation reached at least some neighbourhood.
    unsigned reached = 0;
    for (std::uint32_t v = 0; v < 64; ++v)
        reached += sssp.distanceOf(v) != 0xFFFFFFFFu;
    EXPECT_GT(reached, 1u);
}

TEST(GraphApps, PageRankMassIsConserved)
{
    const AppSpec spec = tinyApp("<PR, GRAPH>");
    AppRig rig(spec);
    rig.app.run(RunOptions{.warmup = 0});
    auto &pr = dynamic_cast<PageRankWorkload &>(rig.app.secureWorkload());
    double sum = 0.0;
    const auto &gen =
        dynamic_cast<GraphGenWorkload &>(rig.app.insecureWorkload());
    for (std::uint32_t v = 0; v < gen.staticGraph().numVertices(); ++v)
        sum += pr.rankOf(v);
    EXPECT_NEAR(sum, 1.0, 0.05);
}

TEST(GraphApps, TriangleCountingMakesProgress)
{
    const AppSpec spec = tinyApp("<TC, GRAPH>");
    AppRig rig(spec);
    const RunResult r = rig.app.run(RunOptions{.warmup = 0});
    EXPECT_GT(r.completion, 0u);
    EXPECT_GT(r.instructions, 0u);
}

TEST(Workloads, EveryStandardAppRunsUnderTheBaseline)
{
    for (const AppSpec &orig : standardApps(0.05)) {
        AppSpec spec = orig;
        spec.interactions = 3;
        spec.insecureThreads = 4;
        spec.secureThreads = 2;
        AppRig rig(spec);
        const RunResult r = rig.app.run(RunOptions{.warmup = 0});
        EXPECT_GT(r.completion, 0u) << spec.name;
        EXPECT_GT(r.instructions, 0u) << spec.name;
        EXPECT_EQ(r.transitions, 6u) << spec.name; // 3 entries + 3 exits
    }
}

TEST(Workloads, InteractivityScalesWithWorkPerInteraction)
{
    // OS-level interactions are far lighter than user-level ones.
    AppSpec user = tinyApp("<PR, GRAPH>");
    AppSpec os = tinyApp("<MEMCACHED, OS>");
    os.interactions = 4;
    AppRig u(user), o(os);
    const RunResult ru = u.app.run(RunOptions{.warmup = 0});
    const RunResult ro = o.app.run(RunOptions{.warmup = 0});
    EXPECT_GT(ro.interactivityPerSec, ru.interactivityPerSec * 5);
}

TEST(ConvNet, LayerGeometry)
{
    const auto layers = alexnetLayers(1.0);
    ASSERT_GE(layers.size(), 5u);
    for (std::size_t i = 0; i + 1 < layers.size(); ++i) {
        if (layers[i + 1].outChanBase != 0)
            continue; // fire-module expand pair shares input
        if (layers[i + 1].kind == LayerSpec::FC &&
            layers[i].kind == LayerSpec::FC) {
            EXPECT_EQ(layers[i + 1].inSize(),
                      static_cast<std::size_t>(layers[i].outC));
        }
    }
    // Pooling halves spatial dims.
    EXPECT_EQ(layers[1].outW(), layers[1].inW / 2);
}

TEST(ConvNet, SqueezeNetHasFewerWeights)
{
    auto count = [](const std::vector<LayerSpec> &ls) {
        std::size_t n = 0;
        for (const auto &l : ls)
            n += l.weightCount();
        return n;
    };
    EXPECT_LT(count(squeezenetLayers(1.0)), count(alexnetLayers(1.0)));
}

TEST(ConvNet, InferenceProducesFiniteOutputs)
{
    AppSpec spec = tinyApp("<ALEXNET, VISION>");
    AppRig rig(spec);
    rig.app.run(RunOptions{.warmup = 0});
    auto &net = dynamic_cast<ConvNetWorkload &>(rig.app.secureWorkload());
    for (std::size_t i = 0; i < 10; ++i)
        EXPECT_TRUE(std::isfinite(net.outputOf(i)));
}

// The exact float bits of both nets' final outputs after a fixed short
// run, at three scales (channel counts 2-4 at 0.05/0.3 and 8-16 at 1.0).
// The host-side kernels may be restructured only in ways that keep every
// output bit, including SqueezeNet's in-place expand layer (see
// docs/ARCHITECTURE.md, "The miss path").
TEST(ConvNet, OutputsArePinned)
{
    struct Pin
    {
        double scale;
        const char *app;
        std::uint32_t bits[10];
    };
    const Pin pins[] = {
        {0.05, "<ALEXNET, VISION>",
         {0x3dad535d, 0x3d0975a4, 0x00000000, 0x3d885bdc, 0x00000000,
          0x3d97d243, 0x3c13a1bc, 0x00000000, 0x3d57cf5b, 0x3ce8ca37}},
        {0.05, "<SQZ-NET, VISION>",
         {0x00000000, 0x3ed4b9c3, 0x3f5b7a0a, 0x00000000, 0x00000000,
          0x3efd6b0a, 0x00000000, 0x00000000, 0x3e265ef6, 0x3f4c1425}},
        {0.3, "<ALEXNET, VISION>",
         {0x3c24c582, 0x3cc91bda, 0x3cd7cc28, 0x3cf2d352, 0x00000000,
          0x3dfb57ae, 0x00000000, 0x00000000, 0x3d013fcc, 0x00000000}},
        {0.3, "<SQZ-NET, VISION>",
         {0x00000000, 0x3ec44964, 0x3fce96b9, 0x00000000, 0x3f572d60,
          0x3f38c93c, 0x00000000, 0x00000000, 0x00000000, 0x3f98293d}},
        {1.0, "<ALEXNET, VISION>",
         {0x3d344487, 0x00000000, 0x3d385029, 0x3c86659a, 0x00000000,
          0x3e422d79, 0x3cfeaebb, 0x00000000, 0x3c9a718a, 0x3d2b69f4}},
        {1.0, "<SQZ-NET, VISION>",
         {0x00000000, 0x3f8b0cb8, 0x40283311, 0x00000000, 0x3f4b0987,
          0x00000000, 0x00000000, 0x00000000, 0x00000000, 0x3f72d5b1}},
    };
    for (const Pin &pin : pins) {
        AppSpec spec = findApp(pin.app, pin.scale);
        spec.interactions = 2;
        spec.insecureThreads = 4;
        spec.secureThreads = 4;
        AppRig rig(spec);
        rig.app.run(RunOptions{.warmup = 0});
        auto &net =
            dynamic_cast<ConvNetWorkload &>(rig.app.secureWorkload());
        for (std::size_t i = 0; i < 10; ++i) {
            const float v = net.outputOf(i);
            std::uint32_t bits = 0;
            std::memcpy(&bits, &v, sizeof bits);
            EXPECT_EQ(bits, pin.bits[i])
                << pin.app << " scale " << pin.scale << " output " << i
                << " = " << v;
        }
    }
}

TEST(WorkRange, PartitionCoversAndIsDisjoint)
{
    for (unsigned total : {0u, 1u, 7u, 64u, 1000u}) {
        for (unsigned threads : {1u, 2u, 3u, 32u}) {
            std::vector<bool> covered(total, false);
            std::size_t sum = 0;
            for (unsigned t = 0; t < threads; ++t) {
                const WorkRange r = WorkRange::of(total, threads, t);
                EXPECT_LE(r.begin, r.end);
                sum += r.size();
                for (std::size_t i = r.begin; i < r.end; ++i) {
                    EXPECT_FALSE(covered[i]);
                    covered[i] = true;
                }
            }
            EXPECT_EQ(sum, total);
        }
    }
}

TEST(SimArray, ScanTouchesOncePerLine)
{
    System sys{SysConfig::smallTest()};
    Process &p = sys.createProcess("p", Domain::INSECURE, 1);
    SimArray<std::uint32_t> arr;
    arr.init(p, 256);
    ExecContext ctx(sys.engine(), p, 0, 1, 0, 0);
    const auto before = sys.mem().stats().value("accesses");
    arr.scan(ctx, 0, 256, MemOp::LOAD); // 256 * 4B = 1 KiB = 16 lines
    EXPECT_EQ(sys.mem().stats().value("accesses") - before, 16u);
}

TEST(SimArray, ReadWriteRoundTrip)
{
    System sys{SysConfig::smallTest()};
    Process &p = sys.createProcess("p", Domain::INSECURE, 1);
    SimArray<std::uint64_t> arr;
    arr.init(p, 8, 5);
    ExecContext ctx(sys.engine(), p, 0, 1, 0, 0);
    EXPECT_EQ(arr.read(ctx, 3), 5u);
    arr.write(ctx, 3, 42);
    EXPECT_EQ(arr.read(ctx, 3), 42u);
    arr.update(ctx, 3, [](std::uint64_t &v) { v += 1; });
    EXPECT_EQ(arr.host(3), 43u);
}

TEST(IpcBuffer, SlotAddressing)
{
    System sys{SysConfig::smallTest()};
    Process &owner = sys.createProcess("os", Domain::INSECURE, 1);
    IpcBuffer ipc(owner, 4, 256);
    EXPECT_EQ(ipc.slots(), 4u);
    EXPECT_EQ(ipc.slotOf(0), 0u);
    EXPECT_EQ(ipc.slotOf(5), 1u);
    EXPECT_NE(ipc.headerAddr(0), ipc.headerAddr(1));
    EXPECT_EQ(ipc.payloadAddr(2, 0), ipc.headerAddr(2) + 64);
}

TEST(IpcBufferDeathTest, MustLiveInInsecureSpace)
{
    System sys{SysConfig::smallTest()};
    Process &sec = sys.createProcess("enclave", Domain::SECURE, 1);
    EXPECT_DEATH(IpcBuffer(sec, 4, 64), "insecure process");
}

TEST(AppRegistry, NineStandardApps)
{
    const auto apps = standardApps(1.0);
    EXPECT_EQ(apps.size(), 9u);
    unsigned os_apps = 0;
    for (const auto &a : apps) {
        os_apps += a.osLevel;
        EXPECT_FALSE(a.name.empty());
        EXPECT_GT(a.interactions, 0u);
        EXPECT_TRUE(a.make);
    }
    EXPECT_EQ(os_apps, 2u);
}

TEST(AppRegistryDeathTest, UnknownAppIsFatal)
{
    EXPECT_EXIT(findApp("<DOOM, GRAPH>", 1.0),
                testing::ExitedWithCode(1), "unknown application");
}
