/**
 * @file
 * Property and validation suite for the cycle-level GEMM engine.
 *
 * Three contracts, mirroring the TILE_SIM suite
 * (tests/test_gemm_property.cpp):
 *
 *  1. Bit-exactness: the event-coalesced engine with periodic replay
 *     must match the naive per-cycle tick reference
 *     (simulateGemmCyclesTick) on every CycleStats field (cycle counts
 *     AND the stall breakdown), over randomized skinny / square /
 *     remainder-heavy shapes. replayedTiles is the one field replay is
 *     allowed (and expected) to change.
 *  2. Regime behaviour: scratchpad-capacity serialization and DRAM
 *     bank queueing — the effects the closed forms cannot see — must
 *     appear exactly in the configurations built to provoke them.
 *  3. Cross-mode validation: on sampled fig06/07-space designs the
 *     three GEMM modes must agree within a bounded relative error
 *     (the documented outliers are spad-capacity and DRAM-bound
 *     corners, where CYCLE_SIM legitimately diverges — docs/PERF.md).
 */

#include <gtest/gtest.h>

#include <random>
#include <string>
#include <thread>
#include <vector>

#include "common/logging.hh"
#include "common/units.hh"
#include "core/study.hh"
#include "dse/evaluate.hh"
#include "dse/sweep.hh"
#include "hw/presets.hh"
#include "perf/cycle_sim.hh"
#include "perf/gemm_cache.hh"
#include "perf/matmul_model.hh"
#include "perf/tile_sim.hh"

namespace acs {
namespace perf {
namespace {

model::Op
weightGemm(long m, long n, long k, long batch = 1)
{
    model::Op op;
    op.name = "gemm";
    op.kind = model::OpKind::MATMUL;
    op.mm = {m, n, k, batch, true};
    op.flops = 2.0 * static_cast<double>(batch) * m * n * k;
    op.weightBytes = 2.0 * static_cast<double>(batch) * k * n;
    op.inputBytes = 2.0 * static_cast<double>(batch) * m * k;
    op.outputBytes = 2.0 * static_cast<double>(batch) * m * n;
    return op;
}

/**
 * Device geometries small enough for the naive per-cycle reference to
 * stay affordable (its cost is makespan x arrays): a few-arrays A100
 * variant, its small-L1 twin (tiny tiles, many remainder classes),
 * and a tiny 8x8-array design (deep k-chunking, fast ticks).
 */
std::vector<hw::HardwareConfig>
tickableConfigs()
{
    std::vector<hw::HardwareConfig> cfgs;

    hw::HardwareConfig few_arrays = hw::modeledA100();
    few_arrays.name = "few-arrays";
    few_arrays.coreCount = 9;
    few_arrays.lanesPerCore = 2;
    few_arrays.validate();
    cfgs.push_back(few_arrays);

    hw::HardwareConfig small_l1 = few_arrays;
    small_l1.name = "few-arrays-small-l1";
    small_l1.l1BytesPerCore = 32.0 * units::KIB;
    small_l1.validate();
    cfgs.push_back(small_l1);

    hw::HardwareConfig tiny = hw::modeledA100();
    tiny.name = "tiny-8x8";
    tiny.coreCount = 4;
    tiny.lanesPerCore = 2;
    tiny.systolicDimX = 8;
    tiny.systolicDimY = 8;
    tiny.validate();
    cfgs.push_back(tiny);
    return cfgs;
}

/** Every CycleStats field equal except replayedTiles. */
void
expectStatsBitIdentical(const CycleStats &a, const CycleStats &b,
                        const std::string &label)
{
    EXPECT_EQ(a.tileM, b.tileM) << label;
    EXPECT_EQ(a.tileN, b.tileN) << label;
    EXPECT_EQ(a.totalTiles, b.totalTiles) << label;
    EXPECT_EQ(a.cycles, b.cycles) << label;
    EXPECT_EQ(a.totalS, b.totalS) << label;
    EXPECT_EQ(a.computeBusyCycles, b.computeBusyCycles) << label;
    EXPECT_EQ(a.fillStallCycles, b.fillStallCycles) << label;
    EXPECT_EQ(a.dramQueueCycles, b.dramQueueCycles) << label;
    EXPECT_EQ(a.l2QueueCycles, b.l2QueueCycles) << label;
    EXPECT_EQ(a.spadSerialCycles, b.spadSerialCycles) << label;
    EXPECT_EQ(a.overlapOk, b.overlapOk) << label;
    EXPECT_EQ(a.events, b.events) << label;
}

void
runEquivalence(const hw::HardwareConfig &cfg, const model::Op &op,
               const std::string &label)
{
    const CycleStats ref = simulateGemmCyclesTick(cfg, op);
    const CycleStats fast = simulateGemmCycles(cfg, op);
    expectStatsBitIdentical(fast, ref, label + " [coalesced vs tick]");
    EXPECT_EQ(ref.replayedTiles, 0) << label;
}

TEST(CycleProperty, RandomShapesCoalescedMatchesNaiveTick)
{
    // Deterministic seed: failures must reproduce.
    std::mt19937 rng(20260809);
    const auto cfgs = tickableConfigs();

    std::uniform_int_distribution<long> skinny_m(1, 64);
    std::uniform_int_distribution<long> wide_n(512, 4096);
    std::uniform_int_distribution<long> square(64, 640);
    std::uniform_int_distribution<long> heavy(65, 512);
    std::uniform_int_distribution<long> kdim(64, 2048);
    std::uniform_int_distribution<long> batch(1, 8);
    std::uniform_int_distribution<int> family(0, 2);

    for (int trial = 0; trial < 24; ++trial) {
        long m = 0;
        long n = 0;
        switch (family(rng)) {
        case 0: // skinny decode-like: one row of column tiles
            m = skinny_m(rng);
            n = wide_n(rng);
            break;
        case 1: // square-ish prefill block
            m = square(rng);
            n = square(rng);
            break;
        default: // remainder-heavy: odd extents off tile multiples
            m = heavy(rng) | 1;
            n = heavy(rng) | 1;
            break;
        }
        const long k = kdim(rng);
        const long b = batch(rng);
        const auto &cfg = cfgs[trial % cfgs.size()];
        runEquivalence(cfg, weightGemm(m, n, k, b),
                       cfg.name + " m=" + std::to_string(m) +
                           " n=" + std::to_string(n) +
                           " k=" + std::to_string(k) +
                           " b=" + std::to_string(b));
    }
}

TEST(CycleProperty, EdgeShapesMatchNaiveTick)
{
    const auto cfgs = tickableConfigs();
    const struct
    {
        long m, n, k, batch;
    } shapes[] = {
        {1, 1, 64, 1},        // single tiny tile
        {1, 4096, 512, 1},    // one row of column tiles
        {4096, 1, 512, 1},    // one column of row tiles
        {31, 2048, 1024, 1},  // decode GEMV, remainder m
        {209, 353, 512, 5},   // remainders on both axes, batched
        {512, 512, 512, 1},   // exact tile multiples
        {100, 100, 512, 7},   // both-axis remainders, odd batch
    };
    for (const auto &s : shapes) {
        for (const auto &cfg : cfgs) {
            runEquivalence(cfg, weightGemm(s.m, s.n, s.k, s.batch),
                           cfg.name + " m=" + std::to_string(s.m) +
                               " n=" + std::to_string(s.n) +
                               " b=" + std::to_string(s.batch));
        }
    }
}

TEST(CycleProperty, ManyLockstepArraysMatchNaiveTick)
{
    // 144 arrays (the fig06 designs run 408-415) all fall due at cycle
    // 0 and, on identical tiles, keep tying until bank and L2
    // contention staggers them. The coalesced loop's (due, index) queue
    // order must reproduce the tick's canonical drain exactly: same
    // bank and L2 arbitration, same event count. Every shape has more jobs than arrays, so
    // replay is armed; the long ones fast-forward, which re-keys the
    // queue mid-run.
    hw::HardwareConfig cfg = hw::modeledA100();
    cfg.name = "lockstep-144";
    cfg.coreCount = 72;
    cfg.lanesPerCore = 2;
    cfg.l1BytesPerCore = 32.0 * units::KIB;
    cfg.validate();
    ASSERT_GE(cfg.totalSystolicArrays(), 128);

    const struct
    {
        long m, n, k, batch;
    } shapes[] = {
        {512, 2048, 256, 1},   // ~6 tiles per array: stays live
        {8192, 4096, 128, 1},  // long prefill block: replays
        {8191, 2047, 64, 1},   // remainders on both axes: replays
        {100, 300, 128, 6},    // batched remainders, barely > arrays
        {256, 1024, 128, 32},  // batched stream: stays live
        {200, 200, 64, 256},   // batched stream: replays
        {33, 1000, 64, 4},     // decode-like skinny rows, batched
    };
    std::int64_t replayed_unbatched = 0;
    std::int64_t replayed_batched = 0;
    for (const auto &s : shapes) {
        const model::Op op = weightGemm(s.m, s.n, s.k, s.batch);
        const std::string label =
            cfg.name + " m=" + std::to_string(s.m) +
            " n=" + std::to_string(s.n) + " k=" + std::to_string(s.k) +
            " b=" + std::to_string(s.batch);
        const CycleStats ref = simulateGemmCyclesTick(cfg, op);
        const CycleStats fast = simulateGemmCycles(cfg, op);
        ASSERT_GT(fast.totalTiles, cfg.totalSystolicArrays()) << label;
        expectStatsBitIdentical(fast, ref, label + " [coalesced vs tick]");
        EXPECT_EQ(ref.replayedTiles, 0) << label;
        (s.batch > 1 ? replayed_batched : replayed_unbatched) +=
            fast.replayedTiles;
    }
    // Both replay flavours must exercise the fast-forward + re-key.
    EXPECT_GT(replayed_unbatched, 0);
    EXPECT_GT(replayed_batched, 0);
}

TEST(CycleProperty, QueueBoundaryArrayCountsMatchNaiveTick)
{
    // The coalesced loop's loser tree pads the arrays to a power of two
    // leaves with DONE keys: array counts on and just past a power of
    // two (1, 2, 3, 4, 5, 8, 9) give a lone root, full trees and trees
    // that are mostly padding; 21 and 22 leave a 32-leaf tree mostly
    // full.
    const struct
    {
        long m, n, k, batch;
    } shapes[] = {
        {300, 500, 256, 1},   // remainders on both axes
        {1000, 64, 128, 3},   // batched, n-edge only
        {4096, 1024, 64, 1},  // long unbatched block: replay armed
        {100, 100, 512, 40},  // batched remainder stream
    };
    std::int64_t replayed = 0;
    for (const int arrays : {1, 2, 3, 4, 5, 8, 9, 21, 22}) {
        hw::HardwareConfig cfg = hw::modeledA100();
        cfg.name = "arrays-" + std::to_string(arrays);
        cfg.coreCount = arrays;
        cfg.lanesPerCore = 1;
        cfg.validate();
        ASSERT_EQ(cfg.totalSystolicArrays(), arrays);
        for (const auto &s : shapes) {
            const model::Op op = weightGemm(s.m, s.n, s.k, s.batch);
            runEquivalence(cfg, op,
                           cfg.name + " m=" + std::to_string(s.m) +
                               " n=" + std::to_string(s.n) +
                               " k=" + std::to_string(s.k) +
                               " b=" + std::to_string(s.batch));
            replayed += simulateGemmCycles(cfg, op).replayedTiles;
        }
    }
    // Some shapes fast-forward, which rebuilds the tree mid-run.
    EXPECT_GT(replayed, 0);

    // Fewer jobs than arrays: the arrays without a job start (and
    // stay) at DONE_KEY and never fire.
    hw::HardwareConfig cfg = hw::modeledA100();
    cfg.name = "arrays-22-few-jobs";
    cfg.coreCount = 22;
    cfg.lanesPerCore = 1;
    cfg.validate();
    const model::Op op = weightGemm(120, 120, 256);
    const CycleStats fast = simulateGemmCycles(cfg, op);
    ASSERT_GT(fast.totalTiles, 1);
    ASSERT_LT(fast.totalTiles, cfg.totalSystolicArrays());
    runEquivalence(cfg, op, cfg.name);
}

TEST(CycleSim, PinnedStatsOnRemainderShapes)
{
    // Both engines share process() and the per-job bookkeeping behind
    // it (tile class, grid slot and bank cursor, advanced by fixed
    // steps), so the tick comparison cannot see an error there. These
    // values were recorded from the engine that derived each tile's
    // class from its job index and each request's bank as
    // (array + request) % banks, on remainder-heavy shapes, two of
    // which replay.
    const struct
    {
        int cores, lanes;
        long m, n, k, batch;
        std::int64_t cycles, busy, fillStall, dramQueue, l2Queue, events,
            replayed;
    } pins[] = {
        {9, 2, 209, 353, 512, 5, 66255, 1090720, 71132, 4628, 952218, 900,
         0},
        {72, 2, 8191, 2047, 64, 1, 52319, 6605912, 906555, 181763,
         6502309, 38988, 5472},
        {72, 2, 100, 300, 128, 6, 2143, 139584, 87545, 165671, 7370, 486,
         0},
        {5, 1, 8191, 2047, 64, 1, 874538, 4357632, 8490, 1980, 12665, 5120,
         800},
    };
    for (const auto &p : pins) {
        hw::HardwareConfig cfg = hw::modeledA100();
        cfg.coreCount = p.cores;
        cfg.lanesPerCore = p.lanes;
        if (p.lanes == 2)
            cfg.l1BytesPerCore = 32.0 * units::KIB;
        cfg.validate();
        const CycleStats s =
            simulateGemmCycles(cfg, weightGemm(p.m, p.n, p.k, p.batch));
        const std::string label = std::to_string(p.cores) + "x" +
                                  std::to_string(p.lanes) +
                                  " m=" + std::to_string(p.m);
        EXPECT_EQ(s.cycles, p.cycles) << label;
        EXPECT_EQ(s.computeBusyCycles, p.busy) << label;
        EXPECT_EQ(s.fillStallCycles, p.fillStall) << label;
        EXPECT_EQ(s.dramQueueCycles, p.dramQueue) << label;
        EXPECT_EQ(s.l2QueueCycles, p.l2Queue) << label;
        EXPECT_EQ(s.spadSerialCycles, 0) << label;
        EXPECT_EQ(s.events, p.events) << label;
        EXPECT_EQ(s.replayedTiles, p.replayed) << label;
    }
}

/** The FatalError message of simulateGemmCycles, or "" if none. */
std::string
cycleSimError(const hw::HardwareConfig &cfg, const model::Op &op)
{
    try {
        simulateGemmCycles(cfg, op);
    } catch (const FatalError &e) {
        return e.what();
    }
    return "";
}

TEST(CycleSim, EventKeyOverflowIsFatalAndNamesGemm)
{
    // The event key packs (due, array index) into one 64-bit integer:
    // 20 bits of array index, 44 of due time. Overflowing either field
    // would silently misorder events, so both are refused by name.
    model::Op op = weightGemm(64, 64, 64);
    op.name = "probe-gemm";

    hw::HardwareConfig wide = hw::modeledA100();
    wide.name = "wide";
    wide.coreCount = (1 << 20) + 1;
    wide.lanesPerCore = 1;
    wide.validate();
    const std::string too_many = cycleSimError(wide, op);
    EXPECT_NE(too_many.find("1048577 systolic arrays exceed the event "
                            "key's 20-bit array index in probe-gemm"),
              std::string::npos)
        << too_many;
    hw::HardwareConfig widest = wide;
    widest.coreCount = 1 << 20;
    widest.validate();
    EXPECT_EQ(cycleSimError(widest, op), "");

    // 1 B/s of HBM makes one DRAM request take ~10^14 cycles, past the
    // 2^44-cycle due field.
    hw::HardwareConfig slow = hw::modeledA100();
    slow.name = "slow-hbm";
    slow.coreCount = 1;
    slow.lanesPerCore = 1;
    slow.memBandwidth = 1.0;
    slow.validate();
    const std::string late = cycleSimError(slow, op);
    EXPECT_NE(late.find("exceeds the event key's 17592186044414-cycle "
                        "range in probe-gemm"),
              std::string::npos)
        << late;
}

TEST(CycleSim, ReplayFiresOnSteadyStateAndStaysExact)
{
    // Shapes with a long periodic interior on the full A100: replay
    // must actually fast-forward (the sweep-tractability claim) and
    // stay bit-identical to the naive tick reference.
    const hw::HardwareConfig cfg = hw::modeledA100();

    // Replay needs a long periodic interior: each array must run
    // dozens of same-class tiles so the checkpoint signatures can
    // both match and leave whole periods to skip. Shapes whose grid
    // barely covers the array count (a handful of tiles per array)
    // legitimately never fire — those stay fully live.
    struct ShapeCase
    {
        model::Op op;
        std::int64_t minFrac; // replayedTiles > totalTiles / minFrac
    };
    const ShapeCase shapes[] = {
        {weightGemm(16384, 4096, 512), 2},     // long prefill block
        {weightGemm(512, 4096, 1024, 128), 3}, // batched decode stream
    };
    for (const ShapeCase &sc : shapes) {
        const model::Op &op = sc.op;
        const CycleStats a = simulateGemmCyclesTick(cfg, op);
        const CycleStats b = simulateGemmCycles(cfg, op);
        const std::string label =
            "m=" + std::to_string(op.mm.m) +
            " b=" + std::to_string(op.mm.batchCount);
        expectStatsBitIdentical(b, a, label);
        EXPECT_EQ(a.replayedTiles, 0) << label;
        EXPECT_GT(b.replayedTiles, 0) << label;
        // Most of the GEMM must be fast-forwarded, not re-simulated.
        EXPECT_GT(b.replayedTiles, b.totalTiles / sc.minFrac) << label;
    }
}

TEST(CycleSim, SpadCapacitySerializesFills)
{
    // A 128x128 array with an A100 L1 cannot double-buffer its tile
    // working set: fills must wait for compute to drain. This is the
    // first documented divergence regime versus the closed forms.
    hw::HardwareConfig cfg = hw::modeledA100();
    cfg.name = "big-array";
    cfg.coreCount = 4;
    cfg.lanesPerCore = 2;
    cfg.systolicDimX = 128;
    cfg.systolicDimY = 128;
    cfg.validate();

    const model::Op op = weightGemm(2048, 2048, 1024);
    const CycleStats s = simulateGemmCycles(cfg, op);
    EXPECT_FALSE(s.overlapOk);
    EXPECT_GT(s.spadSerialCycles, 0);

    // With a roomy L1 the same schedule overlaps its fills.
    hw::HardwareConfig roomy = cfg;
    roomy.l1BytesPerCore = 4096.0 * units::KIB;
    roomy.validate();
    const CycleStats r = simulateGemmCycles(roomy, op);
    EXPECT_TRUE(r.overlapOk);
    EXPECT_EQ(r.spadSerialCycles, 0);
}

TEST(CycleSim, DramQueueingAppearsWhenBandwidthStarved)
{
    // Starving HBM bandwidth stretches bank service times until fill
    // requests queue — the second documented divergence regime.
    hw::HardwareConfig cfg = hw::modeledA100();
    cfg.name = "starved-hbm";
    cfg.coreCount = 9;
    cfg.lanesPerCore = 2;
    cfg.memBandwidth = 20e9;
    cfg.validate();

    const model::Op op = weightGemm(512, 512, 512, 4);
    const CycleStats starved = simulateGemmCycles(cfg, op);
    EXPECT_GT(starved.dramQueueCycles, 0);

    hw::HardwareConfig fat = cfg;
    fat.memBandwidth = 2.0e12;
    fat.validate();
    const CycleStats roomy = simulateGemmCycles(fat, op);
    EXPECT_LT(roomy.dramQueueCycles, starved.dramQueueCycles);
    EXPECT_LT(roomy.cycles, starved.cycles);
}

TEST(CycleSim, MatmulModelRoutesCycleMode)
{
    const hw::HardwareConfig cfg = hw::modeledA100();
    PerfParams params;
    params.gemmMode = GemmMode::CYCLE_SIM;
    const MatmulModel model(cfg, params);
    const model::Op op = weightGemm(32, 12288, 4096, 8);

    const MatmulTiming t = model.time(op);
    const CycleStats s = simulateGemmCycles(cfg, op, params);
    EXPECT_EQ(t.totalS, s.totalS);
    EXPECT_EQ(t.tileM, s.tileM);
    EXPECT_EQ(t.tileN, s.tileN);
    // The analytic decomposition still labels the binding resource.
    EXPECT_GT(t.utilization, 0.0);
}

// ---- Cross-mode validation on the figure spaces -----------------------------

/**
 * Relative-error bound for cycle_sim versus the other two modes on
 * the fig06/07 spaces. Wide by design: the cycle model charges real
 * prologue/drain, integer rounding, bank queueing, and spad
 * serialization that the closed forms amortize away, and the
 * documented outlier corners (spad-capacity-bound large arrays,
 * DRAM-bound low-bandwidth points) sit near the edges of this band.
 * docs/PERF.md tabulates typical errors, which are much tighter.
 */
constexpr double REL_LO = 0.30;
constexpr double REL_HI = 3.0;

void
expectModesAgree(const dse::SweepSpace &space, int samples,
                 const std::string &label)
{
    core::Workload w;
    w.model = model::llama3_8b();
    w.setting = model::InferenceSetting{};
    w.system.tensorParallel = 1;

    PerfParams analytic;
    analytic.gemmMode = GemmMode::ANALYTIC;
    PerfParams tile;
    tile.gemmMode = GemmMode::TILE_SIM;
    PerfParams cycle;
    cycle.gemmMode = GemmMode::CYCLE_SIM;

    const dse::DesignEvaluator ea(w.model, w.setting, w.system, analytic);
    const dse::DesignEvaluator et(w.model, w.setting, w.system, tile);
    const dse::DesignEvaluator ec(w.model, w.setting, w.system, cycle);

    const auto cfgs = space.generate();
    ASSERT_GT(cfgs.size(), 0u);
    const std::size_t stride = std::max<std::size_t>(
        1, cfgs.size() / static_cast<std::size_t>(samples));
    for (std::size_t i = 0; i < cfgs.size(); i += stride) {
        const auto &cfg = cfgs[i];
        const auto a = ea.evaluate(cfg);
        const auto t = et.evaluate(cfg);
        const auto c = ec.evaluate(cfg);
        const std::string where = label + " " + cfg.name;
        EXPECT_GT(c.ttftS / a.ttftS, REL_LO) << where;
        EXPECT_LT(c.ttftS / a.ttftS, REL_HI) << where;
        EXPECT_GT(c.tbtS / a.tbtS, REL_LO) << where;
        EXPECT_LT(c.tbtS / a.tbtS, REL_HI) << where;
        EXPECT_GT(c.ttftS / t.ttftS, REL_LO) << where;
        EXPECT_LT(c.ttftS / t.ttftS, REL_HI) << where;
        EXPECT_GT(c.tbtS / t.tbtS, REL_LO) << where;
        EXPECT_LT(c.tbtS / t.tbtS, REL_HI) << where;
    }
}

TEST(CrossMode, BoundedRelativeErrorOnFig06Designs)
{
    expectModesAgree(
        dse::table3Space(2400.0, {600.0 * units::GBPS}), 6, "fig06");
}

TEST(CrossMode, BoundedRelativeErrorOnFig07Designs)
{
    expectModesAgree(
        dse::table3Space(1600.0, {700.0 * units::GBPS}), 4, "fig07");
}

// ---- GemmCache integration --------------------------------------------------

TEST(CycleCache, SharedCacheFanOutMatchesUncached)
{
    // Several threads hammer one GemmCache with the same CYCLE_SIM
    // shapes (the TSan job runs this): every hit must return the
    // exact bits the uncached path computes.
    const hw::HardwareConfig cfg = hw::modeledA100();
    std::vector<model::Op> ops;
    for (long b : {1, 2, 4, 8})
        ops.push_back(weightGemm(32, 4096, 4096, b));
    ops.push_back(weightGemm(1024, 1024, 1024));
    ops.push_back(weightGemm(209, 353, 512, 5));

    PerfParams base;
    base.gemmMode = GemmMode::CYCLE_SIM;
    std::vector<double> expected;
    {
        const MatmulModel model(cfg, base);
        for (const auto &op : ops)
            expected.push_back(model.time(op).totalS);
    }

    GemmCache cache;
    PerfParams cached = base;
    cached.gemmCache = &cache;
    constexpr int THREADS = 4;
    std::vector<std::vector<double>> got(THREADS);
    std::vector<std::thread> workers;
    for (int t = 0; t < THREADS; ++t) {
        workers.emplace_back([&, t] {
            const MatmulModel model(cfg, cached);
            for (const auto &op : ops)
                got[static_cast<std::size_t>(t)].push_back(
                    model.time(op).totalS);
        });
    }
    for (auto &th : workers)
        th.join();
    for (int t = 0; t < THREADS; ++t)
        for (std::size_t i = 0; i < ops.size(); ++i)
            EXPECT_EQ(got[static_cast<std::size_t>(t)][i], expected[i])
                << "thread " << t << " op " << i;
    EXPECT_GT(cache.size(), 0u);
}

TEST(CycleCache, SweepCacheOnOffByteIdentical)
{
    // The evaluator's hoisted sweep cache must not change a single
    // bit of CYCLE_SIM sweep output (same contract as TILE_SIM).
    core::Workload w;
    w.model = model::llama3_8b();
    w.setting = model::InferenceSetting{};
    w.system.tensorParallel = 1;

    auto space = dse::table3Space(2400.0, {600.0 * units::GBPS});
    auto cfgs = space.generate();
    cfgs.resize(std::min<std::size_t>(cfgs.size(), 6));

    PerfParams on;
    on.gemmMode = GemmMode::CYCLE_SIM;
    on.cacheTileSimGemms = true;
    PerfParams off = on;
    off.cacheTileSimGemms = false;

    const auto cached =
        dse::DesignEvaluator(w.model, w.setting, w.system, on)
            .evaluateAll(cfgs);
    const auto plain =
        dse::DesignEvaluator(w.model, w.setting, w.system, off)
            .evaluateAll(cfgs);
    ASSERT_EQ(cached.size(), plain.size());
    for (std::size_t i = 0; i < cached.size(); ++i) {
        EXPECT_EQ(cached[i].ttftS, plain[i].ttftS) << i;
        EXPECT_EQ(cached[i].tbtS, plain[i].tbtS) << i;
    }
}

} // anonymous namespace
} // namespace perf
} // namespace acs
