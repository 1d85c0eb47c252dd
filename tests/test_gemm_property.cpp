/**
 * @file
 * Property suite for the closed-form wave-aggregation GEMM engine.
 *
 * The tile-sim engine derives each wave from O(1) shape class counts;
 * simulateGemmWalk is the original per-tile walk, kept as the
 * reference. The two must be bit-identical — not merely close — on every field of the
 * trace, because TILE_SIM sweep results are compared across runs and
 * modes byte-for-byte. This suite drives both over randomized
 * skinny / square / remainder-heavy shapes and a spread of device
 * geometries, plus a direct check that the closed-form tile-N shrink
 * in chooseTiles reproduces the historical halving cascade.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <random>
#include <string>
#include <vector>

#include "common/units.hh"
#include "hw/presets.hh"
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

/** Device geometries that exercise different tile sizes and wave
 * shapes: the calibrated A100, its export variant, a small-L1 design
 * (tiny tiles, many remainder classes) and a few-arrays design (many
 * waves, frequent partial final wave). */
std::vector<hw::HardwareConfig>
propertyConfigs()
{
    std::vector<hw::HardwareConfig> cfgs;
    cfgs.push_back(hw::modeledA100());
    cfgs.push_back(hw::modeledA800());

    hw::HardwareConfig small_l1 = hw::modeledA100();
    small_l1.name = "small-l1";
    small_l1.l1BytesPerCore = 32.0 * units::KIB;
    small_l1.validate();
    cfgs.push_back(small_l1);

    hw::HardwareConfig few_arrays = hw::modeledA100();
    few_arrays.name = "few-arrays";
    few_arrays.coreCount = 9;
    few_arrays.lanesPerCore = 2;
    few_arrays.validate();
    cfgs.push_back(few_arrays);
    return cfgs;
}

void
expectTracesBitIdentical(const GemmTrace &fast, const GemmTrace &ref,
                         const std::string &label)
{
    EXPECT_EQ(fast.tileM, ref.tileM) << label;
    EXPECT_EQ(fast.tileN, ref.tileN) << label;
    EXPECT_EQ(fast.totalTiles(), ref.totalTiles()) << label;
    EXPECT_EQ(fast.totalS, ref.totalS) << label;
    ASSERT_EQ(fast.waves.size(), ref.waves.size()) << label;
    for (std::size_t w = 0; w < ref.waves.size(); ++w) {
        const WaveRecord &a = fast.waves[w];
        const WaveRecord &b = ref.waves[w];
        EXPECT_EQ(a.waveIndex, b.waveIndex) << label << " wave " << w;
        EXPECT_EQ(a.tilesInWave, b.tilesInWave) << label << " wave " << w;
        // Bit-exact doubles: both engines must execute the same
        // arithmetic in the same order.
        EXPECT_EQ(a.computeS, b.computeS) << label << " wave " << w;
        EXPECT_EQ(a.globalBufS, b.globalBufS) << label << " wave " << w;
        EXPECT_EQ(a.hbmS, b.hbmS) << label << " wave " << w;
        EXPECT_EQ(a.startS, b.startS) << label << " wave " << w;
        EXPECT_EQ(a.endS, b.endS) << label << " wave " << w;
    }
}

void
runEquivalence(const hw::HardwareConfig &cfg, const model::Op &op,
               const std::string &label)
{
    const GemmTrace fast = simulateGemm(cfg, op);
    const GemmTrace ref = simulateGemmWalk(cfg, op);
    expectTracesBitIdentical(fast, ref, label);

    // The summary path must see the exact doubles of the trace path.
    const GemmSummary s = simulateGemmSummary(cfg, op);
    EXPECT_EQ(s.tileM, fast.tileM) << label;
    EXPECT_EQ(s.tileN, fast.tileN) << label;
    EXPECT_EQ(s.waves, static_cast<long>(fast.waves.size())) << label;
    EXPECT_EQ(s.totalTiles, fast.totalTiles()) << label;
    EXPECT_EQ(s.totalS, fast.totalS) << label;
}

TEST(GemmProperty, RandomShapesMatchLegacyWalkBitwise)
{
    // Deterministic seed: failures must reproduce.
    std::mt19937 rng(20250806);
    const auto cfgs = propertyConfigs();

    std::uniform_int_distribution<long> skinny_m(1, 64);
    std::uniform_int_distribution<long> wide_n(1024, 16384);
    std::uniform_int_distribution<long> square(64, 3000);
    std::uniform_int_distribution<long> heavy(65, 2048);
    std::uniform_int_distribution<long> kdim(64, 8192);
    std::uniform_int_distribution<long> batch(1, 24);
    std::uniform_int_distribution<int> family(0, 2);

    for (int trial = 0; trial < 60; ++trial) {
        long m = 0;
        long n = 0;
        switch (family(rng)) {
        case 0: // skinny decode-like: tall arrays of column tiles
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

TEST(GemmProperty, EdgeShapesMatchLegacyWalkBitwise)
{
    const auto cfgs = propertyConfigs();
    const struct
    {
        long m, n, k, batch;
    } shapes[] = {
        {1, 1, 64, 1},          // single tiny tile
        {1, 65536, 4096, 1},    // one row of column tiles
        {65536, 1, 4096, 1},    // one column of row tiles
        {31, 12288, 12288, 1},  // decode GEMV, remainder m
        {209, 353, 512, 20},    // remainders on both axes, batched
        {4096, 4096, 4096, 1},  // exact tile multiples
        {100, 100, 512, 7},     // both-axis remainders, odd batch
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

// ---- chooseTiles closed form ------------------------------------------------

/** The historical tile-N shrink: halve (clamping at dim_y) until the
 * tile count covers every systolic array. */
long
referenceHalvingCascade(long m, long n, long batch, long tile_m,
                        long tile_n, long dim_y, long arrays)
{
    const auto tiles = [&]() {
        return batch * ((m + tile_m - 1) / tile_m) *
               ((n + tile_n - 1) / tile_n);
    };
    while (tiles() < arrays && tile_n > dim_y)
        tile_n = std::max(tile_n / 2, dim_y);
    return tile_n;
}

/** The closed form now in chooseTiles (matmul_model.cc), restated. */
long
closedFormShrink(long m, long n, long batch, long tile_m, long tile_n,
                 long dim_y, long arrays)
{
    if (tile_n <= dim_y)
        return tile_n;
    const long row_tiles = batch * ((m + tile_m - 1) / tile_m);
    if (row_tiles * ((n + tile_n - 1) / tile_n) >= arrays)
        return tile_n;
    const long need_cols = (arrays + row_tiles - 1) / row_tiles;
    const long t_max = (n + need_cols - 2) / (need_cols - 1) - 1;
    const long target = std::max(t_max, dim_y);
    if (tile_n > target) {
        const int shift = std::bit_width(
            static_cast<unsigned long long>(tile_n / (target + 1)));
        tile_n >>= shift;
    }
    return std::max(tile_n, dim_y);
}

TEST(GemmProperty, ClosedFormTileShrinkMatchesHalvingCascade)
{
    std::mt19937 rng(7);
    std::uniform_int_distribution<long> mdist(1, 70000);
    std::uniform_int_distribution<long> ndist(1, 70000);
    std::uniform_int_distribution<long> bdist(1, 32);
    std::uniform_int_distribution<long> tdist(1, 1024);
    std::uniform_int_distribution<int> ydist(2, 7); // dim_y = 4..128
    std::uniform_int_distribution<long> adist(1, 2048);

    for (int trial = 0; trial < 5000; ++trial) {
        const long m = mdist(rng);
        const long n = ndist(rng);
        const long b = bdist(rng);
        const long dim_y = 1L << ydist(rng);
        // chooseTiles only ever shrinks a tile_n that starts >= dim_y
        // (the L1 budget is floored at the array dims).
        const long tile_m = std::max(tdist(rng), 1L);
        const long tile_n = std::max(tdist(rng), dim_y);
        const long arrays = adist(rng);
        EXPECT_EQ(closedFormShrink(m, n, b, tile_m, tile_n, dim_y,
                                   arrays),
                  referenceHalvingCascade(m, n, b, tile_m, tile_n,
                                          dim_y, arrays))
            << "m=" << m << " n=" << n << " b=" << b
            << " tileM=" << tile_m << " tileN=" << tile_n
            << " dimY=" << dim_y << " arrays=" << arrays;
    }
}

TEST(GemmProperty, SimulatorTileChoiceAgreesWithAnalyticModel)
{
    // End-to-end: the closed-form shrink inside chooseTiles feeds both
    // the analytic model and the simulator identically.
    std::mt19937 rng(11);
    std::uniform_int_distribution<long> mdist(1, 8192);
    std::uniform_int_distribution<long> ndist(1, 16384);
    for (const auto &cfg : propertyConfigs()) {
        const MatmulModel model(cfg, PerfParams{});
        for (int trial = 0; trial < 10; ++trial) {
            const auto op =
                weightGemm(mdist(rng), ndist(rng), 4096);
            const MatmulTiming t = model.time(op);
            const GemmSummary s = simulateGemmSummary(cfg, op);
            EXPECT_EQ(s.tileM, t.tileM) << cfg.name;
            EXPECT_EQ(s.tileN, t.tileN) << cfg.name;
        }
    }
}

} // anonymous namespace
} // namespace perf
} // namespace acs
