/**
 * @file
 * Unit tests for acs_area: the per-component area model and the
 * wafer/yield cost model (validated against the paper's Table 4).
 */

#include <gtest/gtest.h>

#include <functional>
#include <limits>
#include <string>

#include "area/area_model.hh"
#include "area/cost_model.hh"
#include "common/logging.hh"
#include "common/units.hh"
#include "hw/presets.hh"

namespace acs {
namespace area {
namespace {

// ---- area model ----------------------------------------------------------

TEST(AreaModel, BreakdownTotalIsComponentSum)
{
    const AreaModel model;
    const AreaBreakdown b = model.breakdown(hw::modeledA100());
    const double sum = b.systolicMacs + b.systolicCtrl + b.vectorUnits +
                       b.l1Sram + b.l2Sram + b.coreOverhead + b.memPhy +
                       b.devicePhy + b.noc + b.misc;
    EXPECT_DOUBLE_EQ(b.total(), sum);
}

TEST(AreaModel, AllComponentsPositiveForA100)
{
    const AreaBreakdown b = AreaModel().breakdown(hw::modeledA100());
    EXPECT_GT(b.systolicMacs, 0.0);
    EXPECT_GT(b.systolicCtrl, 0.0);
    EXPECT_GT(b.vectorUnits, 0.0);
    EXPECT_GT(b.l1Sram, 0.0);
    EXPECT_GT(b.l2Sram, 0.0);
    EXPECT_GT(b.coreOverhead, 0.0);
    EXPECT_GT(b.memPhy, 0.0);
    EXPECT_GT(b.devicePhy, 0.0);
    EXPECT_GT(b.noc, 0.0);
    EXPECT_GT(b.misc, 0.0);
}

TEST(AreaModel, A100LandsInGA100Class)
{
    // The GA100 die is 826 mm^2 with 128 SMs; the modeled A100 (108
    // enabled SMs) should land in the 600-800 mm^2 class.
    const double a = AreaModel().dieArea(hw::modeledA100());
    EXPECT_GT(a, 600.0);
    EXPECT_LT(a, 800.0);
}

TEST(AreaModel, SramDeltaMatchesTable4Scale)
{
    // Table 4's two 2400-TPP designs differ by ~99 MiB of SRAM and
    // ~230 mm^2 of die area (753 vs 523).
    const AreaModel model;
    hw::HardwareConfig small = hw::modeledA100();
    small.coreCount = 103;
    small.lanesPerCore = 2;
    small.l1BytesPerCore = 192.0 * units::KIB;
    small.l2Bytes = 32.0 * units::MIB;

    hw::HardwareConfig big = small;
    big.l1BytesPerCore = 1024.0 * units::KIB;
    big.l2Bytes = 48.0 * units::MIB;

    const double delta = model.dieArea(big) - model.dieArea(small);
    EXPECT_NEAR(delta, 230.0, 40.0);
}

TEST(AreaModel, AreaGrowsWithEveryResource)
{
    const AreaModel model;
    const hw::HardwareConfig base = hw::modeledA100();
    const double base_area = model.dieArea(base);

    auto grows = [&](auto mutate) {
        hw::HardwareConfig cfg = base;
        mutate(cfg);
        return model.dieArea(cfg) > base_area;
    };
    EXPECT_TRUE(grows([](auto &c) { c.coreCount += 16; }));
    EXPECT_TRUE(grows([](auto &c) { c.lanesPerCore *= 2; }));
    EXPECT_TRUE(grows([](auto &c) { c.l1BytesPerCore *= 2; }));
    EXPECT_TRUE(grows([](auto &c) { c.l2Bytes *= 2; }));
    EXPECT_TRUE(grows([](auto &c) { c.memBandwidth *= 2; }));
    EXPECT_TRUE(grows([](auto &c) { c.devicePhyCount += 6; }));
}

TEST(AreaModel, ProcessScaleOrdering)
{
    EXPECT_GT(AreaModel::processScale(hw::ProcessNode::N16),
              AreaModel::processScale(hw::ProcessNode::N12));
    EXPECT_GT(AreaModel::processScale(hw::ProcessNode::N12),
              AreaModel::processScale(hw::ProcessNode::N7));
    EXPECT_GT(AreaModel::processScale(hw::ProcessNode::N7),
              AreaModel::processScale(hw::ProcessNode::N5));
    EXPECT_DOUBLE_EQ(AreaModel::processScale(hw::ProcessNode::N7), 1.0);
}

TEST(AreaModel, OlderProcessGivesLargerDie)
{
    const AreaModel model;
    hw::HardwareConfig cfg = hw::modeledA100();
    const double n7 = model.dieArea(cfg);
    cfg.process = hw::ProcessNode::N16;
    EXPECT_GT(model.dieArea(cfg), n7);
}

TEST(AreaModel, ChipletPackageMultipliesArea)
{
    const AreaModel model;
    hw::HardwareConfig cfg = hw::modeledA100();
    const double one = model.dieArea(cfg);
    cfg.diesPerPackage = 3;
    EXPECT_NEAR(model.dieArea(cfg), 3.0 * one, 1e-9);
}

TEST(AreaModel, PerfDensityIsTppOverArea)
{
    const AreaModel model;
    const hw::HardwareConfig cfg = hw::modeledA100();
    EXPECT_NEAR(model.perfDensity(cfg),
                cfg.tpp() / model.dieArea(cfg), 1e-12);
}

TEST(AreaModel, PlanarProcessHasZeroPerfDensity)
{
    // PD only counts non-planar-transistor dies (Sec. 2.1).
    const AreaModel model;
    hw::HardwareConfig cfg = hw::modeledA100();
    cfg.nonPlanarTransistor = false;
    EXPECT_DOUBLE_EQ(model.perfDensity(cfg), 0.0);
}

TEST(AreaModel, InvalidParamsAreFatal)
{
    AreaParams params;
    params.macAreaMm2 = 0.0;
    EXPECT_THROW(AreaModel{params}, FatalError);
    params = AreaParams{};
    params.sramMm2PerMib = -1.0;
    EXPECT_THROW(AreaModel{params}, FatalError);
    params = AreaParams{};
    params.miscMm2 = -1.0;
    EXPECT_THROW(AreaModel{params}, FatalError);
}

/** Expect @p fn to throw a FatalError whose message names @p name. */
void
expectFatalNaming(const std::function<void()> &fn, const std::string &name)
{
    try {
        fn();
        ADD_FAILURE() << "no error; expected one naming " << name;
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find(name), std::string::npos)
            << e.what();
    }
}

constexpr double NaN = std::numeric_limits<double>::quiet_NaN();
constexpr double INF = std::numeric_limits<double>::infinity();

TEST(AreaModel, NonFiniteParamsAreFatalAndNamed)
{
    // NaN passes a `x <= 0.0` guard; every constant must be refused
    // by name when it is NaN or infinite.
    const struct
    {
        double AreaParams::*member;
        const char *name;
    } fields[] = {
        {&AreaParams::macAreaMm2, "macAreaMm2"},
        {&AreaParams::arrayCtrlMm2, "arrayCtrlMm2"},
        {&AreaParams::vectorAluMm2, "vectorAluMm2"},
        {&AreaParams::sramMm2PerMib, "sramMm2PerMib"},
        {&AreaParams::coreOverheadMm2, "coreOverheadMm2"},
        {&AreaParams::memPhyMm2PerTBps, "memPhyMm2PerTBps"},
        {&AreaParams::devicePhyMm2, "devicePhyMm2"},
        {&AreaParams::nocMm2PerCore, "nocMm2PerCore"},
        {&AreaParams::miscMm2, "miscMm2"},
    };
    for (const auto &f : fields) {
        for (const double bad : {NaN, INF, -1.0}) {
            AreaParams params;
            params.*f.member = bad;
            expectFatalNaming([&] { AreaModel{params}; }, f.name);
        }
    }
}

TEST(AreaModel, NanDieAreaIsFatal)
{
    const AreaModel model;
    const hw::HardwareConfig cfg = hw::modeledA100();
    expectFatalNaming([&] { model.perfDensity(cfg, NaN); },
                      "perfDensity");
    expectFatalNaming([&] { model.perfDensity(cfg, 0.0); },
                      "perfDensity");
}

TEST(AreaModel, WiderBitwidthGrowsMacArea)
{
    const AreaModel model;
    hw::HardwareConfig cfg = hw::modeledA100();
    const double fp16 = model.breakdown(cfg).systolicMacs;
    cfg.opBitwidth = 32;
    EXPECT_NEAR(model.breakdown(cfg).systolicMacs, 4.0 * fp16, 1e-9);
}

// ---- cost model ------------------------------------------------------------

TEST(CostModel, DiesPerWaferMatchesTable4)
{
    const CostModel cost;
    EXPECT_EQ(cost.diesPerWafer(753.0), 69);
    EXPECT_EQ(cost.diesPerWafer(523.0), 106);
}

TEST(CostModel, DieCostMatchesTable4)
{
    // Paper: $134 at 753 mm^2, $88 at 523 mm^2 (7 nm).
    const CostModel cost;
    EXPECT_NEAR(cost.dieCostUsd(753.0, hw::ProcessNode::N7), 134.0, 3.0);
    EXPECT_NEAR(cost.dieCostUsd(523.0, hw::ProcessNode::N7), 88.0, 2.0);
}

TEST(CostModel, MillionGoodDiesMatchesTable4Scale)
{
    // Paper: $350M vs $177M — a ~1.98x ratio.
    const CostModel cost;
    const double big =
        cost.costForGoodDiesUsd(753.0, hw::ProcessNode::N7, 1e6);
    const double small =
        cost.costForGoodDiesUsd(523.0, hw::ProcessNode::N7, 1e6);
    EXPECT_NEAR(big / 1e6, 350.0, 40.0);
    EXPECT_NEAR(small / 1e6, 177.0, 20.0);
    EXPECT_NEAR(big / small, 1.98, 0.25);
}

TEST(CostModel, MurphyYieldKnownValues)
{
    const CostModel cost;
    // A*D = 753 * 0.0015 = 1.1295 -> Murphy ~0.359.
    EXPECT_NEAR(cost.murphyYield(753.0), 0.359, 0.01);
    EXPECT_NEAR(cost.murphyYield(523.0), 0.481, 0.01);
}

TEST(CostModel, ZeroDefectDensityIsPerfectYield)
{
    CostParams params;
    params.defectDensityPerMm2 = 0.0;
    const CostModel cost(params);
    EXPECT_DOUBLE_EQ(cost.murphyYield(800.0), 1.0);
}

TEST(CostModel, WaferPricesOrdered)
{
    EXPECT_LT(waferPriceUsd(hw::ProcessNode::N16),
              waferPriceUsd(hw::ProcessNode::N7));
    EXPECT_LT(waferPriceUsd(hw::ProcessNode::N7),
              waferPriceUsd(hw::ProcessNode::N5));
}

TEST(CostModel, HugeDieIsFatal)
{
    const CostModel cost;
    EXPECT_THROW(cost.dieCostUsd(70000.0, hw::ProcessNode::N7),
                 FatalError);
}

TEST(CostModel, ValidatesInput)
{
    const CostModel cost;
    EXPECT_THROW(cost.diesPerWafer(0.0), FatalError);
    EXPECT_THROW(cost.murphyYield(-1.0), FatalError);
    EXPECT_THROW(cost.costForGoodDiesUsd(500.0, hw::ProcessNode::N7,
                                         -1.0),
                 FatalError);
    CostParams bad;
    bad.waferDiameterMm = 0.0;
    EXPECT_THROW(CostModel{bad}, FatalError);
}

TEST(CostModel, NonFiniteInputsAreFatalAndNamed)
{
    const CostModel cost;
    // A NaN area reached static_cast<int>(floor(NaN)) in diesPerWafer.
    expectFatalNaming([&] { cost.diesPerWafer(NaN); }, "diesPerWafer");
    expectFatalNaming([&] { cost.murphyYield(NaN); }, "murphyYield");
    expectFatalNaming(
        [&] { cost.costForGoodDiesUsd(500.0, hw::ProcessNode::N7, NaN); },
        "costForGoodDiesUsd");
    for (const double bad : {NaN, INF, 0.0}) {
        CostParams params;
        params.waferDiameterMm = bad;
        expectFatalNaming([&] { CostModel{params}; }, "waferDiameterMm");
    }
    for (const double bad : {NaN, INF, -1.0}) {
        CostParams params;
        params.defectDensityPerMm2 = bad;
        expectFatalNaming([&] { CostModel{params}; },
                          "defectDensityPerMm2");
    }
}

/** Property sweep: yield, dies/wafer, and cost are monotone in area. */
class CostMonotone : public ::testing::TestWithParam<double>
{};

TEST_P(CostMonotone, MonotoneInDieArea)
{
    const CostModel cost;
    const double area = GetParam();
    const double bigger = area * 1.25;
    EXPECT_GE(cost.murphyYield(area), cost.murphyYield(bigger));
    EXPECT_GE(cost.diesPerWafer(area), cost.diesPerWafer(bigger));
    EXPECT_LE(cost.dieCostUsd(area, hw::ProcessNode::N7),
              cost.dieCostUsd(bigger, hw::ProcessNode::N7));
    EXPECT_LE(cost.goodDieCostUsd(area, hw::ProcessNode::N7),
              cost.goodDieCostUsd(bigger, hw::ProcessNode::N7));
}

INSTANTIATE_TEST_SUITE_P(Areas, CostMonotone,
                         ::testing::Values(50.0, 100.0, 200.0, 300.0,
                                           450.0, 600.0, 753.0, 860.0,
                                           1200.0));

TEST(CostModel, YieldWithinUnitInterval)
{
    const CostModel cost;
    for (double a : {1.0, 10.0, 100.0, 500.0, 860.0, 2000.0}) {
        const double y = cost.murphyYield(a);
        EXPECT_GT(y, 0.0);
        EXPECT_LE(y, 1.0);
    }
}

TEST(Reticle, LimitIs860)
{
    EXPECT_DOUBLE_EQ(RETICLE_LIMIT_MM2, 860.0);
}

} // anonymous namespace
} // namespace area
} // namespace acs
