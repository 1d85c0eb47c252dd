/**
 * @file
 * Unit tests for acs_hw: the hardware template, TPP math (Eq. 1), and
 * the presets.
 */

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "common/units.hh"
#include "hw/config.hh"
#include "hw/presets.hh"

namespace acs {
namespace hw {
namespace {

// ---- derived metrics ----------------------------------------------------

TEST(HardwareConfig, A100TppMatchesPaper)
{
    // 108 cores x 4 lanes x 16x16 FPUs x 2 ops x 1.41 GHz x 16 bit
    // = 4990.5 TPP; the paper quotes the A100 at 4992.
    const HardwareConfig cfg = modeledA100();
    EXPECT_NEAR(cfg.tpp(), 4990.5, 1.0);
    EXPECT_NEAR(cfg.peakTensorTops(), 311.9, 0.1);
}

TEST(HardwareConfig, A100DeviceBandwidthIs600GBps)
{
    EXPECT_DOUBLE_EQ(modeledA100().deviceBandwidth(),
                     600.0 * units::GBPS);
}

TEST(HardwareConfig, A800ReducesOnlyBandwidth)
{
    const HardwareConfig a100 = modeledA100();
    const HardwareConfig a800 = modeledA800();
    EXPECT_DOUBLE_EQ(a100.tpp(), a800.tpp());
    EXPECT_DOUBLE_EQ(a800.deviceBandwidth(), 400.0 * units::GBPS);
}

TEST(HardwareConfig, H20StyleCapsTppKeepsMemory)
{
    const HardwareConfig h20 = modeledH20Style();
    EXPECT_LT(h20.tpp(), 4800.0);
    EXPECT_GT(h20.memBandwidth, modeledA100().memBandwidth);
}

TEST(HardwareConfig, TotalCountsComposeMultiplicatively)
{
    HardwareConfig cfg = modeledA100();
    cfg.coreCount = 3;
    cfg.lanesPerCore = 5;
    cfg.systolicDimX = 7;
    cfg.systolicDimY = 11;
    cfg.diesPerPackage = 2;
    EXPECT_EQ(cfg.totalSystolicArrays(), 3 * 5 * 2);
    EXPECT_EQ(cfg.totalSystolicFpus(), 3L * 5 * 7 * 11 * 2);
}

TEST(HardwareConfig, TppScalesWithBitwidth)
{
    HardwareConfig cfg = modeledA100();
    const double tpp16 = cfg.tpp();
    cfg.opBitwidth = 8;
    EXPECT_NEAR(cfg.tpp(), tpp16 / 2.0, 1e-9);
}

TEST(HardwareConfig, ChipletPackageAggregatesTpp)
{
    // TPP is aggregated over all dies in the package (Sec. 2.1).
    HardwareConfig cfg = modeledA100();
    const double one_die = cfg.tpp();
    cfg.diesPerPackage = 2;
    EXPECT_NEAR(cfg.tpp(), 2.0 * one_die, 1e-6);
}

TEST(HardwareConfig, L1PerLaneDividesByLanes)
{
    HardwareConfig cfg = modeledA100();
    EXPECT_DOUBLE_EQ(cfg.l1BytesPerLane(), 192.0 * units::KIB / 4);
    cfg.lanesPerCore = 1;
    EXPECT_DOUBLE_EQ(cfg.l1BytesPerLane(), 192.0 * units::KIB);
}

TEST(HardwareConfig, VectorPeakCountsFmaAsTwoOps)
{
    HardwareConfig cfg = modeledA100();
    const double expected = 2.0 * 108 * 4 * 32 * cfg.clockHz;
    EXPECT_DOUBLE_EQ(cfg.peakVectorFlops(), expected);
}

// ---- validation ----------------------------------------------------------

struct InvalidField
{
    const char *name;
    void (*mutate)(HardwareConfig &);
};

// Print the field name, not the struct's bytes: the default printer dumps
// pointers, which would put load addresses into the test names.
void
PrintTo(const InvalidField &field, std::ostream *os)
{
    *os << field.name;
}

class ValidateRejects : public ::testing::TestWithParam<InvalidField>
{};

TEST_P(ValidateRejects, EachInvalidFieldIsFatal)
{
    HardwareConfig cfg = modeledA100();
    GetParam().mutate(cfg);
    EXPECT_THROW(cfg.validate(), FatalError) << GetParam().name;
}

INSTANTIATE_TEST_SUITE_P(
    Fields, ValidateRejects,
    ::testing::Values(
        InvalidField{"cores", [](HardwareConfig &c) { c.coreCount = 0; }},
        InvalidField{"lanes",
                     [](HardwareConfig &c) { c.lanesPerCore = 0; }},
        InvalidField{"dimx",
                     [](HardwareConfig &c) { c.systolicDimX = 0; }},
        InvalidField{"dimy",
                     [](HardwareConfig &c) { c.systolicDimY = -1; }},
        InvalidField{"vector",
                     [](HardwareConfig &c) { c.vectorWidth = 0; }},
        InvalidField{"clock", [](HardwareConfig &c) { c.clockHz = 0.0; }},
        InvalidField{"bitwidth",
                     [](HardwareConfig &c) { c.opBitwidth = 0; }},
        InvalidField{"l1",
                     [](HardwareConfig &c) { c.l1BytesPerCore = 0.0; }},
        InvalidField{"l2", [](HardwareConfig &c) { c.l2Bytes = -1.0; }},
        InvalidField{"memcap",
                     [](HardwareConfig &c) { c.memCapacityBytes = 0.0; }},
        InvalidField{"membw",
                     [](HardwareConfig &c) { c.memBandwidth = 0.0; }},
        InvalidField{"phys",
                     [](HardwareConfig &c) { c.devicePhyCount = -1; }},
        InvalidField{"phybw",
                     [](HardwareConfig &c) { c.perPhyBandwidth = -1.0; }},
        InvalidField{"dies",
                     [](HardwareConfig &c) { c.diesPerPackage = 0; }}),
    [](const auto &info) { return std::string(info.param.name); });

TEST(HardwareConfig, DefaultPresetValidates)
{
    EXPECT_NO_THROW(modeledA100().validate());
    EXPECT_NO_THROW(modeledA800().validate());
    EXPECT_NO_THROW(modeledH20Style().validate());
}

TEST(HardwareConfig, ZeroPhyCountIsValid)
{
    // PCIe-only consumer devices have no dedicated interconnect PHYs.
    HardwareConfig cfg = modeledA100();
    cfg.devicePhyCount = 0;
    EXPECT_NO_THROW(cfg.validate());
    EXPECT_DOUBLE_EQ(cfg.deviceBandwidth(), 0.0);
}

// ---- Eq. 1: FPmax and core-count solving ---------------------------------

TEST(Eq1, FpMaxKnownValue)
{
    // 4800 TPP at 1.41 GHz FP16: 4800e12 / (2 * 1.41e9 * 16) = 106382.
    EXPECT_EQ(fpMaxForTpp(4800.0, 1.41e9, 16), 106382);
}

TEST(Eq1, FpMaxValidatesArguments)
{
    EXPECT_THROW(fpMaxForTpp(0.0, 1.41e9), FatalError);
    EXPECT_THROW(fpMaxForTpp(4800.0, 0.0), FatalError);
    EXPECT_THROW(fpMaxForTpp(4800.0, 1.41e9, 0), FatalError);
}

TEST(Eq1, CoresForTppA100Class)
{
    // 16x16 x 4 lanes = 1024 FPUs/core -> 103 cores at 4800 TPP.
    EXPECT_EQ(coresForTpp(4800.0, 16, 16, 4, 1.41e9), 103);
}

TEST(Eq1, CoresForTppValidates)
{
    EXPECT_THROW(coresForTpp(4800.0, 0, 16, 4, 1.41e9), FatalError);
    EXPECT_THROW(coresForTpp(4800.0, 16, 16, 0, 1.41e9), FatalError);
}

/**
 * Property: the solved core count is maximal — the resulting config is
 * at or under the TPP target and one more core exceeds it.
 */
struct Eq1Case
{
    double tpp;
    int dim;
    int lanes;
};

class CoresForTppMaximal : public ::testing::TestWithParam<Eq1Case>
{};

TEST_P(CoresForTppMaximal, AtOrUnderTargetAndMaximal)
{
    const auto [tpp, dim, lanes] = GetParam();
    const double clock = 1.41e9;
    const int cores = coresForTpp(tpp, dim, dim, lanes, clock);
    ASSERT_GE(cores, 1);

    HardwareConfig cfg = modeledA100();
    cfg.systolicDimX = dim;
    cfg.systolicDimY = dim;
    cfg.lanesPerCore = lanes;
    cfg.coreCount = cores;
    cfg.clockHz = clock;
    EXPECT_LE(cfg.tpp(), tpp * (1.0 + 1e-12));

    cfg.coreCount = cores + 1;
    EXPECT_GT(cfg.tpp(), tpp);
}

INSTANTIATE_TEST_SUITE_P(
    Space, CoresForTppMaximal,
    ::testing::Values(Eq1Case{1600.0, 4, 1}, Eq1Case{1600.0, 16, 4},
                      Eq1Case{2400.0, 8, 2}, Eq1Case{2400.0, 16, 8},
                      Eq1Case{4800.0, 16, 1}, Eq1Case{4800.0, 16, 4},
                      Eq1Case{4800.0, 32, 2}, Eq1Case{4800.0, 32, 8},
                      Eq1Case{8000.0, 16, 4}, Eq1Case{7000.0, 32, 1}));

TEST(Eq1, TooSmallBudgetYieldsZeroCores)
{
    // A 32x32 array with 8 lanes is 8192 FPUs/core; a tiny TPP budget
    // cannot fit one core.
    EXPECT_EQ(coresForTpp(100.0, 32, 32, 8, 1.41e9), 0);
}

TEST(ProcessNode, Names)
{
    EXPECT_EQ(toString(ProcessNode::N7), "7nm");
    EXPECT_EQ(toString(ProcessNode::N16), "16nm");
    EXPECT_EQ(toString(ProcessNode::N12), "12nm");
    EXPECT_EQ(toString(ProcessNode::N5), "5nm");
}

} // anonymous namespace
} // namespace hw
} // namespace acs
