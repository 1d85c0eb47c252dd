/**
 * @file
 * Unit tests for the key=value format and HardwareConfig
 * serialization.
 */

#include <gtest/gtest.h>

#include <string>

#include "common/keyval.hh"
#include "common/logging.hh"
#include "common/units.hh"
#include "hw/presets.hh"
#include "hw/serialize.hh"

namespace acs {
namespace {

// ---- KeyVal --------------------------------------------------------------

TEST(KeyVal, ParseBasics)
{
    const KeyVal kv = KeyVal::parse(
        "a = 1\n"
        "  b=hello world \n"
        "\n"
        "# comment line\n"
        "c = 2.5 # trailing comment\n");
    EXPECT_EQ(kv.size(), 3u);
    EXPECT_EQ(kv.getInt("a"), 1);
    EXPECT_EQ(kv.getString("b"), "hello world");
    EXPECT_DOUBLE_EQ(kv.getDouble("c"), 2.5);
}

TEST(KeyVal, ParseRejectsMalformedLines)
{
    EXPECT_THROW(KeyVal::parse("no equals sign"), FatalError);
    EXPECT_THROW(KeyVal::parse("= value without key"), FatalError);
}

TEST(KeyVal, MissingKeyIsFatal)
{
    const KeyVal kv = KeyVal::parse("a = 1\n");
    EXPECT_THROW(kv.getString("missing"), FatalError);
    EXPECT_THROW(kv.getDouble("missing"), FatalError);
}

TEST(KeyVal, TypeErrorsAreFatal)
{
    const KeyVal kv = KeyVal::parse("s = abc\nf = 1.5\n");
    EXPECT_THROW(kv.getDouble("s"), FatalError);
    EXPECT_THROW(kv.getInt("f"), FatalError);
    EXPECT_THROW(kv.getBool("s"), FatalError);
}

TEST(KeyVal, BoolForms)
{
    const KeyVal kv = KeyVal::parse("a = true\nb = 0\nc = 1\nd=false\n");
    EXPECT_TRUE(kv.getBool("a"));
    EXPECT_FALSE(kv.getBool("b"));
    EXPECT_TRUE(kv.getBool("c"));
    EXPECT_FALSE(kv.getBool("d"));
}

TEST(KeyVal, DefaultsForAbsentKeys)
{
    const KeyVal kv = KeyVal::parse("a = 1\n");
    EXPECT_DOUBLE_EQ(kv.getDouble("nope", 7.5), 7.5);
    EXPECT_EQ(kv.getInt("nope", 9), 9);
    EXPECT_DOUBLE_EQ(kv.getDouble("a", 7.5), 1.0);
}

TEST(KeyVal, SerializeParseRoundTrip)
{
    KeyVal kv;
    kv.set("name", "my device");
    kv.setDouble("bw", 2.0e12);
    kv.setInt("cores", 108);
    kv.setBool("finfet", true);
    const KeyVal back = KeyVal::parse(kv.serialize());
    EXPECT_EQ(back.getString("name"), "my device");
    EXPECT_DOUBLE_EQ(back.getDouble("bw"), 2.0e12);
    EXPECT_EQ(back.getInt("cores"), 108);
    EXPECT_TRUE(back.getBool("finfet"));
}

TEST(KeyVal, RejectsMultilineValuesAndEmptyKeys)
{
    KeyVal kv;
    EXPECT_THROW(kv.set("", "x"), FatalError);
    EXPECT_THROW(kv.set("k", "line1\nline2"), FatalError);
}

TEST(KeyVal, LastValueWins)
{
    const KeyVal kv = KeyVal::parse("a = 1\na = 2\n");
    EXPECT_EQ(kv.getInt("a"), 2);
}

// ---- HardwareConfig serialization -------------------------------------------

TEST(HwSerialize, RoundTripPreservesEveryField)
{
    hw::HardwareConfig cfg = hw::modeledA100();
    cfg.name = "round trip";
    cfg.systolicDimX = 32;
    cfg.opBitwidth = 8;
    cfg.process = hw::ProcessNode::N5;
    cfg.nonPlanarTransistor = false;
    cfg.diesPerPackage = 2;

    const hw::HardwareConfig back =
        hw::configFromKeyVal(hw::toKeyVal(cfg));
    EXPECT_EQ(back.name, cfg.name);
    EXPECT_EQ(back.coreCount, cfg.coreCount);
    EXPECT_EQ(back.lanesPerCore, cfg.lanesPerCore);
    EXPECT_EQ(back.systolicDimX, cfg.systolicDimX);
    EXPECT_EQ(back.systolicDimY, cfg.systolicDimY);
    EXPECT_EQ(back.vectorWidth, cfg.vectorWidth);
    EXPECT_DOUBLE_EQ(back.clockHz, cfg.clockHz);
    EXPECT_EQ(back.opBitwidth, cfg.opBitwidth);
    EXPECT_DOUBLE_EQ(back.l1BytesPerCore, cfg.l1BytesPerCore);
    EXPECT_DOUBLE_EQ(back.l2Bytes, cfg.l2Bytes);
    EXPECT_DOUBLE_EQ(back.memCapacityBytes, cfg.memCapacityBytes);
    EXPECT_DOUBLE_EQ(back.memBandwidth, cfg.memBandwidth);
    EXPECT_EQ(back.devicePhyCount, cfg.devicePhyCount);
    EXPECT_DOUBLE_EQ(back.perPhyBandwidth, cfg.perPhyBandwidth);
    EXPECT_EQ(back.process, cfg.process);
    EXPECT_EQ(back.nonPlanarTransistor, cfg.nonPlanarTransistor);
    EXPECT_EQ(back.diesPerPackage, cfg.diesPerPackage);
    EXPECT_DOUBLE_EQ(back.tpp(), cfg.tpp());
}

TEST(HwSerialize, PartialFileUsesTemplateDefaults)
{
    const KeyVal kv = KeyVal::parse(
        "name = partial\n"
        "mem_bandwidth = 3.2e12\n"
        "core_count = 96\n");
    const hw::HardwareConfig cfg = hw::configFromKeyVal(kv);
    EXPECT_EQ(cfg.name, "partial");
    EXPECT_EQ(cfg.coreCount, 96);
    EXPECT_DOUBLE_EQ(cfg.memBandwidth, 3.2e12);
    EXPECT_EQ(cfg.lanesPerCore, 4);        // template default
    EXPECT_EQ(cfg.systolicDimX, 16);       // template default
}

TEST(HwSerialize, InvalidLoadedConfigIsFatal)
{
    EXPECT_THROW(
        hw::configFromKeyVal(KeyVal::parse("core_count = 0\n")),
        FatalError);
}

TEST(HwSerialize, NonFiniteLoadedValuesAreFatalAndNamed)
{
    // strtod accepts "nan" and "inf", and NaN slips through `x <= 0`
    // guards: validation must reject both and name the field.
    const struct
    {
        const char *text;
        const char *field;
    } cases[] = {
        {"mem_bandwidth = nan\n", "memBandwidth"},
        {"clock_hz = inf\n", "clockHz"},
        {"l2_bytes = nan\n", "l2Bytes"},
        {"per_phy_bandwidth = nan\n", "perPhyBandwidth"},
    };
    for (const auto &c : cases) {
        try {
            hw::configFromKeyVal(KeyVal::parse(c.text));
            ADD_FAILURE() << "accepted " << c.text;
        } catch (const FatalError &e) {
            EXPECT_NE(std::string(e.what()).find(c.field),
                      std::string::npos)
                << e.what();
        }
    }
}

TEST(HwSerialize, OutOfRangeAndNonFiniteNumbersAreFatalAndNamed)
{
    // Each value once slipped through: 2^32 + 108 wrapped to a 108-core
    // config, strtod read 1e999 as inf, and nan is not a number. The
    // error names the key as the file spells it.
    const struct
    {
        const char *text;
        const char *key;
        const char *reason;
    } cases[] = {
        {"core_count = 4294967404\n", "core_count", "out of range"},
        {"dies_per_package = -4294967295\n", "dies_per_package",
         "out of range"},
        {"mem_bandwidth = 1e999\n", "mem_bandwidth", "out of range"},
        {"clock_hz = nan\n", "clock_hz", "not finite"},
    };
    for (const auto &c : cases) {
        try {
            const hw::HardwareConfig cfg =
                hw::configFromKeyVal(KeyVal::parse(c.text));
            ADD_FAILURE() << "accepted " << c.text << " as "
                          << cfg.coreCount << " cores";
        } catch (const FatalError &e) {
            const std::string msg = e.what();
            EXPECT_NE(msg.find(c.key), std::string::npos) << msg;
            EXPECT_NE(msg.find(c.reason), std::string::npos) << msg;
        }
    }
}

TEST(KeyVal, NumbersMustFitTheirType)
{
    const KeyVal kv = KeyVal::parse(
        "big = 99999999999999999999\nhuge = 1e999\nnan = nan\n"
        "tail = 2.5x\n");
    EXPECT_THROW(kv.getInt("big"), FatalError);
    EXPECT_THROW(kv.getDouble("huge"), FatalError);
    EXPECT_THROW(kv.getDouble("nan"), FatalError);
    EXPECT_THROW(kv.getDouble("tail"), FatalError);
}

TEST(HwSerialize, ProcessNames)
{
    EXPECT_EQ(hw::processFromString("7nm"), hw::ProcessNode::N7);
    EXPECT_EQ(hw::processFromString("16nm"), hw::ProcessNode::N16);
    EXPECT_EQ(hw::processFromString("5nm"), hw::ProcessNode::N5);
    EXPECT_THROW(hw::processFromString("3nm"), FatalError);
}

} // anonymous namespace
} // namespace acs
