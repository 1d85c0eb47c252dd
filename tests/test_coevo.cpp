/**
 * @file
 * Tests for the policy co-evolution subsystem: the parameterized rule
 * family (bit-exact against the canonical classifiers over the whole
 * device catalogue), input validation, the shared escape-space
 * enumerations, and the arms-race engine's structural contracts —
 * monotone trajectories, thread-count-independent fingerprints,
 * re-run reproducibility, pinned default-race fingerprints, and
 * AdaptiveSearch (not exhaustive sweep) as the designer's inner loop,
 * one search per escape space per race.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "coevo/arms_race.hh"
#include "coevo/escape.hh"
#include "core/acs.hh"

using namespace acs;

namespace {

/** The segments the Oct-2023 rule distinguishes. */
const policy::MarketSegment kSegments[] = {
    policy::MarketSegment::DATA_CENTER,
    policy::MarketSegment::CONSUMER,
    policy::MarketSegment::WORKSTATION,
};

} // namespace

// ---- ParamRule bit-exactness over the device database ----------------------

TEST(ParamRule, Oct2022BitExactOnEntireDatabase)
{
    const devices::Database db;
    const policy::ParamRule rule = policy::ParamRule::oct2022();
    rule.validate();
    ASSERT_GT(db.size(), 0u);
    for (const auto &rec : db.all()) {
        const policy::DeviceSpec spec = rec.toSpec();
        EXPECT_EQ(rule.classify(spec),
                  policy::Oct2022Rule::classify(spec))
            << rec.name;
    }
}

TEST(ParamRule, Oct2023BitExactOnEntireDatabase)
{
    const devices::Database db;
    const policy::ParamRule rule = policy::ParamRule::oct2023();
    rule.validate();
    for (const auto &rec : db.all()) {
        const policy::DeviceSpec spec = rec.toSpec();
        EXPECT_EQ(rule.classify(spec),
                  policy::Oct2023Rule::classify(spec))
            << rec.name;
        // The generalization must agree under *every* claimed segment,
        // not just the marketed one — the arms-race designer exploits
        // exactly this reclassification channel.
        for (const policy::MarketSegment seg : kSegments) {
            EXPECT_EQ(rule.classifyAs(spec, seg),
                      policy::Oct2023Rule::classifyAs(spec, seg))
                << rec.name << " as " << toString(seg);
        }
    }
}

TEST(ParamRule, CombinedIsUnionOfBothGenerations)
{
    const devices::Database db;
    const policy::ParamRule combined = policy::ParamRule::combined();
    for (const auto &rec : db.all()) {
        const policy::DeviceSpec spec = rec.toSpec();
        const bool burdened =
            policy::isRegulated(combined.classify(spec));
        const bool either =
            policy::isRegulated(policy::Oct2022Rule::classify(spec)) ||
            policy::isRegulated(policy::Oct2023Rule::classify(spec));
        EXPECT_EQ(burdened, either) << rec.name;
    }
}

// ---- input validation ------------------------------------------------------

TEST(ParamRule, ValidationNamesTheOffendingValue)
{
    policy::ParamRule nan_rule = policy::ParamRule::oct2023();
    nan_rule.tppMid = NAN;
    try {
        nan_rule.validate();
        FAIL() << "NaN threshold accepted";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("tppMid is NaN"),
                  std::string::npos)
            << e.what();
    }

    policy::ParamRule neg_rule = policy::ParamRule::oct2023();
    neg_rule.pdLow = -1.6;
    try {
        neg_rule.validate();
        FAIL() << "negative threshold accepted";
    } catch (const FatalError &e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("pdLow"), std::string::npos) << msg;
        EXPECT_NE(msg.find("-1.6"), std::string::npos) << msg;
    }

    policy::ParamRule inverted = policy::ParamRule::oct2023();
    inverted.tppLow = inverted.tppMid + 100.0;
    try {
        inverted.validate();
        FAIL() << "inverted thresholds accepted";
    } catch (const FatalError &e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("inverted thresholds"), std::string::npos)
            << msg;
        EXPECT_NE(msg.find("tppLow"), std::string::npos) << msg;
        EXPECT_NE(msg.find("tppMid"), std::string::npos) << msg;
    }
}

TEST(FirmwareLicenseRule, ValidationNamesTheOffendingValue)
{
    policy::FirmwareLicenseRule nan_rule;
    nan_rule.coverageTpp = NAN;
    EXPECT_THROW(nan_rule.validate(), FatalError);

    policy::FirmwareLicenseRule neg_rule;
    neg_rule.throttleTpp = -4800.0;
    try {
        neg_rule.validate();
        FAIL() << "negative throttle accepted";
    } catch (const FatalError &e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("throttleTpp"), std::string::npos) << msg;
        EXPECT_NE(msg.find("-4800"), std::string::npos) << msg;
    }

    policy::FirmwareLicenseRule inverted;
    inverted.throttleTpp = inverted.coverageTpp + 1.0;
    try {
        inverted.validate();
        FAIL() << "throttle above coverage accepted";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("inverted thresholds"),
                  std::string::npos)
            << e.what();
    }
}

TEST(ArmsRaceConfigTest, RejectsBadKnobs)
{
    coevo::ArmsRaceConfig bad_rounds;
    bad_rounds.rounds = 0;
    EXPECT_THROW(coevo::ArmsRace{bad_rounds}, FatalError);

    coevo::ArmsRaceConfig bad_budget;
    bad_budget.collateralBudget = -0.1;
    EXPECT_THROW(coevo::ArmsRace{bad_budget}, FatalError);

    coevo::ArmsRaceConfig nan_budget;
    nan_budget.collateralBudget = NAN;
    EXPECT_THROW(coevo::ArmsRace{nan_budget}, FatalError);

    coevo::ArmsRaceConfig bad_step;
    bad_step.tightenStep = 1.0;
    EXPECT_THROW(coevo::ArmsRace{bad_step}, FatalError);
}

// ---- firmware mechanism structure ------------------------------------------

TEST(FirmwareLicenseRule, MetersFp16EquivalentOpsSoRelabelingBuysNothing)
{
    // An FP16 design relabeled INT8 halves its *claimed* TPP but
    // retires the same operations: the firmware meters FP16-equivalent
    // TPP, so coverage and throttle are unchanged.
    hw::HardwareConfig fp16 = hw::modeledA100();
    hw::HardwareConfig int8 = fp16;
    int8.opBitwidth = 8;
    EXPECT_LT(int8.tpp(), fp16.tpp());
    const double fp16eq_a = fp16.peakTensorTops() * 16.0;
    const double fp16eq_b = int8.peakTensorTops() * 16.0;
    EXPECT_DOUBLE_EQ(fp16eq_a, fp16eq_b);

    policy::FirmwareLicenseRule fw;
    fw.coverageTpp = 4800.0;
    fw.throttleTpp = 2400.0;
    EXPECT_EQ(fw.covered(fp16eq_a), fw.covered(fp16eq_b));
    EXPECT_DOUBLE_EQ(fw.throughputScale(fp16eq_a),
                     fw.throughputScale(fp16eq_b));
}

TEST(FirmwareLicenseRule, ThrottleScalesSustainedThroughput)
{
    policy::FirmwareLicenseRule fw;
    fw.coverageTpp = 4800.0;
    fw.throttleTpp = 2400.0;
    EXPECT_DOUBLE_EQ(fw.throughputScale(9600.0), 0.25);
    EXPECT_DOUBLE_EQ(fw.throughputScale(4800.0), 0.5);
    // Under coverage: native speed.
    EXPECT_DOUBLE_EQ(fw.throughputScale(4799.0), 1.0);
    // Throttle at/above the device's throughput never speeds it up.
    fw.throttleTpp = 4800.0;
    EXPECT_DOUBLE_EQ(fw.throughputScale(4800.0), 1.0);
}

// ---- escape-space enumerations (the static benches source these) -----------

TEST(EscapeSpace, EnumerationsMatchTheStaticBenches)
{
    EXPECT_EQ(coevo::mcmChipletCounts(), (std::vector<int>{4, 5, 6, 8}));
    EXPECT_EQ(coevo::gamingEscapeDims(),
              (std::vector<int>{4, 8, 16, 32}));
    EXPECT_EQ(coevo::gamingEscapeMemTbps(),
              (std::vector<double>{0.8, 1.2, 1.6, 2.0, 2.8}));

    const coevo::L2PaddingGrid grid = coevo::l2PaddingGrid();
    EXPECT_DOUBLE_EQ(grid.startMib, 40.0);
    EXPECT_DOUBLE_EQ(grid.stopMib, 2048.0);
    EXPECT_DOUBLE_EQ(grid.stepMib, 8.0);

    const auto &genealogy = coevo::complianceSkuGenealogy();
    ASSERT_EQ(genealogy.size(), 6u);
    EXPECT_STREQ(genealogy.front().flagship, "NVIDIA A100 80GB");
    EXPECT_STREQ(genealogy.front().sku, "NVIDIA A800");
    EXPECT_STREQ(genealogy.back().sku, "NVIDIA RTX 4090D");
}

TEST(EscapeSpace, PortfolioTracksTheRuleParameters)
{
    // Canonical rule: spaces one under each live tier, an INT8 twin of
    // the top target, and the consumer-rebranding space.
    const auto canonical =
        coevo::designerEscapeSpaces(policy::ParamRule::combined());
    ASSERT_GE(canonical.size(), 4u);
    bool has_int8 = false, has_consumer = false;
    for (const auto &es : canonical) {
        EXPECT_GT(es.space.size(), 0u) << es.label;
        if (es.label.find("int8") != std::string::npos)
            has_int8 = true;
        if (es.marketedAs == policy::MarketSegment::CONSUMER)
            has_consumer = true;
    }
    EXPECT_TRUE(has_int8);
    EXPECT_TRUE(has_consumer);

    // Tightening the license tier moves the top target down with it.
    policy::ParamRule tightened = policy::ParamRule::combined();
    tightened.tppLicense = 2400.0;
    tightened.tppMid = std::min(tightened.tppMid, 2400.0);
    const auto shifted = coevo::designerEscapeSpaces(tightened);
    EXPECT_NE(shifted.front().label, canonical.front().label);
    EXPECT_NE(shifted.front().label.find("2399"), std::string::npos)
        << shifted.front().label;
}

// ---- arms-race engine ------------------------------------------------------

namespace {

coevo::ArmsRaceConfig
smallRace(coevo::Mechanism mechanism, unsigned threads = 0)
{
    coevo::ArmsRaceConfig cfg;
    cfg.mechanism = mechanism;
    cfg.rounds = 5;
    cfg.collateralBudget = 0.10;
    cfg.threads = threads;
    return cfg;
}

} // namespace

TEST(ArmsRaceTest, TrajectoryIsMonotoneNonIncreasing)
{
    for (const coevo::Mechanism m :
         {coevo::Mechanism::THRESHOLD, coevo::Mechanism::FIRMWARE}) {
        coevo::ArmsRace race(smallRace(m));
        const coevo::ArmsRaceResult res = race.run();
        ASSERT_EQ(res.rounds.size(), 6u) << toString(m);
        double prev = INFINITY;
        for (const coevo::RoundRecord &r : res.rounds) {
            EXPECT_LE(r.designer.escapedPerf, prev + 1e-12)
                << toString(m) << " round " << r.round;
            prev = r.designer.escapedPerf;
            EXPECT_LE(r.collateral, 0.10 + 1e-12);
        }
    }
}

TEST(ArmsRaceTest, DesignerReusesAdaptiveSearchNotExhaustiveSweep)
{
    coevo::ArmsRace race(smallRace(coevo::Mechanism::THRESHOLD));
    const coevo::BestResponse br =
        race.designerResponse(policy::ParamRule::combined());
    EXPECT_TRUE(std::isfinite(br.ttftS));
    EXPECT_GT(br.escapedPerf, 0.0);
    ASSERT_GT(br.spacePoints, 0u);
    // The whole point of reusing dse::AdaptiveSearch: a strict
    // fraction of the escape portfolio is ever evaluated.
    EXPECT_LT(br.evaluated, br.spacePoints);
}

TEST(ArmsRaceTest, FingerprintIndependentOfThreadCount)
{
    coevo::ArmsRace one(smallRace(coevo::Mechanism::THRESHOLD, 1));
    coevo::ArmsRace seven(smallRace(coevo::Mechanism::THRESHOLD, 7));
    const coevo::ArmsRaceResult a = one.run();
    const coevo::ArmsRaceResult b = seven.run();
    EXPECT_EQ(a.fingerprint(), b.fingerprint());
    EXPECT_EQ(a.roundsToFixedPoint, b.roundsToFixedPoint);
}

TEST(ArmsRaceTest, DefaultRaceFingerprintsArePinned)
{
    // The default-config races (8 rounds, budget 0.10): the values the
    // end-to-end benchmark's golden file holds for both mechanisms.
    // The per-space searches reuse their stored timings across
    // candidate rules, which must not move a single bit.
    // Seven-wide waves: stored points are re-classified inside the
    // evaluation workers (the thread-sanitizer job runs this test).
    coevo::ArmsRaceConfig cfg;
    cfg.threads = 7;
    cfg.mechanism = coevo::Mechanism::THRESHOLD;
    const coevo::ArmsRaceResult threshold = coevo::ArmsRace(cfg).run();
    EXPECT_EQ(threshold.fingerprint(), 0xfde8fade46b80d9dull);
    cfg.mechanism = coevo::Mechanism::FIRMWARE;
    const coevo::ArmsRaceResult firmware = coevo::ArmsRace(cfg).run();
    EXPECT_EQ(firmware.fingerprint(), 0x1871ac391fb52622ull);

    // Most visits re-classify a point the race already timed.
    for (const coevo::ArmsRaceResult *res : {&threshold, &firmware}) {
        EXPECT_GT(res->totalTimed, 0u);
        EXPECT_LT(res->totalTimed * 3, res->totalEvaluated)
            << res->totalTimed << " timed of " << res->totalEvaluated;
    }
}

TEST(ArmsRaceTest, RerunReproducesTheSameFixedPoint)
{
    coevo::ArmsRace race(smallRace(coevo::Mechanism::FIRMWARE));
    const coevo::ArmsRaceResult first = race.run();
    // Second run on the same engine replays from the warm memo;
    // a fresh engine recomputes everything. All three must agree.
    const coevo::ArmsRaceResult warm = race.run();
    coevo::ArmsRace fresh(smallRace(coevo::Mechanism::FIRMWARE));
    const coevo::ArmsRaceResult cold = fresh.run();
    EXPECT_EQ(first.fingerprint(), warm.fingerprint());
    EXPECT_EQ(first.fingerprint(), cold.fingerprint());
    EXPECT_EQ(first.roundsToFixedPoint, cold.roundsToFixedPoint);
}

TEST(ArmsRaceTest, FirmwareIsImmuneToBitWidthGaming)
{
    // Against the threshold rule the INT8 twin wins the opening round
    // outright (relabeling halves claimed TPP); against the firmware
    // meter the winning escape is never an INT8 space.
    coevo::ArmsRace thr(smallRace(coevo::Mechanism::THRESHOLD));
    const coevo::BestResponse thr_br =
        thr.designerResponse(policy::ParamRule::combined());
    EXPECT_NE(thr_br.spaceLabel.find("int8"), std::string::npos)
        << thr_br.spaceLabel;

    coevo::ArmsRace fw(smallRace(coevo::Mechanism::FIRMWARE));
    const coevo::BestResponse fw_br =
        fw.designerResponse(policy::FirmwareLicenseRule{});
    EXPECT_EQ(fw_br.spaceLabel.find("int8"), std::string::npos)
        << fw_br.spaceLabel;
}

TEST(ArmsRaceTest, FrontierCoversBothMechanismsAndIsMonotoneInBudget)
{
    coevo::ArmsRace race(smallRace(coevo::Mechanism::THRESHOLD));
    const std::vector<double> budgets = {0.0, 0.10};
    const auto frontier = race.frontier(budgets);
    ASSERT_EQ(frontier.size(), 4u);
    // Threshold points first, then firmware; within a mechanism a
    // larger budget can only help the regulator.
    EXPECT_EQ(frontier[0].mechanism, coevo::Mechanism::THRESHOLD);
    EXPECT_EQ(frontier[2].mechanism, coevo::Mechanism::FIRMWARE);
    EXPECT_GE(frontier[0].escapedPerf, frontier[1].escapedPerf - 1e-12);
    EXPECT_GE(frontier[2].escapedPerf, frontier[3].escapedPerf - 1e-12);
    for (const auto &p : frontier)
        EXPECT_LE(p.collateral, p.budget + 1e-12);
}

TEST(ArmsRaceTest, MechanismNamesRoundTrip)
{
    EXPECT_EQ(coevo::mechanismFromString("threshold"),
              coevo::Mechanism::THRESHOLD);
    EXPECT_EQ(coevo::mechanismFromString("firmware"),
              coevo::Mechanism::FIRMWARE);
    EXPECT_EQ(toString(coevo::Mechanism::THRESHOLD), "threshold");
    EXPECT_EQ(toString(coevo::Mechanism::FIRMWARE), "firmware");
    EXPECT_THROW(coevo::mechanismFromString("tariff"), FatalError);
}
