/**
 * @file
 * The regulator-vs-designer arms race (ROADMAP item 4): N rounds of
 * alternating best responses between a rule-tightening regulator and
 * an escape-seeking designer, over the parameterized rule family in
 * policy/param_rule.hh — the quantitative version of Whack-a-Chip's
 * futility thesis, with the firmware offline-licensing mechanism as
 * a structurally different control arm.
 *
 * Round structure:
 *   designer  maximizes compliant decode throughput over the escape
 *             portfolio (coevo/escape.hh) with dse::AdaptiveSearch as
 *             the inner evaluator — one search object per distinct
 *             escape space for the whole race, so a design is timed
 *             once however many candidate rules re-classify it;
 *   regulator picks, among per-knob tightenings of the current rule
 *             (and "hold"), the one minimizing the designer's escaped
 *             performance subject to a collateral-damage budget on
 *             the gaming/graphics segment (device DB ground truth).
 *
 * "Hold" is always a candidate and the designer oracle is a
 * deterministic function of the rule alone, so the chosen minimum can
 * never exceed the previous round's value: the escaped-performance
 * trajectory is monotonically non-increasing by construction, and the
 * first held round is a fixed point (candidates repeat verbatim
 * afterwards). Iterates are deterministic and ACS_THREADS-independent
 * (the inner search is; the outer loop is serial).
 */

#ifndef ACS_COEVO_ARMS_RACE_HH
#define ACS_COEVO_ARMS_RACE_HH

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "coevo/escape.hh"
#include "devices/database.hh"
#include "dse/adaptive.hh"
#include "dse/evaluate.hh"
#include "policy/param_rule.hh"

namespace acs {
namespace coevo {

/** The regulator's instrument. */
enum class Mechanism
{
    THRESHOLD, //!< classification thresholds (ParamRule)
    FIRMWARE,  //!< offline-licensing throughput cap (FirmwareLicenseRule)
};

std::string toString(Mechanism m);

/** Parse "threshold" / "firmware" (fatal on anything else). */
Mechanism mechanismFromString(const std::string &s);

/** Arms-race tuning knobs. */
struct ArmsRaceConfig
{
    Mechanism mechanism = Mechanism::THRESHOLD;

    /** Regulator/designer rounds after the opening designer move. */
    int rounds = 8;

    /**
     * Collateral-damage budget: the fraction of gaming/graphics
     * catalogue devices a candidate rule may newly regulate (for the
     * firmware mechanism: may cover) relative to the canonical
     * baseline.
     */
    double collateralBudget = 0.10;

    /** Multiplicative per-knob tightening step per candidate. */
    double tightenStep = 0.85;

    /** Echoed into outputs; reserved for stochastic designer
     *  strategies — the base engine's iterates are seed-free. */
    std::uint64_t seed = 0;

    /** Worker threads for the inner search; 0 = shared pool. */
    unsigned threads = 0;

    /** Workload the designer optimizes (core::workloadByName). */
    std::string workload = "gpt3";

    /** Forwarded to AdaptiveConfig::maxEvaluations (0 = unlimited). */
    std::size_t maxEvaluations = 0;
};

/**
 * The designer's best compliant design against one rule.
 *
 * The designer objective is prefill latency (TTFT): prefill is the
 * compute-bound phase where TPP actually binds. Decode is memory-
 * bandwidth-bound and HBM is unregulated, so decode throughput is
 * nearly rule-immune (the flat TBT column the race emits is itself a
 * finding — Fig. 5's bandwidth insensitivity, closed-loop).
 */
struct BestResponse
{
    /** Effective latencies of the best escape (firmware: after the
     *  throttle); INFINITY when no compliant design exists. */
    double ttftS = INFINITY;
    double tbtS = INFINITY;

    std::string spaceLabel; //!< winning escape sub-space
    std::string designName; //!< winning design point

    /** Prefill throughput retained vs the unconstrained reference:
     *  referenceTtftS / ttftS (0 when no escape exists). */
    double escapedPerf = 0.0;

    /** Winner's FP16-equivalent TPP (operations x 16). */
    double fp16Tpp = 0.0;

    std::size_t evaluated = 0;   //!< points evaluated, all sub-spaces
    std::size_t spacePoints = 0; //!< feasible points, all sub-spaces
};

/** One round of the race. */
struct RoundRecord
{
    int round = 0;         //!< 0 = canonical starting rule
    std::string ruleDesc;  //!< rule parameters after this round's move
    std::string moveLabel; //!< knob the regulator turned ("hold", ...)
    double collateral = 0.0;
    BestResponse designer; //!< best response to ruleDesc
};

/** A (collateral, escaped-performance) frontier point. */
struct FrontierPoint
{
    Mechanism mechanism = Mechanism::THRESHOLD;
    double budget = 0.0;
    double collateral = 0.0;  //!< realized at the final rule
    double escapedPerf = 0.0; //!< final-round designer response
    std::string ruleDesc;
};

/** Full race outcome. */
struct ArmsRaceResult
{
    ArmsRaceConfig config;
    double referenceTtftS = 0.0; //!< unconstrained best prefill
    double referenceTbtS = 0.0;  //!< its decode latency

    /** rounds.size() == config.rounds + 1 (round 0 included). */
    std::vector<RoundRecord> rounds;

    /** First held round (a fixed point); -1 if none within budget. */
    int roundsToFixedPoint = -1;

    /** FNV-1a over the trajectory (rules, moves, responses) — the
     *  determinism fingerprint pinned across thread counts. */
    std::uint64_t fingerprint() const;

    // Bench accounting (memoized repeats not re-counted).
    std::size_t bestResponses = 0;
    std::size_t totalEvaluated = 0;
    std::size_t totalSpacePoints = 0;
    /** Distinct points the race's searches timed (the rest of
     *  totalEvaluated re-classified stored timings). */
    std::size_t totalTimed = 0;
};

/**
 * The race driver. Holds the workload-bound evaluator, the device
 * database, the unconstrained reference, a best-response memo keyed on
 * rule parameters (the "hold" candidate and the fixed-point tail
 * replay from it at zero cost), and one dse::AdaptiveSearch per
 * distinct escape space, whose point store lets every later rule skip
 * the timing of points an earlier rule already visited.
 */
class ArmsRace
{
  public:
    explicit ArmsRace(ArmsRaceConfig cfg = {});

    /** Run config.rounds regulator/designer rounds. */
    ArmsRaceResult run();

    /**
     * The final (collateral, escaped-performance) point of a full
     * race at each budget, for both mechanisms — the threshold-vs-
     * firmware frontier. Best-response memos are shared across
     * budgets.
     */
    std::vector<FrontierPoint> frontier(const std::vector<double> &budgets);

    /** Designer best response to a threshold rule (memoized). */
    BestResponse designerResponse(const policy::ParamRule &rule);

    /** Designer best response to the firmware mechanism (memoized). */
    BestResponse designerResponse(const policy::FirmwareLicenseRule &rule);

    /** Fraction of gaming/graphics devices newly regulated vs the
     *  canonical combined rule. */
    double collateralDamage(const policy::ParamRule &rule) const;

    /** Fraction of gaming/graphics devices covered by the metering
     *  firmware. */
    double collateralDamage(const policy::FirmwareLicenseRule &rule) const;

    /** Best unconstrained prefill latency (computed once, lazily);
     *  referenceTbtS() is the same design's decode latency. */
    double referenceTtftS();
    double referenceTbtS();

    const ArmsRaceConfig &config() const { return cfg_; }

  private:
    /** A search with the space it holds a reference to. */
    struct SpaceSearch
    {
        SpaceSearch(const dse::DesignEvaluator &evaluator,
                    const dse::SweepSpace &s, dse::AdaptiveConfig cfg)
            : space(s), search(evaluator, space, std::move(cfg))
        {
        }
        dse::SweepSpace space;
        dse::AdaptiveSearch search;
    };

    dse::AdaptiveResult searchSpace(const dse::SweepSpace &space,
                                    const dse::DesignEvaluator::StreamPredicate
                                        &predicate);
    ArmsRaceResult runThreshold(double budget);
    ArmsRaceResult runFirmware(double budget);
    void account(ArmsRaceResult *res) const;

    ArmsRaceConfig cfg_;
    devices::Database db_;
    std::unique_ptr<dse::DesignEvaluator> evaluator_;
    double referenceTtftS_ = 0.0;
    double referenceTbtS_ = 0.0;
    bool haveReference_ = false;
    std::map<std::string, BestResponse> memo_;
    /** One per distinct space (exact field equality), race lifetime. */
    std::vector<std::unique_ptr<SpaceSearch>> searches_;
    std::size_t bestResponses_ = 0;
    std::size_t totalEvaluated_ = 0;
    std::size_t totalSpacePoints_ = 0;
};

} // namespace coevo
} // namespace acs

#endif // ACS_COEVO_ARMS_RACE_HH
