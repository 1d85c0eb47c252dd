#include "arms_race.hh"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "area/area_model.hh"
#include "common/logging.hh"
#include "core/study.hh"
#include "obs/obs.hh"

namespace acs {
namespace coevo {

namespace {

/** FP16-equivalent TPP of a design: retired operations x 16,
 *  independent of the claimed operand bitwidth — what the firmware
 *  meter counts. */
double
fp16EquivalentTpp(const hw::HardwareConfig &cfg)
{
    return cfg.peakTensorTops() * 16.0;
}

/** Single-die manufacturability for (possibly) multi-chip packages:
 *  EvaluatedDesign::dieAreaMm2 is the package total. */
bool
perDieUnderReticle(const dse::EvaluatedDesign &d)
{
    const int dies = d.config.diesPerPackage > 0 ? d.config.diesPerPackage : 1;
    return d.dieAreaMm2 / dies <= area::RETICLE_LIMIT_MM2;
}

/** Exact equality of every field a search depends on. Labels are
 *  not enough: they truncate the TPP target. */
bool
sameSpace(const dse::SweepSpace &a, const dse::SweepSpace &b)
{
    return a.tppTarget == b.tppTarget && a.base == b.base &&
           a.systolicDims == b.systolicDims &&
           a.lanesPerCore == b.lanesPerCore &&
           a.l1BytesPerCore == b.l1BytesPerCore &&
           a.l2Bytes == b.l2Bytes && a.memBandwidths == b.memBandwidths &&
           a.deviceBandwidths == b.deviceBandwidths &&
           a.diesPerPackage == b.diesPerPackage;
}

/** One regulator move: a label and the tightened rule. */
template <typename Rule>
struct Candidate
{
    std::string label;
    Rule rule;
};

/** Per-knob multiplicative tightenings of a threshold rule, "hold"
 *  first. Dependent thresholds are clamped so the ordering invariants
 *  (validate()) keep holding. */
std::vector<Candidate<policy::ParamRule>>
thresholdCandidates(const policy::ParamRule &cur, double step)
{
    std::vector<Candidate<policy::ParamRule>> out;
    out.push_back({"hold", cur});

    auto add = [&](const char *label, auto &&tighten) {
        policy::ParamRule r = cur;
        tighten(r);
        r.validate();
        out.push_back({label, r});
    };

    if (std::isfinite(cur.tppLicense)) {
        add("tppLicense", [&](policy::ParamRule &r) {
            r.tppLicense *= step;
            r.tppMid = std::min(r.tppMid, r.tppLicense);
            r.tppLow = std::min(r.tppLow, r.tppMid);
        });
    }
    if (std::isfinite(cur.tppBandwidthLicense)) {
        add("tppBwLicense", [&](policy::ParamRule &r) {
            r.tppBandwidthLicense *= step;
        });
    }
    if (std::isfinite(cur.bandwidthGBps)) {
        add("bandwidthGBps", [&](policy::ParamRule &r) {
            r.bandwidthGBps *= step;
        });
    }
    if (std::isfinite(cur.pdLicense)) {
        add("pdLicense", [&](policy::ParamRule &r) {
            r.pdLicense *= step;
            r.pdMid = std::min(r.pdMid, r.pdLicense);
            r.pdLow = std::min(r.pdLow, r.pdMid);
        });
    }
    if (std::isfinite(cur.tppMid)) {
        add("tppMid", [&](policy::ParamRule &r) {
            r.tppMid *= step;
            r.tppLow = std::min(r.tppLow, r.tppMid);
        });
    }
    if (std::isfinite(cur.tppLow)) {
        add("tppLow", [&](policy::ParamRule &r) { r.tppLow *= step; });
    }
    if (std::isfinite(cur.pdMid)) {
        add("pdMid", [&](policy::ParamRule &r) {
            r.pdMid *= step;
            r.pdLow = std::min(r.pdLow, r.pdMid);
        });
    }
    if (std::isfinite(cur.pdLow)) {
        add("pdLow", [&](policy::ParamRule &r) { r.pdLow *= step; });
    }
    return out;
}

/** Firmware moves: widen coverage or lower the cap. */
std::vector<Candidate<policy::FirmwareLicenseRule>>
firmwareCandidates(const policy::FirmwareLicenseRule &cur, double step)
{
    std::vector<Candidate<policy::FirmwareLicenseRule>> out;
    out.push_back({"hold", cur});

    policy::FirmwareLicenseRule cov = cur;
    cov.coverageTpp *= step;
    cov.throttleTpp = std::min(cov.throttleTpp, cov.coverageTpp);
    cov.validate();
    out.push_back({"coverage", cov});

    policy::FirmwareLicenseRule cap = cur;
    cap.throttleTpp *= step;
    cap.validate();
    out.push_back({"throttle", cap});
    return out;
}

} // namespace

std::string
toString(Mechanism m)
{
    switch (m) {
      case Mechanism::THRESHOLD: return "threshold";
      case Mechanism::FIRMWARE:  return "firmware";
    }
    panic("unknown Mechanism");
}

Mechanism
mechanismFromString(const std::string &s)
{
    if (s == "threshold")
        return Mechanism::THRESHOLD;
    if (s == "firmware")
        return Mechanism::FIRMWARE;
    fatal("unknown mechanism '" + s + "' (threshold|firmware)");
}

ArmsRace::ArmsRace(ArmsRaceConfig cfg) : cfg_(std::move(cfg))
{
    fatalIf(cfg_.rounds < 1, "coevo: rounds must be >= 1, got " +
                                 std::to_string(cfg_.rounds));
    if (std::isnan(cfg_.collateralBudget))
        fatal("coevo: collateralBudget is NaN");
    fatalIf(cfg_.collateralBudget < 0.0,
            "coevo: collateralBudget must be >= 0, got " +
                std::to_string(cfg_.collateralBudget));
    fatalIf(!(cfg_.tightenStep > 0.0 && cfg_.tightenStep < 1.0),
            "coevo: tightenStep must be in (0, 1), got " +
                std::to_string(cfg_.tightenStep));

    const core::Workload w = core::workloadByName(cfg_.workload);
    evaluator_ = std::make_unique<dse::DesignEvaluator>(w.model, w.setting,
                                                        w.system);
}

dse::AdaptiveResult
ArmsRace::searchSpace(const dse::SweepSpace &space,
                      const dse::DesignEvaluator::StreamPredicate &predicate)
{
    auto it = std::find_if(searches_.begin(), searches_.end(),
                           [&](const std::unique_ptr<SpaceSearch> &s) {
                               return sameSpace(s->space, space);
                           });
    if (it == searches_.end()) {
        dse::AdaptiveConfig acfg;
        acfg.threads = cfg_.threads;
        acfg.maxEvaluations = cfg_.maxEvaluations;
        acfg.workloadTag = "coevo-" + cfg_.workload;
        searches_.push_back(
            std::make_unique<SpaceSearch>(*evaluator_, space, acfg));
        it = searches_.end() - 1;
    }
    dse::AdaptiveResult r = (*it)->search.run(predicate);
    totalEvaluated_ += r.evaluated;
    totalSpacePoints_ += r.spacePoints;
    return r;
}

double
ArmsRace::referenceTtftS()
{
    if (haveReference_)
        return referenceTtftS_;
    const dse::AdaptiveResult r = searchSpace(
        unconstrainedReferenceSpace(),
        [](const dse::EvaluatedDesign &d) { return perDieUnderReticle(d); });
    fatalIf(!r.bestTtft.has_value(),
            "coevo: unconstrained reference space has no feasible design");
    referenceTtftS_ = r.bestTtft->ttftS;
    referenceTbtS_ = r.bestTtft->tbtS;
    haveReference_ = true;
    return referenceTtftS_;
}

double
ArmsRace::referenceTbtS()
{
    referenceTtftS();
    return referenceTbtS_;
}

BestResponse
ArmsRace::designerResponse(const policy::ParamRule &rule)
{
    rule.validate();
    const std::string key = "t:" + rule.describe();
    auto it = memo_.find(key);
    if (it != memo_.end()) {
        obs::counterAdd("coevo.designer.memo_hits");
        return it->second;
    }

    const double ref = referenceTtftS();
    BestResponse best;
    for (const EscapeSpace &es : designerEscapeSpaces(rule)) {
        const policy::MarketSegment seg = es.marketedAs;
        const dse::AdaptiveResult r = searchSpace(
            es.space, [&rule, seg](const dse::EvaluatedDesign &d) {
                if (!perDieUnderReticle(d))
                    return false;
                return rule.classifyAs(d.unnamedSpec(), seg) ==
                       policy::Classification::NOT_APPLICABLE;
            });
        best.evaluated += r.evaluated;
        best.spacePoints += r.spacePoints;
        if (r.bestTtft.has_value() && r.bestTtft->ttftS < best.ttftS) {
            best.ttftS = r.bestTtft->ttftS;
            best.tbtS = r.bestTtft->tbtS;
            best.spaceLabel = es.label;
            best.designName = r.bestTtft->config.name;
            best.fp16Tpp = fp16EquivalentTpp(r.bestTtft->config);
        }
    }
    if (std::isfinite(best.ttftS))
        best.escapedPerf = ref / best.ttftS;
    ++bestResponses_;
    memo_[key] = best;
    return best;
}

BestResponse
ArmsRace::designerResponse(const policy::FirmwareLicenseRule &rule)
{
    rule.validate();
    const std::string key = "f:" + rule.describe();
    auto it = memo_.find(key);
    if (it != memo_.end()) {
        obs::counterAdd("coevo.designer.memo_hits");
        return it->second;
    }

    const double ref = referenceTtftS();
    BestResponse best;
    for (const EscapeSpace &es : designerEscapeSpaces(rule)) {
        const dse::AdaptiveResult r = searchSpace(
            es.space,
            [](const dse::EvaluatedDesign &d) { return perDieUnderReticle(d); });
        best.evaluated += r.evaluated;
        best.spacePoints += r.spacePoints;
        if (!r.bestTtft.has_value())
            continue;
        // The cap scales sustained throughput; within one sub-space
        // the FP16-equivalent TPP is nearly uniform (same target and
        // bitwidth), so the space's raw-TTFT argmin is its scaled
        // argmin too.
        const double tpp16 = fp16EquivalentTpp(r.bestTtft->config);
        const double scale = rule.throughputScale(tpp16);
        const double eff_ttft = r.bestTtft->ttftS / scale;
        if (eff_ttft < best.ttftS) {
            best.ttftS = eff_ttft;
            best.tbtS = r.bestTtft->tbtS / scale;
            best.spaceLabel = es.label;
            best.designName = r.bestTtft->config.name;
            best.fp16Tpp = tpp16;
        }
    }
    if (std::isfinite(best.ttftS))
        best.escapedPerf = ref / best.ttftS;
    ++bestResponses_;
    memo_[key] = best;
    return best;
}

double
ArmsRace::collateralDamage(const policy::ParamRule &rule) const
{
    // A gaming/graphics device is collateral when the candidate rule
    // burdens it and the canonical (combined) rule did not.
    const policy::ParamRule baseline = policy::ParamRule::combined();
    std::size_t gaming = 0, newly = 0;
    for (const auto &rec : db_.all()) {
        const policy::DeviceSpec spec = rec.toSpec();
        if (!policy::isNonDataCenter(spec.market))
            continue;
        ++gaming;
        if (policy::isRegulated(rule.classify(spec)) &&
            !policy::isRegulated(baseline.classify(spec))) {
            ++newly;
        }
    }
    return gaming == 0 ? 0.0 : static_cast<double>(newly) / gaming;
}

double
ArmsRace::collateralDamage(const policy::FirmwareLicenseRule &rule) const
{
    // Metering firmware is the burden: a gaming device is collateral
    // when the mechanism covers it and the canonical threshold
    // regime did not already burden it — same baseline as the
    // threshold mechanism, so the two frontiers share axes.
    const policy::ParamRule baseline = policy::ParamRule::combined();
    std::size_t gaming = 0, newly = 0;
    for (const auto &rec : db_.all()) {
        const policy::DeviceSpec spec = rec.toSpec();
        if (!policy::isNonDataCenter(spec.market))
            continue;
        ++gaming;
        if (policy::isRegulated(rule.classify(spec)) &&
            !policy::isRegulated(baseline.classify(spec))) {
            ++newly;
        }
    }
    return gaming == 0 ? 0.0 : static_cast<double>(newly) / gaming;
}

ArmsRaceResult
ArmsRace::runThreshold(double budget)
{
    ArmsRaceResult res;
    res.config = cfg_;
    res.config.mechanism = Mechanism::THRESHOLD;
    res.config.collateralBudget = budget;
    res.referenceTtftS = referenceTtftS();
    res.referenceTbtS = referenceTbtS();

    policy::ParamRule cur = policy::ParamRule::combined();
    {
        const obs::TraceSpan span("coevo.round");
        res.rounds.push_back({0, cur.describe(), "start",
                              collateralDamage(cur), designerResponse(cur)});
    }

    for (int round = 1; round <= cfg_.rounds; ++round) {
        const obs::TraceSpan span("coevo.round");
        const auto cands = thresholdCandidates(cur, cfg_.tightenStep);
        std::size_t best_idx = 0;
        double best_col = collateralDamage(cands[0].rule);
        BestResponse best_br = designerResponse(cands[0].rule);
        for (std::size_t i = 1; i < cands.size(); ++i) {
            const double col = collateralDamage(cands[i].rule);
            if (col > budget + 1e-12)
                continue;
            const BestResponse br = designerResponse(cands[i].rule);
            if (br.escapedPerf < best_br.escapedPerf) {
                best_idx = i;
                best_col = col;
                best_br = br;
            }
        }
        cur = cands[best_idx].rule;
        if (best_idx == 0 && res.roundsToFixedPoint < 0)
            res.roundsToFixedPoint = round;
        res.rounds.push_back({round, cur.describe(),
                              cands[best_idx].label, best_col, best_br});
    }
    account(&res);
    return res;
}

ArmsRaceResult
ArmsRace::runFirmware(double budget)
{
    ArmsRaceResult res;
    res.config = cfg_;
    res.config.mechanism = Mechanism::FIRMWARE;
    res.config.collateralBudget = budget;
    res.referenceTtftS = referenceTtftS();
    res.referenceTbtS = referenceTbtS();

    policy::FirmwareLicenseRule cur;
    {
        const obs::TraceSpan span("coevo.round");
        res.rounds.push_back({0, cur.describe(), "start",
                              collateralDamage(cur), designerResponse(cur)});
    }

    for (int round = 1; round <= cfg_.rounds; ++round) {
        const obs::TraceSpan span("coevo.round");
        const auto cands = firmwareCandidates(cur, cfg_.tightenStep);
        std::size_t best_idx = 0;
        double best_col = collateralDamage(cands[0].rule);
        BestResponse best_br = designerResponse(cands[0].rule);
        for (std::size_t i = 1; i < cands.size(); ++i) {
            const double col = collateralDamage(cands[i].rule);
            if (col > budget + 1e-12)
                continue;
            const BestResponse br = designerResponse(cands[i].rule);
            if (br.escapedPerf < best_br.escapedPerf) {
                best_idx = i;
                best_col = col;
                best_br = br;
            }
        }
        cur = cands[best_idx].rule;
        if (best_idx == 0 && res.roundsToFixedPoint < 0)
            res.roundsToFixedPoint = round;
        res.rounds.push_back({round, cur.describe(),
                              cands[best_idx].label, best_col, best_br});
    }
    account(&res);
    return res;
}

void
ArmsRace::account(ArmsRaceResult *res) const
{
    res->bestResponses = bestResponses_;
    res->totalEvaluated = totalEvaluated_;
    res->totalSpacePoints = totalSpacePoints_;
    res->totalTimed = 0;
    for (const std::unique_ptr<SpaceSearch> &s : searches_)
        res->totalTimed += s->search.timedPoints();
}

ArmsRaceResult
ArmsRace::run()
{
    return cfg_.mechanism == Mechanism::THRESHOLD
               ? runThreshold(cfg_.collateralBudget)
               : runFirmware(cfg_.collateralBudget);
}

std::vector<FrontierPoint>
ArmsRace::frontier(const std::vector<double> &budgets)
{
    std::vector<FrontierPoint> out;
    for (const Mechanism m : {Mechanism::THRESHOLD, Mechanism::FIRMWARE}) {
        for (const double budget : budgets) {
            const ArmsRaceResult res = m == Mechanism::THRESHOLD
                                           ? runThreshold(budget)
                                           : runFirmware(budget);
            const RoundRecord &last = res.rounds.back();
            out.push_back({m, budget, last.collateral,
                           last.designer.escapedPerf, last.ruleDesc});
        }
    }
    return out;
}

std::uint64_t
ArmsRaceResult::fingerprint() const
{
    std::uint64_t h = 14695981039346656037ull;
    auto mix_bytes = [&h](const void *p, std::size_t n) {
        const auto *b = static_cast<const unsigned char *>(p);
        for (std::size_t i = 0; i < n; ++i) {
            h ^= b[i];
            h *= 1099511628211ull;
        }
    };
    auto mix_u64 = [&](std::uint64_t v) { mix_bytes(&v, sizeof(v)); };
    auto mix_d = [&](double v) {
        std::uint64_t bits;
        std::memcpy(&bits, &v, sizeof(bits));
        mix_u64(bits);
    };
    auto mix_s = [&](const std::string &s) {
        mix_u64(s.size());
        mix_bytes(s.data(), s.size());
    };

    mix_d(referenceTtftS);
    mix_d(referenceTbtS);
    for (const RoundRecord &r : rounds) {
        mix_u64(static_cast<std::uint64_t>(r.round));
        mix_s(r.ruleDesc);
        mix_s(r.moveLabel);
        mix_d(r.collateral);
        mix_d(r.designer.tbtS);
        mix_d(r.designer.escapedPerf);
        mix_s(r.designer.spaceLabel);
        mix_s(r.designer.designName);
    }
    return h;
}

} // namespace coevo
} // namespace acs
