/**
 * @file
 * Workload "coevo": coevo::ArmsRace for both mechanisms (threshold
 * rules and firmware licensing) run to their fixed point, plus
 * frontier() at three seed-jittered collateral budgets, as
 * single-threaded tasks over the shared pool. Every repetition starts
 * from fresh races, so the designer memo is cold.
 *
 * Why: without it the coevo, policy::ParamRule and devices layers go
 * unmeasured. It also drives dse::AdaptiveSearch differently from the
 * dse workload: many small predicated searches behind a rule memo
 * instead of a few large ones.
 */

#include <memory>

#include "bench.hh"
#include "coevo/arms_race.hh"
#include "common/rng.hh"
#include "common/thread_pool.hh"
#include "devices/database.hh"
#include "policy/param_rule.hh"

namespace perfbench {
namespace {

using namespace acs;

std::string
hex64(std::uint64_t v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

class CoevoWorkload final : public Workload
{
  public:
    explicit CoevoWorkload(const Options &opts) : opts_(opts) {}

    void
    setup() override
    {
        // The device catalogue and the canonical rules the regulator
        // starts from.
        db_ = std::make_unique<devices::Database>();
        specs_ = db_->allSpecs();
        rules_ = {policy::ParamRule::oct2022(), policy::ParamRule::oct2023(),
                  policy::ParamRule::combined()};
        for (const policy::ParamRule &rule : rules_)
            rule.validate();

        // Frontier budgets: the seed jitters three budget levels.
        Rng rng(opts_.seed * 0x9e3779b97f4a7c15ULL + 11);
        budgets_.clear();
        for (const double level : {0.05, 0.10, 0.20}) {
            budgets_.push_back(level * (0.9 + 0.2 * rng.uniform()));
            if (opts_.tiny)
                break;
        }
    }

    void
    run(Samples &samples, Outputs &out) override
    {
        // Independent single-threaded tasks fanned over the shared
        // pool, frontier budgets first (each is two races): fine-grained
        // waves of one race at a time left the repetition's wall time
        // at the mercy of the slowest CPU of the moment.
        const std::size_t n = budgets_.size() + 2;
        std::vector<std::vector<coevo::FrontierPoint>> fronts(
            budgets_.size());
        std::vector<double> seconds(n);
        const auto t0 = Clock::now();
        common::ThreadPool::shared().parallelFor(
            n,
            [&](std::size_t k) {
                const auto k0 = Clock::now();
                if (k < budgets_.size()) {
                    coevo::ArmsRace race(
                        config(coevo::Mechanism::THRESHOLD, 1));
                    fronts[k] = race.frontier({budgets_[k]});
                } else {
                    const std::size_t i = k - budgets_.size();
                    coevo::ArmsRace race(config(
                        i ? coevo::Mechanism::FIRMWARE
                          : coevo::Mechanism::THRESHOLD,
                        1));
                    last_[i] = race.run();
                }
                seconds[k] = secondsSince(k0);
            },
            1);
        const double wall = secondsSince(t0);
        for (std::size_t k = 0; k < n; ++k) {
            samples.add(k < budgets_.size() ? "coevo.frontier_s"
                                            : "coevo.race_s",
                        "s", seconds[k]);
        }
        // A frontier task runs one race per mechanism.
        samples.add("coevo.races_per_s", "1/s",
                    static_cast<double>(2 * budgets_.size() + 2) / wall);
        for (std::size_t k = 0; k < fronts.size(); ++k)
            recordFrontier(k, fronts[k], out);
        for (const coevo::ArmsRaceResult &res : last_)
            recordRace(res, out);
    }

    const char *headline() const override { return "coevo.races_per_s"; }

    void
    verify(Checks &checks) override
    {
        // The regulator always may hold, so escaped performance never
        // rises from one round to the next.
        for (const coevo::ArmsRaceResult &res : last_) {
            bool monotone = !res.rounds.empty();
            for (std::size_t i = 1; i < res.rounds.size(); ++i)
                monotone = monotone &&
                           res.rounds[i].designer.escapedPerf <=
                               res.rounds[i - 1].designer.escapedPerf;
            checks.expect(monotone,
                          coevo::toString(res.config.mechanism) +
                              " race: escaped performance non-increasing");
            checks.expect(res.roundsToFixedPoint >= 0,
                          coevo::toString(res.config.mechanism) +
                              " race reaches a fixed point");
        }
        // The canonical rules classify the catalogue as ParamRule's
        // bit-exact twins of the Oct-2022 / Oct-2023 rules do.
        std::size_t mismatches = 0;
        for (const policy::DeviceSpec &spec : specs_) {
            mismatches += rules_[0].classify(spec) !=
                          policy::Oct2022Rule::classify(spec);
            mismatches += rules_[1].classify(spec) !=
                          policy::Oct2023Rule::classify(spec);
        }
        checks.expect(mismatches == 0,
                      "ParamRule::oct2022/oct2023 match the canonical rules "
                      "on the device catalogue");
    }

    double
    replay(Tracer &tracer, Outputs &out) override
    {
        const auto r0 = Clock::now();
        {
            const Tracer::Scope span(tracer, "devices.db");
            db_ = std::make_unique<devices::Database>();
            specs_ = db_->allSpecs();
        }
        {
            const Tracer::Scope span(tracer, "policy.param_rule");
            std::size_t regulated = 0;
            for (const policy::ParamRule &rule : rules_)
                for (const policy::DeviceSpec &spec : specs_)
                    regulated += policy::isRegulated(rule.classify(spec));
            tracer.metric("policy.param_rule.regulated", "count",
                          static_cast<double>(regulated));
        }

        // The races: one fused call each. Designer best responses and
        // collateral-damage scans are timed on the canonical rules.
        double responses = 0.0, evaluated = 0.0, points = 0.0;
        for (const coevo::Mechanism m :
             {coevo::Mechanism::THRESHOLD, coevo::Mechanism::FIRMWARE}) {
            tracer.beginOp();
            const Tracer::Scope span(tracer, "coevo.race");
            coevo::ArmsRace race(config(m, 1));
            const coevo::ArmsRaceResult res = race.run();
            responses += static_cast<double>(res.bestResponses);
            evaluated += static_cast<double>(res.totalEvaluated);
            points += static_cast<double>(res.totalSpacePoints);
            recordRace(res, out);
        }
        for (std::size_t k = 0; k < budgets_.size(); ++k) {
            tracer.beginOp();
            const Tracer::Scope span(tracer, "coevo.frontier");
            coevo::ArmsRace race(config(coevo::Mechanism::THRESHOLD, 1));
            recordFrontier(k, race.frontier({budgets_[k]}), out);
        }
        coevo::ArmsRace probe(config(coevo::Mechanism::THRESHOLD, 1));
        for (const policy::ParamRule &rule : rules_) {
            tracer.beginOp();
            {
                const Tracer::Scope span(tracer, "coevo.designer");
                probe.designerResponse(rule);
            }
            const Tracer::Scope span(tracer, "coevo.collateral");
            probe.collateralDamage(rule);
        }
        const double decomposed = secondsSince(r0);

        const auto self = [&](const char *name) {
            return tracer.selfSeconds(name);
        };
        const auto per_call = [&](const char *name) {
            const std::size_t n = tracer.calls(name);
            return n ? self(name) / static_cast<double>(n) : 0.0;
        };
        tracer.metric("coevo.race.self_s", "s", self("coevo.race"));
        tracer.metric("coevo.frontier.self_s", "s", self("coevo.frontier"));
        tracer.metric("coevo.designer_s", "s", per_call("coevo.designer"));
        tracer.metric("coevo.collateral_s", "s",
                      per_call("coevo.collateral"));
        tracer.metric("coevo.best_responses", "count", responses);
        tracer.metric("coevo.evaluated_fraction", "ratio",
                      points > 0 ? evaluated / points : 0.0);
        tracer.metric("policy.param_rule_s", "s", self("policy.param_rule"));
        tracer.metric("devices.db_s", "s", self("devices.db"));
        return decomposed;
    }

    double
    fusedSerial() override
    {
        // The replay's calls, untraced, on one thread.
        const auto t0 = Clock::now();
        const devices::Database db;
        const std::vector<policy::DeviceSpec> specs = db.allSpecs();
        std::size_t regulated = 0;
        for (const policy::ParamRule &rule : rules_)
            for (const policy::DeviceSpec &spec : specs)
                regulated += policy::isRegulated(rule.classify(spec));
        for (const coevo::Mechanism m :
             {coevo::Mechanism::THRESHOLD, coevo::Mechanism::FIRMWARE})
            coevo::ArmsRace(config(m, 1)).run();
        for (const double budget : budgets_)
            coevo::ArmsRace(config(coevo::Mechanism::THRESHOLD, 1))
                .frontier({budget});
        coevo::ArmsRace probe(config(coevo::Mechanism::THRESHOLD, 1));
        for (const policy::ParamRule &rule : rules_) {
            probe.designerResponse(rule);
            probe.collateralDamage(rule);
        }
        volatile std::size_t keep = regulated;
        (void)keep;
        return secondsSince(t0);
    }

  private:
    static coevo::ArmsRaceConfig
    config(coevo::Mechanism m, unsigned threads)
    {
        coevo::ArmsRaceConfig cfg;
        cfg.mechanism = m;
        cfg.threads = threads;
        return cfg;
    }

    static void
    recordRace(const coevo::ArmsRaceResult &res, Outputs &out)
    {
        const coevo::RoundRecord &last = res.rounds.back();
        out["fixed.race." + coevo::toString(res.config.mechanism)] =
            hex64(res.fingerprint()) + " rounds " +
            std::to_string(res.rounds.size()) + " fixed " +
            std::to_string(res.roundsToFixedPoint) + " escaped " +
            exact(last.designer.escapedPerf);
    }

    static void
    recordFrontier(std::size_t k,
                   const std::vector<coevo::FrontierPoint> &points,
                   Outputs &out)
    {
        for (std::size_t i = 0; i < points.size(); ++i) {
            const coevo::FrontierPoint &p = points[i];
            out["frontier." + std::to_string(k) + "." + std::to_string(i)] =
                coevo::toString(p.mechanism) + " " + exact(p.budget) + " " +
                exact(p.collateral) + " " + exact(p.escapedPerf) + " " +
                p.ruleDesc;
        }
    }

    Options opts_;
    std::unique_ptr<devices::Database> db_;
    std::vector<policy::DeviceSpec> specs_;
    std::vector<policy::ParamRule> rules_;
    std::vector<double> budgets_;
    coevo::ArmsRaceResult last_[2];
};

} // anonymous namespace

std::unique_ptr<Workload>
makeCoevo(const Options &opts)
{
    return std::make_unique<CoevoWorkload>(opts);
}

} // namespace perfbench
