/**
 * @file
 * Workload "cycle": seeded fig06 (Table 3, 4800 TPP) designs evaluated
 * end to end in GemmMode::CYCLE_SIM with a cold GEMM cache on every
 * repetition — the fig06 --gemm-mode=cycle_sim sweep in miniature.
 *
 * Why: nearly all of its time is in perf/cycle_sim (batched prefill
 * attention, large weight GEMMs, small decode GEMMs), so it is the
 * workload a cycle-engine speed-up must move and the others must not.
 *
 * Inputs: the fig06 space at a seeded device bandwidth (400-900 GB/s,
 * the fine space's 25 GB/s grid). Llama 3 8B gets two designs per
 * outer cell (two L1 sizes, rotated so each appears four times) and
 * GPT-3 175B one per 32x32 outer cell (its 16x16 cells cost seconds
 * per design), with the remaining inner axes (L2 size, HBM bandwidth)
 * rotated across strata so every value appears. The seed moves every design's interconnect, and so
 * its TTFT/TBT, but not its GEMMs: the cycle-engine work of a
 * repetition is the same for every seed, which keeps the rate steady
 * across seeds. A seed-chosen compute sample varied it by ~15%.
 */

#include <memory>

#include "bench.hh"
#include "common/rng.hh"
#include "common/thread_pool.hh"
#include "common/units.hh"
#include "core/study.hh"
#include "replay.hh"

namespace perfbench {
namespace {

using namespace acs;

/** One evaluated model: its workload, evaluator and sampled designs. */
struct CycleSet
{
    std::string label;
    core::Workload workload;
    std::unique_ptr<dse::DesignEvaluator> evaluator;
    std::vector<hw::HardwareConfig> designs;
};

class CycleWorkload final : public Workload
{
  public:
    explicit CycleWorkload(const Options &opts) : opts_(opts)
    {
        params_.gemmMode = perf::GemmMode::CYCLE_SIM;
        params_.gemmCache = &cache_;
    }

    void
    setup() override
    {
        Rng rng(opts_.seed * 0x9e3779b97f4a7c15ULL + 17);
        const double dev_gbps = 400.0 + 25.0 * rng.below(21);
        space_ = dse::table3Space(4800.0, {dev_gbps * units::GBPS});
        plan_ = std::make_unique<dse::SweepPlan>(space_);
        sets_.clear();
        sets_.push_back({"llama", core::llamaWorkload(), nullptr, {}});
        sets_.push_back({"gpt3", core::gpt3Workload(), nullptr, {}});
        for (CycleSet &set : sets_) {
            set.evaluator = std::make_unique<dse::DesignEvaluator>(
                set.workload.model, set.workload.setting,
                set.workload.system, params_);
        }

        // Inner block order is L1 x L2 x HBM bandwidth (one device
        // bandwidth), outermost first.
        const std::size_t n_l2 = space_.l2Bytes.size();
        const std::size_t n_mem = space_.memBandwidths.size();
        const auto inner = [&](std::size_t l1, std::size_t l2,
                               std::size_t mem) {
            return (l1 * n_l2 + l2 % n_l2) * n_mem + mem % n_mem;
        };
        const std::size_t n_l1 = space_.l1BytesPerCore.size();
        for (std::size_t o = 0; o < plan_->outerCount(); ++o) {
            const std::size_t base = o * plan_->innerBlockSize();
            const bool tiny_cell = o == 4;
            for (const std::size_t l1 : {o % n_l1, (o + 2) % n_l1}) {
                if (opts_.tiny && (!tiny_cell || l1 != o % n_l1))
                    continue;
                sets_[0].designs.push_back(
                    plan_->point(base + inner(l1, l1 + o, l1 + 2 * o)));
            }
            const bool dim32 = plan_->point(base).systolicDimX == 32;
            if (dim32 && (!opts_.tiny || tiny_cell))
                sets_[1].designs.push_back(
                    plan_->point(base + inner(o % 4, o + 1, o + 2)));
        }
    }

    void
    run(Samples &samples, Outputs &out) override
    {
        // One cold GEMM cache per repetition, shared by its designs;
        // the designs run as one batch over the shared pool, costliest
        // first, so no thread is left finishing a long design alone.
        cache_.clear();
        const std::vector<Task> tasks = schedule();
        std::vector<dse::EvaluatedDesign> evaluated(tasks.size());
        const auto t0 = Clock::now();
        common::ThreadPool::shared().parallelFor(
            tasks.size(),
            [&](std::size_t k) {
                const Task &t = tasks[k];
                evaluated[k] = t.set->evaluator->evaluate(t.set->designs[t.i]);
            },
            1);
        samples.add("cycle.designs_per_s", "1/s",
                    static_cast<double>(tasks.size()) / secondsSince(t0));
        for (std::size_t k = 0; k < tasks.size(); ++k)
            record(*tasks[k].set, tasks[k].i, evaluated[k].ttftS,
                   evaluated[k].tbtS, out);
    }

    const char *headline() const override { return "cycle.designs_per_s"; }

    void
    verify(Checks &checks) override
    {
        // The cross-mode bound docs/PERF.md documents: CYCLE_SIM TTFT
        // within 0.998-1.002 of TILE_SIM on the sampled designs its
        // measurement used (Table 3 at 2400 TPP, Llama 3 8B, TP=1,
        // six designs at an even stride).
        core::Workload tp1 = core::llamaWorkload();
        tp1.system.tensorParallel = 1;
        perf::PerfParams tile;
        tile.gemmMode = perf::GemmMode::TILE_SIM;
        const dse::DesignEvaluator cyc(tp1.model, tp1.setting, tp1.system,
                                       params_);
        const dse::DesignEvaluator til(tp1.model, tp1.setting, tp1.system,
                                       tile);
        const auto space =
            dse::table3Space(2400.0, {600.0 * units::GBPS}).generate();
        std::vector<hw::HardwareConfig> sample;
        for (std::size_t i = 0; i < space.size(); i += space.size() / 6) {
            if (!opts_.tiny || sample.empty())
                sample.push_back(space[i]);
        }
        const auto c = cyc.evaluateAllParallel(sample, opts_.threads);
        const auto t = til.evaluateAllParallel(sample, opts_.threads);
        // The documented range is given to three decimals, so a ratio
        // passes when it rounds into it.
        for (std::size_t i = 0; i < sample.size(); ++i) {
            const double ratio = c[i].ttftS / t[i].ttftS;
            checks.expect(ratio >= 0.9975 && ratio < 1.0025,
                          "cycle/tile TTFT " + std::to_string(ratio) +
                              " outside 0.998-1.002 on " + sample[i].name);
        }

        // Cache on == cache off on one design.
        perf::PerfParams uncached = params_;
        uncached.gemmCache = nullptr;
        uncached.cacheTileSimGemms = false;
        const CycleSet &set = sets_[0];
        const dse::DesignEvaluator plain(set.workload.model,
                                         set.workload.setting,
                                         set.workload.system, uncached);
        const hw::HardwareConfig &cfg = set.designs.front();
        const auto cached = set.evaluator->evaluateAll({cfg, cfg});
        const auto off = plain.evaluate(cfg);
        checks.expect(cached[0].ttftS == off.ttftS &&
                          cached[0].tbtS == off.tbtS &&
                          cached[1].ttftS == off.ttftS,
                      "GemmCache on equals off on " + cfg.name);
    }

    double
    replay(Tracer &tracer, Outputs &out) override
    {
        GemmReplay gemms(params_);
        double decomposed = 0.0;
        for (CycleSet &set : sets_) {
            const int tp = set.workload.system.tensorParallel;
            model::LayerGraph prefill, decode;
            {
                const Tracer::Scope span(tracer, "model.graph");
                prefill = model::buildPrefillGraph(
                    set.workload.model, set.workload.setting, tp);
                decode = model::buildDecodeGraph(
                    set.workload.model, set.workload.setting, tp);
            }
            const auto r0 = Clock::now();
            for (std::size_t i = 0; i < set.designs.size(); ++i) {
                tracer.beginOp();
                const hw::HardwareConfig &cfg = set.designs[i];
                const Tracer::Scope span(tracer, "perf.scalar.run");
                const double ttft =
                    replayLayer(tracer, cfg, prefill, tp, false, gemms);
                const double tbt =
                    replayLayer(tracer, cfg, decode, tp, true, gemms);
                record(set, i, ttft, tbt, out);
            }
            decomposed += secondsSince(r0);
        }

        const double attn = tracer.selfSeconds("perf.cycle.attn");
        const double weight = tracer.selfSeconds("perf.cycle.weight");
        const double dec = tracer.selfSeconds("perf.cycle.decode");
        const double all = attn + weight + dec;
        const perf::CycleStats &sum = gemms.totals;
        tracer.metric("perf.cycle.gemm_s", "s", all);
        tracer.metric("perf.cycle.attn_s", "s", attn);
        tracer.metric("perf.cycle.weight_s", "s", weight);
        tracer.metric("perf.cycle.decode_s", "s", dec);
        tracer.metric("perf.cycle.gemms", "count",
                      static_cast<double>(gemms.gemmSeconds.size()));
        countPercentiles(tracer, "perf.cycle.gemm", gemms.gemmSeconds);
        tracer.metric("perf.cycle.events", "count",
                      static_cast<double>(sum.events));
        tracer.metric("perf.cycle.ns_per_event", "ns",
                      sum.events ? 1e9 * all / sum.events : 0.0);
        tracer.metric("perf.cycle.replay_fraction", "ratio",
                      sum.totalTiles ? static_cast<double>(sum.replayedTiles) /
                                           sum.totalTiles
                                     : 0.0);
        tracer.metric("perf.cycle.sim_cycles_per_s", "1/s",
                      all > 0 ? static_cast<double>(sum.cycles) / all : 0.0);
        tracer.metric("perf.gemm_cache.entries", "count",
                      static_cast<double>(gemms.cache.stats().entries));
        tracer.metric("perf.gemm_cache.hit_rate", "ratio",
                      gemms.lookups ? static_cast<double>(gemms.hits) /
                                          gemms.lookups
                                    : 0.0);
        tracer.metric("perf.scalar.run_s", "s",
                      tracer.selfSeconds("perf.scalar.run"));
        tracer.metric("model.graph_s", "s", tracer.selfSeconds("model.graph"));
        out["cyclestats"] =
            std::to_string(sum.totalTiles) + " " +
            std::to_string(sum.cycles) + " " + std::to_string(sum.events) +
            " " + std::to_string(sum.replayedTiles) + " " +
            std::to_string(sum.computeBusyCycles) + " " +
            std::to_string(sum.fillStallCycles) + " " +
            std::to_string(sum.dramQueueCycles) + " " +
            std::to_string(sum.l2QueueCycles) + " " +
            std::to_string(sum.spadSerialCycles);
        return decomposed;
    }

    double
    fusedSerial() override
    {
        cache_.clear();
        const auto t0 = Clock::now();
        for (const Task &t : schedule())
            t.set->evaluator->evaluate(t.set->designs[t.i]);
        return secondsSince(t0);
    }

  private:
    /** One design of one set. */
    struct Task
    {
        const CycleSet *set;
        std::size_t i;
    };

    /**
     * Evaluation order, costliest first by the calibrated per-design
     * cost: Llama on 16x16 arrays, then GPT-3, then Llama on 32x32.
     */
    std::vector<Task>
    schedule() const
    {
        std::vector<Task> tasks;
        for (const int pass : {0, 1, 2}) {
            const CycleSet &set = sets_[pass == 1 ? 1 : 0];
            for (std::size_t i = 0; i < set.designs.size(); ++i) {
                const bool small = set.designs[i].systolicDimX < 32;
                if (pass == 1 || small == (pass == 0))
                    tasks.push_back({&set, i});
            }
        }
        return tasks;
    }

    static void
    record(const CycleSet &set, std::size_t i, double ttft, double tbt,
           Outputs &out)
    {
        out[set.label + "." + std::to_string(i)] =
            set.designs[i].name + " " + exact(ttft) + " " + exact(tbt);
    }

    Options opts_;
    perf::GemmCache cache_;
    perf::PerfParams params_;
    dse::SweepSpace space_;
    std::unique_ptr<dse::SweepPlan> plan_;
    std::vector<CycleSet> sets_;
};

} // anonymous namespace

std::unique_ptr<Workload>
makeCycle(const Options &opts)
{
    return std::make_unique<CycleWorkload>(opts);
}

} // namespace perfbench
