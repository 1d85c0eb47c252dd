/**
 * @file
 * Workload "serve": the request-level serving stack, in three parts.
 *
 *  1. sim::simulateReplica over streaming TraceWorkload::diurnal
 *     traces: Llama 3 70B, TP=4, modeled A100, recording off. Prompt
 *     and output lengths are uniform over a wide range, so the
 *     IterationCostModel memo (fresh every repetition, shared by the
 *     simulations) takes misses.
 *  2. sim::simulateCluster — an A100 prefill pool and an H20 decode
 *     pool, phase-affinity routing, nonzero KV-transfer cost —
 *     replaying seed-generated traces through TraceWorkload::fromCsv
 *     over in-memory CSV text: the CLI `serve-sim --fleet ... --trace=`
 *     path.
 *  3. serve::planDisaggFleetPercentile (sim::sizeFleet then
 *     sim::sizeDisaggFleet) at a stated demand.
 *
 * The offered loads sit well inside what the simulated replica and
 * cluster sustain, so queues stay bounded; the simulated p99 TTFT and
 * the peak queue depth are checked, never reported as metrics.
 *
 * Parts 1 and 2 run TRACES independent simulations each (seed
 * substreams), fanned over the shared thread pool the way the serving
 * benches fan out their grids; one simulation is single-threaded, and
 * spreading several over every CPU keeps a repetition's wall time from
 * hanging on one noisy core.
 *
 * Why: it loads sim event/replica/cluster/trace/fleet, and perf only
 * through cost-model misses.
 */

#include <cmath>
#include <memory>
#include <sstream>

#include "bench.hh"
#include "common/rng.hh"
#include "common/thread_pool.hh"
#include "core/study.hh"
#include "serve/percentile.hh"
#include "sim/cluster.hh"
#include "sim/fleet.hh"
#include "sim/trace.hh"

namespace perfbench {
namespace {

using namespace acs;

/** Independent replica and cluster simulations per repetition. */
constexpr std::size_t TRACES = 8;

/** FNV-1a of a string, as 16 hex digits. */
std::string
fnv(const std::string &s)
{
    std::uint64_t h = 14695981039346656037ull;
    for (const unsigned char c : s) {
        h ^= c;
        h *= 1099511628211ull;
    }
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

std::string
histDigest(const sim::LatencyHistogram &h)
{
    std::ostringstream out;
    out << h.count << ' ' << exact(h.sumS) << ' ' << exact(h.maxS);
    for (const std::uint64_t b : h.buckets)
        out << ' ' << b;
    return fnv(out.str());
}

class ServeWorkload final : public Workload
{
  public:
    explicit ServeWorkload(const Options &opts) : opts_(opts) {}

    void
    setup() override
    {
        workload_ = core::workloadByName("llama70b");
        workload_.setting.batch = 32;
        a100_ = hw::modeledA100();
        h20_ = hw::presetByName("h20");
        slo_.ttftMaxS = 5.0;
        slo_.tbtMaxS = 0.200;

        // Replica traces: diurnal days at about a third of the
        // replica's decode-bound capacity.
        const sim::IterationCostModel probe =
            study_.makeCostModel(a100_, workload_);
        sim::DiurnalTraceSpec spec;
        spec.promptLen = sim::LengthDistribution::uniform(128, 2048, 16);
        spec.outputLen = sim::LengthDistribution::uniform(32, 480, 16);
        const double capacity = 32.0 / probe.decodeStepS(32) /
                                spec.outputLen.meanLen();
        spec.baseRatePerS = 0.3 * capacity;
        spec.peakToTrough = 2.0;
        spec.burstMultiplier = 1.5;
        spec.burstMeanS = 20.0;
        spec.calmMeanS = 300.0;
        const double requests = opts_.tiny ? 500.0 : 40000.0;
        spec.horizonS = requests / spec.baseRatePerS;
        spec.periodS = spec.horizonS / 2.0;
        specs_.assign(TRACES, spec);
        for (std::size_t k = 0; k < TRACES; ++k)
            specs_[k].seed = sim::substreamSeed(opts_.seed, k);

        // Cluster traces: Poisson arrivals as CSV text.
        csvText_.assign(TRACES, {});
        for (std::size_t k = 0; k < TRACES; ++k) {
            Rng rng(sim::substreamSeed(opts_.seed, TRACES + k));
            const std::uint64_t rows = csvRows();
            const double rate = 0.6 * capacity;
            std::ostringstream csv;
            csv << "arrival_s,prompt_len,output_len\n";
            double t = 0.0;
            for (std::uint64_t i = 0; i < rows; ++i) {
                t += -std::log(1.0 - rng.uniform()) / rate;
                csv << t << ',' << 128 + rng.below(1921) << ','
                    << 32 + rng.below(449) << '\n';
            }
            csvText_[k] = csv.str();
        }

        demand_ = sim::FleetDemand{};
        demand_.ratePerS = 4.0;
        demand_.promptLen = sim::LengthDistribution::fixed(512);
        demand_.outputLen = sim::LengthDistribution::fixed(128);
        demand_.horizonS = opts_.tiny ? 30.0 : 180.0;
        demand_.seed = opts_.seed;
        pslo_.ttftP99MaxS = 5.0;
        pslo_.tbtP99MaxS = 0.200;
    }

    void
    run(Samples &samples, Outputs &out) override
    {
        // Fresh cost oracles: every repetition pays its memo misses.
        const sim::IterationCostModel a100 =
            study_.makeCostModel(a100_, workload_);
        const sim::IterationCostModel h20 =
            study_.makeCostModel(h20_, workload_);

        common::ThreadPool &workers = common::ThreadPool::shared();
        std::vector<sim::ReplicaMetrics> rms(TRACES);
        auto t0 = Clock::now();
        workers.parallelFor(
            TRACES, [&](std::size_t k) { rms[k] = replica(a100, diurnal(k)); },
            1);
        const double replica_s = secondsSince(t0);
        double completed = 0.0;
        for (std::size_t k = 0; k < TRACES; ++k) {
            completed += static_cast<double>(rms[k].completed);
            recordReplica(k, rms[k], out);
        }
        samples.add("serve.replica_requests_per_s", "1/s",
                    completed / replica_s);

        std::vector<sim::ClusterMetrics> cms(TRACES);
        t0 = Clock::now();
        workers.parallelFor(
            TRACES,
            [&](std::size_t k) { cms[k] = cluster(a100, h20, csvTrace(k)); },
            1);
        const double cluster_s = secondsSince(t0);
        completed = 0.0;
        for (std::size_t k = 0; k < TRACES; ++k) {
            completed += static_cast<double>(cms[k].completedRequests);
            recordCluster(k, cms[k], out);
        }
        samples.add("serve.cluster_requests_per_s", "1/s",
                    completed / cluster_s);

        t0 = Clock::now();
        const serve::DisaggPercentilePlan plan =
            serve::planDisaggFleetPercentile(pool(a100), pool(h20), kv(),
                                             demand_, pslo_, 512);
        samples.add("serve.fleet_sizing_s", "s", secondsSince(t0));
        recordPlan(plan.monolithic, plan.disagg, out);
    }

    const char *headline() const override
    {
        return "serve.replica_requests_per_s";
    }

    void
    verify(Checks &checks) override
    {
        const sim::IterationCostModel a100 =
            study_.makeCostModel(a100_, workload_);
        // A sustained load: bounded simulated p99 TTFT and queue depth.
        const sim::ReplicaMetrics rm = replica(a100, diurnal(0));
        const double p99 = rm.ttftHist.percentileS(99.0);
        checks.expect(p99 < 10.0, "replica p99 TTFT " + std::to_string(p99) +
                                      " s (expected < 10 s)");
        checks.expect(rm.queueDepth.maxDepth < 256,
                      "replica peak queue depth " +
                          std::to_string(rm.queueDepth.maxDepth));
        checks.expect(rm.completed == rm.arrivals,
                      "replica completes every request");
        const sim::IterationCostModel h20 =
            study_.makeCostModel(h20_, workload_);
        const sim::ClusterMetrics cm = cluster(a100, h20, csvTrace(0));
        const double cluster_p99 = cm.ttftPercentileS(99.0);
        checks.expect(cluster_p99 < 10.0,
                      "cluster p99 TTFT " + std::to_string(cluster_p99) +
                          " s (expected < 10 s)");
        checks.expect(cm.completedRequests == csvRows() &&
                          cm.kvTransfers == csvRows(),
                      "cluster completes and migrates every request");

        // Zero-cost batch-1 disaggregation == the monolithic replica.
        const std::vector<sim::TraceRequest> schedule = {
            {0.0, 512, 32}, {1000.0, 512, 32}, {2000.0, 512, 32}};
        const auto mono_trace = sim::TraceWorkload::fixedSchedule(schedule);
        const sim::ReplicaMetrics mono =
            sim::simulateReplica(a100, sim::SchedulerConfig{}, *mono_trace);
        sim::ClusterConfig ccfg;
        ccfg.pools.resize(2);
        ccfg.pools[0].name = "prefill";
        ccfg.pools[0].role = sim::PoolRole::PREFILL;
        ccfg.pools[0].cost = &a100;
        ccfg.pools[1].name = "decode";
        ccfg.pools[1].role = sim::PoolRole::DECODE;
        ccfg.pools[1].cost = &a100;
        ccfg.kvTransfer = sim::KvTransferConfig::free();
        const auto disagg_trace = sim::TraceWorkload::fixedSchedule(schedule);
        const sim::ClusterMetrics disagg =
            sim::simulateCluster(ccfg, *disagg_trace);
        checks.expect(mono.ttft().meanS == disagg.aggregate.ttft().meanS &&
                          mono.ttft().p99S == disagg.aggregate.ttft().p99S &&
                          mono.tbt().meanS == disagg.aggregate.tbt().meanS &&
                          mono.tbt().p99S == disagg.aggregate.tbt().p99S,
                      "zero-cost batch-1 disaggregation equals the "
                      "monolithic replica");
    }

    double
    replay(Tracer &tracer, Outputs &out) override
    {
        const auto r0 = Clock::now();
        std::unique_ptr<sim::IterationCostModel> a100, h20;
        {
            const Tracer::Scope span(tracer, "sim.cost_model.build");
            a100 = std::make_unique<sim::IterationCostModel>(
                a100_, workload_.model, workload_.setting,
                workload_.system, study_.params());
            h20 = std::make_unique<sim::IterationCostModel>(
                h20_, workload_.model, workload_.setting, workload_.system,
                study_.params());
        }

        // Part 1: trace generation, then the event loop over the
        // materialized schedule — once with a cold memo, once warm.
        double warm_s = 0.0, events = 0.0;
        for (std::size_t k = 0; k < TRACES; ++k) {
            tracer.beginOp();
            std::vector<sim::TraceRequest> requests;
            {
                const Tracer::Scope span(tracer, "sim.trace.gen");
                requests = drain(*diurnal(k));
            }
            sim::ReplicaMetrics rm;
            {
                const Tracer::Scope span(tracer, "sim.replica.cold");
                rm = replica(*a100, sim::TraceWorkload::fixedSchedule(
                                        requests));
            }
            recordReplica(k, rm, out);
            const auto c0 = Clock::now();
            {
                const Tracer::Scope span(tracer, "sim.replica");
                rm = replica(*a100, sim::TraceWorkload::fixedSchedule(
                                        std::move(requests)));
            }
            warm_s += secondsSince(c0);
            events += static_cast<double>(rm.arrivals + rm.prefillIterations +
                                          rm.decodeIterations);
        }
        // Misses of the whole part: cold runs pay them, warm runs not.
        const double misses = static_cast<double>(a100->memoMisses());

        // Memo hit and miss cost, on keys known to hit (decode steps of
        // every batch size, already warm) and known to miss (a fresh
        // oracle).
        double sink = 0.0;
        const auto h0 = Clock::now();
        const int hit_calls = 32 * 2000;
        for (int i = 0; i < hit_calls; ++i)
            sink += a100->decodeStepS(1 + i % 32);
        const double hit_s = secondsSince(h0);
        const bool all_hits = a100->memoMisses() == misses;
        const sim::IterationCostModel fresh =
            study_.makeCostModel(a100_, workload_);
        const auto m0 = Clock::now();
        for (int b = 1; b <= 32; ++b)
            sink += fresh.decodeStepS(b) + fresh.prefillS(1 + b % 4, 64 * b);
        const double miss_s = secondsSince(m0);
        const double per_miss =
            miss_s / static_cast<double>(std::max<std::size_t>(
                         1, fresh.memoMisses()));

        // Part 2: CSV parse, then the cluster over the parsed trace.
        double kv_transfers = 0.0;
        for (std::size_t k = 0; k < TRACES; ++k) {
            tracer.beginOp();
            std::vector<sim::TraceRequest> requests;
            {
                const Tracer::Scope span(tracer, "sim.trace.csv_parse");
                requests = drain(*csvTrace(k));
            }
            sim::ClusterMetrics cm;
            {
                const Tracer::Scope span(tracer, "sim.cluster");
                cm = cluster(*a100, *h20,
                             sim::TraceWorkload::fixedSchedule(
                                 std::move(requests)));
            }
            kv_transfers += static_cast<double>(cm.kvTransfers);
            recordCluster(k, cm, out);
        }

        // Part 3: the plan's two searches, called directly.
        tracer.beginOp();
        sim::FleetSizingResult mono;
        sim::DisaggFleetPlan disagg;
        {
            const Tracer::Scope span(tracer, "serve.plan");
            const sim::DisaggPoolSpec prefill = pool(*a100);
            const sim::DisaggPoolSpec decode = pool(*h20);
            prefill.validate();
            decode.validate();
            demand_.validate();
            pslo_.validate();
            {
                const Tracer::Scope s(tracer, "sim.fleet");
                mono = sim::sizeFleet(*a100, demand_, prefill.scheduler,
                                      pslo_.targets(), 512);
            }
            {
                const Tracer::Scope s(tracer, "sim.fleet");
                disagg = sim::sizeDisaggFleet(
                    prefill, decode, kv(), demand_, pslo_.targets(),
                    sim::RoutingPolicyKind::JOIN_SHORTEST_QUEUE, 512);
            }
        }
        recordPlan(mono, disagg, out);
        const double decomposed = secondsSince(r0) - hit_s - miss_s;

        const auto self = [&](const char *name) {
            return tracer.selfSeconds(name);
        };
        const double probes =
            static_cast<double>(mono.probes + disagg.probes);
        tracer.metric("sim.trace.gen_s", "s", self("sim.trace.gen"));
        tracer.metric("sim.trace.csv_parse_s", "s",
                      self("sim.trace.csv_parse"));
        tracer.metric("sim.replica.self_s", "s", self("sim.replica"));
        tracer.metric("sim.events", "count", events);
        tracer.metric("sim.events_per_s", "1/s",
                      warm_s > 0 ? events / warm_s : 0.0);
        tracer.metric("sim.cost_model.misses", "count", misses);
        tracer.metric("sim.cost_model.miss_s", "s", misses * per_miss);
        tracer.metric("sim.cost_model.miss_ns", "ns", 1e9 * per_miss);
        tracer.metric("sim.cost_model.hit_ns", "ns",
                      all_hits ? 1e9 * hit_s / hit_calls : 0.0);
        tracer.metric("sim.cluster.self_s", "s", self("sim.cluster"));
        tracer.metric("sim.cluster.kv_transfers", "count", kv_transfers);
        tracer.metric("sim.fleet.probes", "count", probes);
        tracer.metric("sim.fleet.probe_s", "s",
                      probes > 0 ? self("sim.fleet") / probes : 0.0);
        tracer.metric("serve.plan_s", "s", self("serve.plan"));
        volatile double keep = sink;
        (void)keep;
        return decomposed;
    }

    double
    fusedSerial() override
    {
        // The replay's calls undecomposed: each replica trace twice
        // (cold memo, then warm), the clusters, the plan.
        const auto t0 = Clock::now();
        const sim::IterationCostModel a100 =
            study_.makeCostModel(a100_, workload_);
        const sim::IterationCostModel h20 =
            study_.makeCostModel(h20_, workload_);
        for (std::size_t k = 0; k < TRACES; ++k) {
            replica(a100, diurnal(k));
            replica(a100, diurnal(k));
        }
        for (std::size_t k = 0; k < TRACES; ++k)
            cluster(a100, h20, csvTrace(k));
        serve::planDisaggFleetPercentile(pool(a100), pool(h20), kv(),
                                         demand_, pslo_, 512);
        return secondsSince(t0);
    }

  private:
    /** Requests per cluster trace. */
    std::uint64_t
    csvRows() const
    {
        return opts_.tiny ? 200 : 10000;
    }

    std::unique_ptr<sim::TraceWorkload>
    diurnal(std::size_t k) const
    {
        return sim::TraceWorkload::diurnal(specs_[k]);
    }

    std::unique_ptr<sim::TraceWorkload>
    csvTrace(std::size_t k) const
    {
        return sim::TraceWorkload::fromCsv(
            std::make_unique<std::istringstream>(csvText_[k]),
            "bench-trace-" + std::to_string(k));
    }

    static std::vector<sim::TraceRequest>
    drain(sim::TraceWorkload &trace)
    {
        std::vector<sim::TraceRequest> out;
        sim::TraceRequest r;
        while (trace.next(r))
            out.push_back(r);
        return out;
    }

    static sim::ReplicaMetrics
    replica(const sim::IterationCostModel &cost,
            std::unique_ptr<sim::TraceWorkload> trace)
    {
        sim::ReplicaConfig rc;
        rc.recordRequests = false;
        rc.recordTbtGaps = false;
        return sim::simulateReplica(cost, rc, *trace);
    }

    sim::ClusterMetrics
    cluster(const sim::IterationCostModel &a100,
            const sim::IterationCostModel &h20,
            std::unique_ptr<sim::TraceWorkload> trace) const
    {
        sim::ClusterConfig cfg;
        cfg.pools.resize(2);
        cfg.pools[0].name = "a100";
        cfg.pools[0].role = sim::PoolRole::PREFILL;
        cfg.pools[0].cost = &a100;
        cfg.pools[0].replicas = 2;
        cfg.pools[1].name = "h20";
        cfg.pools[1].role = sim::PoolRole::DECODE;
        cfg.pools[1].cost = &h20;
        cfg.pools[1].replicas = 2;
        cfg.kvTransfer = kv();
        cfg.routing = sim::RoutingPolicyKind::PHASE_AFFINITY;
        cfg.slo = slo_;
        cfg.recordRequests = false;
        cfg.recordTbtGaps = false;
        return sim::simulateCluster(cfg, *trace);
    }

    static sim::KvTransferConfig
    kv()
    {
        sim::KvTransferConfig k;
        k.latencyS = 2e-3;
        k.bandwidthBytesPerS = 50e9;
        return k;
    }

    static sim::DisaggPoolSpec
    pool(const sim::IterationCostModel &cost)
    {
        sim::DisaggPoolSpec p;
        p.cost = &cost;
        return p;
    }

    void
    recordReplica(std::size_t k, const sim::ReplicaMetrics &m,
                  Outputs &out) const
    {
        out["replica." + std::to_string(k)] =
            std::to_string(m.completed) + " " +
            std::to_string(m.generatedTokens) + " p99ttft " +
            exact(m.ttftHist.percentileS(99.0)) + " p99tbt " +
            exact(m.tbtHist.percentileS(99.0)) + " attain " +
            exact(m.attainment(slo_)) + " depth " +
            std::to_string(m.queueDepth.maxDepth) + " ttft " +
            histDigest(m.ttftHist) + " tbt " + histDigest(m.tbtHist);
    }

    static void
    recordCluster(std::size_t k, const sim::ClusterMetrics &m, Outputs &out)
    {
        out["cluster." + std::to_string(k)] =
            std::to_string(m.completedRequests) + " kv " +
            std::to_string(m.kvTransfers) + " p99ttft " +
            exact(m.ttftPercentileS(99.0)) + " p99tbt " +
            exact(m.tbtPercentileS(99.0)) + " attain " +
            exact(m.attainment()) + " ttft " + histDigest(m.ttftHist) +
            " tbt " + histDigest(m.tbtHist);
    }

    static void
    recordPlan(const sim::FleetSizingResult &mono,
               const sim::DisaggFleetPlan &disagg, Outputs &out)
    {
        out["fleet"] = std::to_string(mono.replicas) + " " +
                       std::to_string(mono.probes) + " disagg " +
                       std::to_string(disagg.prefillReplicas) + "+" +
                       std::to_string(disagg.decodeReplicas) + " " +
                       std::to_string(disagg.probes) + " p99ttft " +
                       exact(disagg.aggregate.ttftPercentileS(99.0));
    }

    Options opts_;
    core::SanctionsStudy study_;
    core::Workload workload_;
    hw::HardwareConfig a100_;
    hw::HardwareConfig h20_;
    sim::SloTargets slo_;
    std::vector<sim::DiurnalTraceSpec> specs_;
    std::vector<std::string> csvText_;
    sim::FleetDemand demand_;
    serve::PercentileSlo pslo_;
};

} // anonymous namespace

std::unique_ptr<Workload>
makeServe(const Options &opts)
{
    return std::make_unique<ServeWorkload>(opts);
}

} // namespace perfbench
