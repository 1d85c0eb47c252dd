/**
 * @file
 * Tests for the datacenter-level serving simulator: streaming traces
 * (sim/trace.hh), routing policies (sim/routing.hh), heterogeneous
 * and disaggregated clusters (sim/cluster.hh), and the two-pool
 * sizing search (sim::sizeDisaggFleet).
 *
 * The load-bearing assertions are the equivalence pins: a
 * single-member MONOLITHIC cluster is bit-exact against the replica
 * simulator, and a batch-1 disaggregated run with the zero-cost KV
 * transfer reproduces the monolithic TTFT/TBT double for double —
 * the migration machinery must add exactly nothing.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <iomanip>
#include <memory>
#include <sstream>
#include <vector>

#include "common/logging.hh"
#include "common/thread_pool.hh"
#include "core/study.hh"
#include "hw/presets.hh"
#include "sim/cluster.hh"
#include "sim/fleet.hh"
#include "sim/replica.hh"
#include "sim/routing.hh"
#include "sim/trace.hh"

namespace acs {
namespace sim {
namespace {

// ---- shared fixtures -------------------------------------------------------

/** Llama-8B at TP=4 keeps every simulator call cheap. */
core::Workload
testWorkload()
{
    core::Workload w = core::llamaWorkload();
    w.setting.batch = 1;
    w.setting.inputLen = 512;
    w.setting.outputLen = 64;
    return w;
}

IterationCostModel
testCost(const core::Workload &w,
         const hw::HardwareConfig &cfg = hw::modeledA100())
{
    return IterationCostModel(cfg, w.model, w.setting, w.system);
}

/** Full-precision serialization: any bit difference shows up. */
std::string
fingerprint(const ReplicaMetrics &m)
{
    std::ostringstream os;
    os << std::setprecision(17);
    os << m.arrivals << '/' << m.prefillIterations << '/'
       << m.decodeIterations << '/' << m.generatedTokens << '/'
       << m.lastEventS << '\n';
    for (const RequestRecord &r : m.requests) {
        os << r.id << ',' << r.arrivalS << ',' << r.admitS << ','
           << r.firstTokenS << ',' << r.finishS << ',' << r.promptLen
           << ',' << r.outputLen << '\n';
    }
    for (double g : m.tbtGapsS)
        os << g << '\n';
    for (std::uint64_t b : m.queueDepth.buckets)
        os << b << ' ';
    return os.str();
}

std::string
fingerprint(const ClusterMetrics &m)
{
    std::ostringstream os;
    os << std::setprecision(17);
    os << fingerprint(m.aggregate) << '\n'
       << m.kvTransfers << ',' << m.kvBytesTransferred << ','
       << m.kvTransferTotalS << ',' << m.completedRequests << ','
       << m.sloAttainedRequests << ',' << m.sloAttainedTokens << '\n';
    for (const PoolUsage &p : m.pools) {
        os << p.name << ',' << p.routedPrefill << ',' << p.routedDecode
           << ',' << p.generatedTokens << '\n';
    }
    for (std::uint64_t b : m.ttftHist.buckets)
        os << b << ' ';
    for (std::uint64_t b : m.tbtHist.buckets)
        os << b << ' ';
    return os.str();
}

// ---- traces ----------------------------------------------------------------

TEST(Trace, PoissonMatchesOpenLoopReplicaBitExactly)
{
    const core::Workload w = testWorkload();
    const IterationCostModel cost = testCost(w);
    const LengthDistribution prompt =
        LengthDistribution::uniform(256, 768, 64);
    const LengthDistribution output =
        LengthDistribution::uniform(32, 96, 16);

    ReplicaConfig rc;
    rc.workload.arrivalRatePerS = 1.5;
    rc.workload.promptLen = prompt;
    rc.workload.outputLen = output;
    rc.workload.horizonS = 200.0;
    rc.workload.seed = 17;
    const ReplicaMetrics spec_driven = simulateReplica(cost, rc);

    const auto trace =
        TraceWorkload::poisson(1.5, prompt, output, 200.0, 17);
    const ReplicaMetrics trace_driven =
        simulateReplica(cost, rc.scheduler, *trace);

    // The trace is the open-loop stream in streaming form: identical
    // substream use, so identical arrivals, lengths, and bytes.
    EXPECT_EQ(fingerprint(spec_driven), fingerprint(trace_driven));
}

TEST(Trace, CsvReplayParsesQuantizesAndCounts)
{
    const std::string text = "arrival_s,prompt_len,output_len\n"
                             "0.0,100,20\n"
                             "\n"
                             "1.5,512,64\n"
                             "3.0,1,1\n";
    auto trace = TraceWorkload::fromCsv(
        std::make_unique<std::istringstream>(text), "inline", 16);

    TraceRequest r;
    ASSERT_TRUE(trace->next(r));
    EXPECT_DOUBLE_EQ(r.arrivalS, 0.0);
    EXPECT_EQ(r.promptLen, 112); // 100 rounded up to the quantum
    EXPECT_EQ(r.outputLen, 32);
    ASSERT_TRUE(trace->next(r));
    EXPECT_EQ(r.promptLen, 512);
    ASSERT_TRUE(trace->next(r));
    EXPECT_EQ(r.promptLen, 16); // lengths clamp up to one quantum
    EXPECT_FALSE(trace->next(r));
    EXPECT_EQ(trace->produced(), 3u);
}

TEST(Trace, CsvMalformedRowIsFatal)
{
    // Line 1 may be a header, so the malformed row sits on line 2.
    auto trace = TraceWorkload::fromCsv(
        std::make_unique<std::istringstream>(
            "0.0,16,4\n1.0,not_a_number,4\n"),
        "bad");
    TraceRequest r;
    ASSERT_TRUE(trace->next(r));
    EXPECT_THROW(trace->next(r), FatalError);
}

TEST(Trace, CsvTrimsFieldWhitespace)
{
    auto trace = TraceWorkload::fromCsv(
        std::make_unique<std::istringstream>(" 0.5 ,\t32 , 16\r\n"),
        "inline", 16);
    TraceRequest r;
    ASSERT_TRUE(trace->next(r));
    EXPECT_EQ(r.arrivalS, 0.5);
    EXPECT_EQ(r.promptLen, 32);
    EXPECT_EQ(r.outputLen, 16);
    EXPECT_FALSE(trace->next(r));
}

/** The FatalError message of reading @p text's second row. */
std::string
secondRowError(const std::string &text)
{
    auto trace = TraceWorkload::fromCsv(
        std::make_unique<std::istringstream>("0.0,16,4\n" + text),
        "rows.csv");
    TraceRequest r;
    EXPECT_TRUE(trace->next(r));
    try {
        trace->next(r);
    } catch (const FatalError &e) {
        return e.what();
    }
    ADD_FAILURE() << "accepted: " << text;
    return "";
}

TEST(Trace, CsvRejectsTrailingTextAndExtraFields)
{
    for (const char *row : {"0.2,512,64 trailing", "0.2,512,64,9",
                            "0.2,512", "0.2,512x,64", "0.2,,64",
                            "nan,512,64"}) {
        SCOPED_TRACE(row);
        const std::string err = secondRowError(row);
        EXPECT_NE(err.find("malformed row 2 in 'rows.csv'"),
                  std::string::npos)
            << err;
    }
}

TEST(Trace, CsvRejectsLengthsOutsideInt)
{
    // 4294967809 = 2^32 + 513: a narrowing cast would replay it as a
    // 513-token prompt.
    const std::string err = secondRowError("0.2,4294967809,64");
    EXPECT_NE(err.find("prompt_len: '4294967809' is out of range"),
              std::string::npos)
        << err;
    // INT_MAX parses, but rounding it up to the quantum would not fit.
    const std::string rounded = secondRowError("0.2,16,2147483647");
    EXPECT_NE(rounded.find("output_len: '2147483647' is out of range "
                           "once rounded up"),
              std::string::npos)
        << rounded;
}

TEST(Trace, DiurnalIsSeedDeterministicAndOrdered)
{
    DiurnalTraceSpec spec;
    spec.baseRatePerS = 4.0;
    spec.peakToTrough = 3.0;
    spec.periodS = 300.0;
    spec.burstMultiplier = 4.0;
    spec.burstMeanS = 10.0;
    spec.calmMeanS = 50.0;
    spec.horizonS = 300.0;
    spec.seed = 7;

    const auto drain = [&spec]() {
        auto t = TraceWorkload::diurnal(spec);
        std::ostringstream os;
        os << std::setprecision(17);
        TraceRequest r;
        double last = 0.0;
        while (t->next(r)) {
            EXPECT_GE(r.arrivalS, last);
            EXPECT_LT(r.arrivalS, spec.horizonS);
            last = r.arrivalS;
            os << r.arrivalS << ',' << r.promptLen << ','
               << r.outputLen << '\n';
        }
        return os.str();
    };
    const std::string a = drain();
    EXPECT_EQ(a, drain());
    EXPECT_FALSE(a.empty());

    spec.seed = 8;
    EXPECT_NE(a, drain());
}

TEST(Trace, DiurnalRateEnvelopeHasConfiguredRatio)
{
    DiurnalTraceSpec spec;
    spec.baseRatePerS = 2.0;
    spec.peakToTrough = 3.0;
    spec.periodS = 400.0;
    const double peak = spec.rateAt(spec.periodS / 4, false);
    const double trough = spec.rateAt(3 * spec.periodS / 4, false);
    EXPECT_NEAR(peak / trough, 3.0, 1e-9);
    EXPECT_NEAR((peak + trough) / 2, spec.baseRatePerS, 1e-9);
    // The burst state multiplies the envelope.
    EXPECT_NEAR(spec.rateAt(0.0, true),
                spec.burstMultiplier * spec.rateAt(0.0, false), 1e-12);
}

TEST(Trace, FixedScheduleRejectsUnsortedAndEnforcesOrder)
{
    EXPECT_THROW(TraceWorkload::fixedSchedule(
                     {{1.0, 16, 16}, {0.5, 16, 16}}),
                 FatalError);

    // A source that misbehaves after construction is caught by next().
    class Decreasing : public TraceWorkload
    {
      protected:
        bool produce(TraceRequest &out) override
        {
            out.arrivalS = 10.0 - 5.0 * n_;
            out.promptLen = 16;
            out.outputLen = 16;
            return n_++ < 2;
        }

      private:
        int n_ = 0;
    };
    Decreasing bad;
    TraceRequest r;
    ASSERT_TRUE(bad.next(r));
    EXPECT_THROW(bad.next(r), FatalError);
}

// ---- routing policies ------------------------------------------------------

TEST(Routing, KindNamesRoundTrip)
{
    for (RoutingPolicyKind kind :
         {RoutingPolicyKind::JOIN_SHORTEST_QUEUE,
          RoutingPolicyKind::PHASE_AFFINITY,
          RoutingPolicyKind::COST_WEIGHTED}) {
        EXPECT_EQ(parseRoutingPolicy(toString(kind)), kind);
        EXPECT_EQ(routingPolicy(kind)->name(), toString(kind));
    }
    EXPECT_THROW(parseRoutingPolicy("round-robin"), FatalError);
}

TEST(Routing, JsqPicksLeastLoadedWithLowestIndexTies)
{
    const RoutingPolicy *jsq =
        routingPolicy(RoutingPolicyKind::JOIN_SHORTEST_QUEUE);
    std::vector<MemberView> members(3);
    for (int i = 0; i < 3; ++i)
        members[i].member = i;
    members[0].queued = 2;
    members[1].queued = 1;
    members[2].queued = 1;
    const RouteRequest req{1, 512, 64};
    // Members 1 and 2 tie; the lowest index wins.
    EXPECT_EQ(jsq->pick(RoutePhase::PREFILL, req, members), 1u);
    members[1].inFlight = 5;
    EXPECT_EQ(jsq->pick(RoutePhase::PREFILL, req, members), 2u);
}

TEST(Routing, PhaseAffinityPrefersFasterHardware)
{
    const RoutingPolicy *aff =
        routingPolicy(RoutingPolicyKind::PHASE_AFFINITY);
    std::vector<MemberView> members(2);
    members[0].member = 0;
    members[0].phaseServiceRatePerS = 1.0; // slow prefill
    members[1].member = 1;
    members[1].phaseServiceRatePerS = 10.0; // fast prefill
    const RouteRequest req{1, 512, 64};
    EXPECT_EQ(aff->pick(RoutePhase::PREFILL, req, members), 1u);
    // Enough queued load flips the decision back to the slow member.
    members[1].queued = 30;
    EXPECT_EQ(aff->pick(RoutePhase::PREFILL, req, members), 0u);
}

TEST(Routing, CostWeightedPrefersCheaperServiceTime)
{
    const RoutingPolicy *cw =
        routingPolicy(RoutingPolicyKind::COST_WEIGHTED);
    std::vector<MemberView> members(2);
    members[0].member = 0;
    members[0].phaseServiceRatePerS = 10.0;
    members[0].hourlyCostUsd = 10.0; // fast but expensive
    members[1].member = 1;
    members[1].phaseServiceRatePerS = 5.0;
    members[1].hourlyCostUsd = 1.0; // half speed, tenth the price
    const RouteRequest req{1, 512, 64};
    EXPECT_EQ(cw->pick(RoutePhase::PREFILL, req, members), 1u);
}

// ---- cluster equivalence pins ----------------------------------------------

TEST(Cluster, SingleMonolithicMemberMatchesReplicaBitExactly)
{
    const core::Workload w = testWorkload();
    const IterationCostModel cost = testCost(w);
    const LengthDistribution prompt =
        LengthDistribution::uniform(256, 768, 64);
    const LengthDistribution output =
        LengthDistribution::uniform(32, 96, 16);
    const SchedulerConfig sched;

    auto replica_trace =
        TraceWorkload::poisson(1.0, prompt, output, 150.0, 23);
    const ReplicaMetrics replica =
        simulateReplica(cost, sched, *replica_trace);

    ClusterConfig cfg;
    cfg.pools.resize(1);
    cfg.pools[0].name = "a100";
    cfg.pools[0].cost = &cost;
    cfg.pools[0].scheduler = sched;
    auto cluster_trace =
        TraceWorkload::poisson(1.0, prompt, output, 150.0, 23);
    const ClusterMetrics cluster =
        simulateCluster(cfg, *cluster_trace);

    EXPECT_EQ(fingerprint(replica), fingerprint(cluster.aggregate));
    EXPECT_EQ(cluster.kvTransfers, 0u);
    ASSERT_EQ(cluster.pools.size(), 1u);
    EXPECT_EQ(cluster.pools[0].routedPrefill, replica.arrivals);
}

TEST(Cluster, Batch1ZeroCostDisaggReproducesMonolithicExactly)
{
    const core::Workload w = testWorkload();
    const IterationCostModel cost = testCost(w);
    const SchedulerConfig sched;
    // Requests spaced far beyond their service time: every phase runs
    // at batch 1 with an idle handoff, so the only possible divergence
    // is the migration machinery itself.
    const std::vector<TraceRequest> schedule = {
        {0.0, 512, 32}, {1000.0, 512, 48}, {2000.0, 256, 32}};

    auto mono_trace = TraceWorkload::fixedSchedule(schedule);
    const ReplicaMetrics mono =
        simulateReplica(cost, sched, *mono_trace);

    ClusterConfig cfg;
    cfg.pools.resize(2);
    cfg.pools[0].name = "prefill";
    cfg.pools[0].role = PoolRole::PREFILL;
    cfg.pools[0].cost = &cost;
    cfg.pools[1].name = "decode";
    cfg.pools[1].role = PoolRole::DECODE;
    cfg.pools[1].cost = &cost;
    cfg.kvTransfer = KvTransferConfig::free();
    auto disagg_trace = TraceWorkload::fixedSchedule(schedule);
    const ClusterMetrics disagg =
        simulateCluster(cfg, *disagg_trace);

    ASSERT_EQ(disagg.aggregate.requests.size(), mono.requests.size());
    for (std::size_t i = 0; i < mono.requests.size(); ++i) {
        const RequestRecord &m = mono.requests[i];
        const RequestRecord &d = disagg.aggregate.requests[i];
        EXPECT_DOUBLE_EQ(d.firstTokenS, m.firstTokenS);
        EXPECT_DOUBLE_EQ(d.finishS, m.finishS);
        EXPECT_DOUBLE_EQ(d.ttftS(), m.ttftS());
    }
    EXPECT_DOUBLE_EQ(disagg.aggregate.ttft().meanS,
                     mono.ttft().meanS);
    EXPECT_DOUBLE_EQ(disagg.aggregate.ttft().p99S, mono.ttft().p99S);
    EXPECT_DOUBLE_EQ(disagg.aggregate.tbt().meanS, mono.tbt().meanS);
    EXPECT_DOUBLE_EQ(disagg.aggregate.tbt().p99S, mono.tbt().p99S);
    EXPECT_EQ(disagg.kvTransfers, schedule.size());
    EXPECT_DOUBLE_EQ(disagg.kvTransferTotalS, 0.0);
}

TEST(Cluster, KvTransferChargesExactlyLatencyPlusBytesOverBandwidth)
{
    const core::Workload w = testWorkload();
    const IterationCostModel cost = testCost(w);
    const std::vector<TraceRequest> schedule = {
        {0.0, 512, 32}, {1000.0, 512, 32}};

    ClusterConfig cfg;
    cfg.pools.resize(2);
    cfg.pools[0].name = "prefill";
    cfg.pools[0].role = PoolRole::PREFILL;
    cfg.pools[0].cost = &cost;
    cfg.pools[1].name = "decode";
    cfg.pools[1].role = PoolRole::DECODE;
    cfg.pools[1].cost = &cost;
    cfg.kvTransfer.latencyS = 0.25;
    cfg.kvTransfer.bandwidthBytesPerS = 1e9;

    auto trace = TraceWorkload::fixedSchedule(schedule);
    const ClusterMetrics m = simulateCluster(cfg, *trace);

    const double bytes = cost.kvBytesPerTokenPerDevice() *
                         cost.system().tensorParallel * 512;
    const double per_transfer = 0.25 + bytes / 1e9;
    EXPECT_EQ(m.kvTransfers, 2u);
    EXPECT_DOUBLE_EQ(m.kvBytesTransferred, 2 * bytes);
    EXPECT_DOUBLE_EQ(m.kvTransferTotalS, 2 * per_transfer);

    // The transfer delays the decode phase, not the first token: the
    // first TBT gap absorbs the whole cost.
    ASSERT_FALSE(m.aggregate.tbtGapsS.empty());
    EXPECT_GE(m.aggregate.tbt().maxS, per_transfer);
}

TEST(Cluster, ValidationRejectsMalformedConfigs)
{
    const core::Workload w = testWorkload();
    const IterationCostModel cost = testCost(w);

    ClusterConfig empty;
    EXPECT_THROW(empty.validate(), FatalError);

    ClusterConfig null_cost;
    null_cost.pools.resize(1);
    EXPECT_THROW(null_cost.validate(), FatalError);

    // A PREFILL pool without a DECODE pool has nowhere to ship KV.
    ClusterConfig prefill_only;
    prefill_only.pools.resize(1);
    prefill_only.pools[0].role = PoolRole::PREFILL;
    prefill_only.pools[0].cost = &cost;
    EXPECT_THROW(prefill_only.validate(), FatalError);

    KvTransferConfig kv;
    kv.latencyS = -1.0;
    EXPECT_THROW(kv.validate(), FatalError);
}

// ---- heterogeneous fleets and routing determinism --------------------------

ClusterConfig
mixedFleetConfig(const IterationCostModel &a100,
                 const IterationCostModel &h20,
                 RoutingPolicyKind routing)
{
    ClusterConfig cfg;
    cfg.pools.resize(2);
    cfg.pools[0].name = "a100";
    cfg.pools[0].cost = &a100;
    cfg.pools[0].replicas = 2;
    cfg.pools[0].hourlyCostUsdPerReplica = 8.0;
    cfg.pools[1].name = "h20";
    cfg.pools[1].cost = &h20;
    cfg.pools[1].replicas = 2;
    cfg.pools[1].hourlyCostUsdPerReplica = 4.0;
    cfg.routing = routing;
    return cfg;
}

std::unique_ptr<TraceWorkload>
mixedFleetTrace()
{
    return TraceWorkload::poisson(
        2.0, LengthDistribution::uniform(256, 768, 64),
        LengthDistribution::uniform(32, 96, 16), 120.0, 31);
}

TEST(Cluster, RoutingIsDeterministicAcrossThreadCounts)
{
    const core::Workload w = testWorkload();
    const IterationCostModel a100 = testCost(w);
    const IterationCostModel h20 = testCost(w, hw::modeledH20Style());

    for (RoutingPolicyKind kind :
         {RoutingPolicyKind::JOIN_SHORTEST_QUEUE,
          RoutingPolicyKind::PHASE_AFFINITY,
          RoutingPolicyKind::COST_WEIGHTED}) {
        const ClusterConfig cfg = mixedFleetConfig(a100, h20, kind);
        auto serial_trace = mixedFleetTrace();
        const std::string serial =
            fingerprint(simulateCluster(cfg, *serial_trace));

        // Concurrent runs share the two cost-model memo tables — the
        // fan-out the TSan job watches — and every run must match the
        // serial bytes regardless of worker count.
        for (unsigned workers : {1u, 7u}) {
            common::ThreadPool pool(workers);
            std::vector<std::string> prints(8);
            pool.parallelFor(prints.size(), [&](std::size_t i) {
                auto trace = mixedFleetTrace();
                prints[i] =
                    fingerprint(simulateCluster(cfg, *trace));
            });
            for (const std::string &p : prints)
                EXPECT_EQ(p, serial);
        }
    }
}

TEST(Cluster, PhaseAffinityRoutesPrefillsToFasterPool)
{
    const core::Workload w = testWorkload();
    const IterationCostModel a100 = testCost(w);
    const IterationCostModel h20 = testCost(w, hw::modeledH20Style());
    // The H20-style part's TPP cap makes its prefill far slower than
    // the A100's, so phase-affinity should send most prompts left.
    const ClusterConfig cfg = mixedFleetConfig(
        a100, h20, RoutingPolicyKind::PHASE_AFFINITY);
    auto trace = mixedFleetTrace();
    const ClusterMetrics m = simulateCluster(cfg, *trace);
    ASSERT_EQ(m.pools.size(), 2u);
    EXPECT_GT(m.pools[0].routedPrefill, m.pools[1].routedPrefill);
    EXPECT_EQ(m.pools[0].routedPrefill + m.pools[1].routedPrefill,
              m.aggregate.arrivals);
}

/**
 * ClusterConfig::queueEngine drives the cluster's single global
 * event queue; a disaggregated run with real (nonzero-cost) KV
 * transfers exercises every event kind — including KV_DONE and the
 * slot-map transfer recycling — so calendar and heap runs must be
 * bit-identical.
 */
TEST(Cluster, QueueEngineDoesNotChangeClusterBytes)
{
    const core::Workload w = testWorkload();
    const IterationCostModel cost = testCost(w);
    ClusterConfig cfg;
    cfg.pools.resize(2);
    cfg.pools[0].name = "prefill";
    cfg.pools[0].role = PoolRole::PREFILL;
    cfg.pools[0].cost = &cost;
    cfg.pools[0].replicas = 2;
    cfg.pools[1].name = "decode";
    cfg.pools[1].role = PoolRole::DECODE;
    cfg.pools[1].cost = &cost;
    cfg.pools[1].replicas = 2;
    cfg.kvTransfer.latencyS = 5e-3;

    auto cal_trace = mixedFleetTrace();
    const std::string cal =
        fingerprint(simulateCluster(cfg, *cal_trace));

    cfg.queueEngine = QueueEngine::LEGACY_HEAP;
    auto heap_trace = mixedFleetTrace();
    const std::string heap =
        fingerprint(simulateCluster(cfg, *heap_trace));

    EXPECT_EQ(cal, heap);
    EXPECT_FALSE(cal.empty());
}

// ---- streaming histograms --------------------------------------------------

TEST(Histogram, PercentilesWithinRelativeErrorBound)
{
    LatencyHistogram h;
    std::vector<double> samples;
    for (int i = 1; i <= 2000; ++i) {
        const double s = 1e-3 * i; // 1 ms .. 2 s
        samples.push_back(s);
        h.record(s);
    }
    EXPECT_EQ(h.count, 2000u);
    for (double pct : {50.0, 90.0, 99.0}) {
        const double exact =
            samples[static_cast<std::size_t>(pct / 100 *
                                             samples.size()) -
                    1];
        EXPECT_NEAR(h.percentileS(pct), exact, exact * 0.02);
    }
    EXPECT_DOUBLE_EQ(h.percentileS(100.0), h.maxS);
    EXPECT_NEAR(h.meanS(), 1.0005, 1e-9);
}

TEST(Histogram, MergeEqualsCombinedRecording)
{
    LatencyHistogram a, b, all;
    for (int i = 1; i <= 500; ++i) {
        const double s = 3e-4 * i;
        (i % 2 ? a : b).record(s);
        all.record(s);
    }
    a.merge(b);
    EXPECT_EQ(a.count, all.count);
    EXPECT_DOUBLE_EQ(a.sumS, all.sumS);
    EXPECT_DOUBLE_EQ(a.maxS, all.maxS);
    EXPECT_EQ(a.buckets, all.buckets);
}

TEST(Cluster, HistogramPercentilesTrackExactWhenRecordsOff)
{
    const core::Workload w = testWorkload();
    const IterationCostModel cost = testCost(w);
    ClusterConfig cfg;
    cfg.pools.resize(1);
    cfg.pools[0].name = "a100";
    cfg.pools[0].cost = &cost;

    auto exact_trace = mixedFleetTrace();
    const ClusterMetrics exact = simulateCluster(cfg, *exact_trace);

    cfg.recordRequests = false;
    cfg.recordTbtGaps = false;
    auto stream_trace = mixedFleetTrace();
    const ClusterMetrics streamed =
        simulateCluster(cfg, *stream_trace);

    EXPECT_TRUE(streamed.aggregate.requests.empty());
    EXPECT_TRUE(streamed.aggregate.tbtGapsS.empty());
    EXPECT_EQ(streamed.completedRequests, exact.completedRequests);
    for (double pct : {50.0, 99.0}) {
        EXPECT_NEAR(streamed.ttftPercentileS(pct),
                    exact.ttftPercentileS(pct),
                    exact.ttftPercentileS(pct) * 0.02);
        EXPECT_NEAR(streamed.tbtPercentileS(pct),
                    exact.tbtPercentileS(pct),
                    exact.tbtPercentileS(pct) * 0.02);
    }
}

// ---- two-pool sizing -------------------------------------------------------

TEST(DisaggFleet, SizesBothPoolsAgainstSlo)
{
    const core::Workload w = testWorkload();
    const IterationCostModel cost = testCost(w);

    DisaggPoolSpec prefill;
    prefill.cost = &cost;
    prefill.hourlyCostUsdPerReplica = 8.0;
    DisaggPoolSpec decode = prefill;

    FleetDemand demand;
    demand.ratePerS = 2.0;
    demand.promptLen = LengthDistribution::fixed(512);
    demand.outputLen = LengthDistribution::fixed(64);
    demand.horizonS = 120.0;
    demand.seed = 5;

    SloTargets slo;
    slo.ttftMaxS = 5.0;
    slo.tbtMaxS = 0.200;

    const DisaggFleetPlan plan = sizeDisaggFleet(
        prefill, decode, KvTransferConfig{}, demand, slo);
    ASSERT_TRUE(plan.feasible);
    EXPECT_GE(plan.prefillReplicas, 1);
    EXPECT_GE(plan.decodeReplicas, 1);
    EXPECT_EQ(plan.devices,
              (plan.prefillReplicas + plan.decodeReplicas) *
                  static_cast<long>(cost.system().tensorParallel));
    EXPECT_GT(plan.probes, 0);
    EXPECT_TRUE(plan.aggregate.meetsSlo(slo));
    EXPECT_GT(plan.aggregate.goodputTokensPerS(), 0.0);
    // The fleet is priced: 8 $/h per replica on both sides.
    EXPECT_DOUBLE_EQ(plan.aggregate.fleetHourlyUsd,
                     8.0 * (plan.prefillReplicas +
                            plan.decodeReplicas));
}

} // namespace
} // namespace sim
} // namespace acs
