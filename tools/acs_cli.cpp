/**
 * @file
 * acs — the unified command-line front end.
 *
 * Subcommands:
 *   classify <tpp> <devbw_gbps> <area_mm2> [dc|consumer]
 *       Rule outcomes for a spec given on the command line.
 *   db [segment]
 *       Print the device catalogue (optionally one market segment).
 *   evaluate <config.kv> <workload>
 *       Evaluate a design file on a workload vs the A100 baseline.
 *   sweep <workload> <tpp>
 *       Run the Table-3 sweep and print compliant optima.
 *   dse <workload> [--space=...] [--shard=i/n] [--checkpoint=dir]
 *       Adaptive coarse-to-fine search (docs/DSE.md) over the Table 3,
 *       Table 5, or fine-grained space, with sharding, checkpoint/
 *       resume, and deterministic shard merge (--merge).
 *   metrics <config.kv>
 *       CTP / APP / TPP for a design file.
 *   serve-sim <workload> [device] [--rate=...] [--seed=N] ...
 *       Request-level serving simulation: latency-vs-load percentile
 *       curve and optional percentile-aware fleet sizing.
 *   help
 *
 * The global option --trace=<file> (or the ACS_TRACE environment
 * variable) records counters and spans during the command, prints a
 * per-stage summary, and writes a Chrome-trace JSON to <file>.
 * --gemm-mode={analytic,tile_sim,cycle_sim} selects the GEMM latency
 * model for the evaluate/sweep commands, and --gemm-cache={on,off}
 * toggles the sweep-scoped cross-design GEMM cache in the simulating
 * modes — output is byte-identical either way (docs/PERF.md).
 */

#include <cstdint>
#include <deque>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "coevo/arms_race.hh"
#include "common/parse.hh"
#include "core/acs.hh"

using namespace acs;

namespace {

/** Model constants shared by evaluate/sweep; set by global options. */
perf::PerfParams g_perf_params;

int
usage()
{
    std::cout <<
        "usage: acs [--trace=<file>] [--gemm-mode=<mode>]\n"
        "           [--gemm-cache=on|off] <command> [args]\n"
        "  classify <tpp> <devbw_gbps> <area_mm2> [dc|consumer]\n"
        "  db [data-center|consumer|workstation]\n"
        "  evaluate <config.kv> <gpt3|llama|llama70b|mixtral>\n"
        "  sweep <gpt3|llama|llama70b|mixtral> <tpp>\n"
        "  dse <gpt3|llama|llama70b|mixtral> [--space=table3|table5|fine]\n"
        "      [--tpp=<n>] [--shard=<i>/<n>] [--checkpoint=<dir>]\n"
        "      [--ckpt-every=<points>] [--max-evals=<points>] [--merge]\n"
        "  coevo [--rounds=<n>] [--collateral-budget=<frac>]\n"
        "        [--mechanism=threshold|firmware] [--seed=<n>]\n"
        "        [--workload=gpt3|llama|llama70b|mixtral]\n"
        "  metrics <config.kv>\n"
        "  serve-sim <gpt3|llama|llama70b|mixtral> [device]\n"
        "            [--rate=r1,r2,...] [--seed=<n>]\n"
        "            [--slo-p99=<ttft_s>,<tbt_s>] [--demand=<req/s>]\n"
        "            [--prompt=<len>] [--output=<len>] [--horizon=<s>]\n"
        "            [--fleet=dev:count,...] [--disagg]\n"
        "            [--routing=jsq|phase-affinity|cost-weighted]\n"
        "            [--trace=<requests.csv>]\n"
        "            [--diurnal=<peak_trough>,<period_s>]\n"
        "    [device] is a100|a800|h100|h20 or a config.kv path\n"
        "    (default a100). --rate sets per-replica offered loads for\n"
        "    the latency-vs-load curve; --demand adds percentile-aware\n"
        "    fleet sizing for that aggregate rate with the closed-form\n"
        "    cross-check (docs/SERVING.md).\n"
        "    --fleet switches to cluster mode (docs/DATACENTER.md):\n"
        "    each dev:count entry is a pool of identical replicas, all\n"
        "    serving one stream under the --routing policy. --disagg\n"
        "    makes the first pool prefill-only and the second\n"
        "    decode-only with KV transfer charged between them.\n"
        "    Arrivals come from --trace (arrival_s,prompt,output CSV\n"
        "    rows), the --diurnal generator, or a Poisson stream at\n"
        "    --demand req/s.\n"
        "dse runs the adaptive coarse-to-fine engine (docs/DSE.md):\n"
        "    --space picks the design space (default table3 at --tpp,\n"
        "    fine is the ~1.7e8-point space), --shard=<i>/<n> restricts\n"
        "    this process to shard i of n (outer-cell ranges),\n"
        "    --checkpoint=<dir> enables snapshot/resume (the canonical\n"
        "    shard-<i>-of-<n>.ckpt file; an existing file is resumed),\n"
        "    --ckpt-every sets the snapshot cadence in evaluated\n"
        "    points, --max-evals stops early (wave-aligned; resume\n"
        "    continues), and --merge merges all <n> completed shard\n"
        "    checkpoints and reports the global optima instead of\n"
        "    searching.\n"
        "coevo runs the regulator-vs-designer arms race over the\n"
        "    parameterized rule family (docs/POLICY.md): N rounds of\n"
        "    designer best response (adaptive escape-space search) vs\n"
        "    regulator tightening under a gaming-segment collateral\n"
        "    budget; --mechanism=firmware swaps in the offline-\n"
        "    licensing throughput cap.\n"
        "--trace=<file> (or ACS_TRACE=<file>) records observability\n"
        "counters/spans and writes Chrome-trace JSON to <file>.\n"
        "--gemm-mode=analytic|tile_sim|cycle_sim picks the GEMM\n"
        "latency model for evaluate/sweep (default analytic; see\n"
        "docs/PERF.md).\n"
        "--gemm-cache=on|off toggles the simulating modes' sweep-\n"
        "scoped GEMM cache (default on; byte-identical output either\n"
        "way).\n";
    return 2;
}

hw::HardwareConfig
loadConfig(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        fatal("cannot open " + path);
    std::stringstream buf;
    buf << in.rdbuf();
    return hw::configFromKeyVal(KeyVal::parse(buf.str()));
}

int
cmdClassify(const std::vector<std::string> &args)
{
    if (args.size() < 3)
        return usage();
    policy::DeviceSpec spec;
    spec.name = "cli-device";
    spec.tpp = parseNumber<double>(args[0], "classify <tpp>");
    spec.deviceBandwidthGBps =
        parseNumber<double>(args[1], "classify <devbw_gbps>");
    spec.dieAreaMm2 = parseNumber<double>(args[2], "classify <area_mm2>");
    spec.market = args.size() > 3 && args[3] == "consumer"
                      ? policy::MarketSegment::CONSUMER
                      : policy::MarketSegment::DATA_CENTER;

    Table t({"rule", "classification"});
    t.addRow({"Oct 2022", toString(policy::Oct2022Rule::classify(spec))});
    t.addRow({"Oct 2023 (as marketed)",
              toString(policy::Oct2023Rule::classify(spec))});
    t.addRow({"Oct 2023 (if DC)",
              toString(policy::Oct2023Rule::classifyAs(
                  spec, policy::MarketSegment::DATA_CENTER))});
    t.print(std::cout);
    if (spec.tpp < policy::Oct2023Rule::TPP_LICENSE) {
        const double floor =
            policy::Oct2023Rule::minUnregulatedDieArea(spec.tpp);
        if (floor > 0.0) {
            std::cout << "unregulated above " << fmt(floor, 1)
                      << " mm^2 of applicable die area\n";
        }
    }
    return 0;
}

int
cmdDb(const std::vector<std::string> &args)
{
    const devices::Database db;
    Table t({"device", "released", "market", "TPP", "PD",
             "mem", "Oct 2023"});
    for (const auto &rec : db.all()) {
        if (!args.empty() && toString(rec.market) != args[0])
            continue;
        t.addRow({rec.name,
                  std::to_string(rec.releaseYear) + "-" +
                      (rec.releaseMonth < 10 ? "0" : "") +
                      std::to_string(rec.releaseMonth),
                  toString(rec.market), fmt(rec.tpp, 0),
                  fmt(rec.toSpec().perfDensity()),
                  fmt(rec.memCapacityGB, 0) + "GB@" +
                      fmt(rec.memBandwidthGBps, 0),
                  toString(policy::Oct2023Rule::classify(
                      rec.toSpec()))});
    }
    t.print(std::cout);
    std::cout << t.rowCount() << " devices\n";
    return 0;
}

int
cmdEvaluate(const std::vector<std::string> &args)
{
    if (args.size() < 2)
        return usage();
    const hw::HardwareConfig cfg = loadConfig(args[0]);
    const core::Workload workload = core::workloadByName(args[1]);
    const core::SanctionsStudy study(g_perf_params);
    const core::DesignReport report =
        study.evaluateDesign(cfg, workload);

    Table t({"metric", cfg.name, "modeled A100", "delta"});
    t.addRow({"TTFT/layer (ms)",
              fmt(units::toMs(report.design.ttftS), 2),
              fmt(units::toMs(report.baseline.ttftS), 2),
              fmtPercent(report.ttftDelta())});
    t.addRow({"TBT/layer (ms)",
              fmt(units::toMs(report.design.tbtS), 4),
              fmt(units::toMs(report.baseline.tbtS), 4),
              fmtPercent(report.tbtDelta())});
    t.addRow({"TPP", fmt(report.design.tpp, 0),
              fmt(report.baseline.tpp, 0), ""});
    t.addRow({"die area (mm^2)", fmt(report.design.dieAreaMm2, 1),
              fmt(report.baseline.dieAreaMm2, 1), ""});
    t.addRow({"die cost ($)", fmt(report.design.dieCostUsd, 0),
              fmt(report.baseline.dieCostUsd, 0), ""});
    t.print(std::cout);
    std::cout << "Oct 2022: " << toString(report.rules.oct2022)
              << "; Oct 2023 DC: "
              << toString(report.rules.oct2023DataCenter) << "\n";
    return 0;
}

int
cmdSweep(const std::vector<std::string> &args)
{
    if (args.size() < 2)
        return usage();
    const core::Workload workload = core::workloadByName(args[0]);
    const double tpp = parseNumber<double>(args[1], "sweep <tpp>");
    const core::SanctionsStudy study(g_perf_params);
    const auto baseline = study.evaluateBaseline(workload);
    const auto designs = study.runSweep(
        dse::table3Space(tpp, {500.0 * units::GBPS,
                               700.0 * units::GBPS,
                               900.0 * units::GBPS}),
        workload);
    const auto compliant =
        dse::filterOct2023Unregulated(dse::filterReticle(designs));
    std::cout << designs.size() << " designs, " << compliant.size()
              << " compliant+manufacturable\n";
    if (compliant.empty())
        return 0;
    const auto &fast = dse::minTtft(compliant);
    const auto &decode = dse::minTbt(compliant);
    std::cout << "best TTFT: " << fmt(units::toMs(fast.ttftS), 1)
              << " ms ("
              << fmtPercent(fast.ttftS / baseline.ttftS - 1.0)
              << " vs A100) [" << fast.config.name << "]\n";
    std::cout << "best TBT:  " << fmt(units::toMs(decode.tbtS), 4)
              << " ms ("
              << fmtPercent(decode.tbtS / baseline.tbtS - 1.0)
              << " vs A100) [" << decode.config.name << "]\n";
    return 0;
}

/** Resolve a dse --space= name (fatal on an unknown one). */
dse::SweepSpace
dseSpaceByName(const std::string &name, double tpp)
{
    if (name == "table3") {
        return dse::table3Space(tpp, {500.0 * units::GBPS,
                                      700.0 * units::GBPS,
                                      900.0 * units::GBPS});
    }
    if (name == "table5")
        return dse::table5Space();
    if (name == "fine")
        return dse::fineSpace(tpp);
    fatal("unknown --space '" + name + "' (table3|table5|fine)");
}

/** Merge completed shard checkpoints and report the global optima. */
int
runDseMerge(const core::Workload &workload, const dse::SweepSpace &space,
            const dse::AdaptiveConfig &acfg, const std::string &dir)
{
    const core::SanctionsStudy study(g_perf_params);
    const dse::DesignEvaluator evaluator(
        workload.model, workload.setting, workload.system,
        study.params());
    const dse::AdaptiveSearch search(evaluator, space, acfg);

    std::vector<dse::Checkpoint> shards;
    for (std::size_t i = 0; i < acfg.shard.count; ++i) {
        dse::ShardSpec s;
        s.index = i;
        s.count = acfg.shard.count;
        const std::string path = dse::checkpointShardFile(dir, s);
        dse::Checkpoint ck;
        fatalIf(!dse::readCheckpoint(path, &ck),
                "missing shard checkpoint " + path);
        shards.push_back(std::move(ck));
    }
    const dse::Checkpoint merged = dse::mergeShardCheckpoints(shards);

    // First-wins argmins over the kept set (points are index-sorted,
    // so strict < reproduces the exhaustive tie-break).
    const dse::CheckpointPoint *best_t = nullptr;
    const dse::CheckpointPoint *best_b = nullptr;
    std::size_t kept = 0;
    for (const dse::CheckpointPoint &p : merged.points) {
        if (!(p.flags & dse::POINT_KEPT))
            continue;
        ++kept;
        if (!best_t || p.ttftS < best_t->ttftS)
            best_t = &p;
        if (!best_b || p.tbtS < best_b->tbtS)
            best_b = &p;
    }
    const auto frontier = dse::frontierOfPoints(merged.points);

    std::cout << merged.points.size() << " points across "
              << acfg.shard.count << " shard(s), " << kept
              << " kept, frontier " << frontier.size() << "\n";
    if (best_t) {
        std::cout << "best TTFT: "
                  << fmt(units::toMs(best_t->ttftS), 3) << " ms ["
                  << search.plan().point(best_t->index).name << "]\n";
    }
    if (best_b) {
        std::cout << "best TBT:  "
                  << fmt(units::toMs(best_b->tbtS), 4) << " ms ["
                  << search.plan().point(best_b->index).name << "]\n";
    }
    return 0;
}

int
cmdDse(const std::vector<std::string> &args)
{
    if (args.empty())
        return usage();
    const core::Workload workload = core::workloadByName(args[0]);

    std::string space_name = "table3";
    double tpp = 4800.0;
    std::string ckpt_dir;
    bool merge = false;
    dse::AdaptiveConfig acfg;
    for (std::size_t i = 1; i < args.size(); ++i) {
        const std::string &arg = args[i];
        if (arg.rfind("--space=", 0) == 0) {
            space_name = arg.substr(8);
        } else if (arg.rfind("--tpp=", 0) == 0) {
            tpp = parseNumber<double>(arg.substr(6), "--tpp");
        } else if (arg.rfind("--shard=", 0) == 0) {
            acfg.shard = dse::parseShardSpec(arg.substr(8));
        } else if (arg.rfind("--checkpoint=", 0) == 0) {
            ckpt_dir = arg.substr(13);
        } else if (arg.rfind("--ckpt-every=", 0) == 0) {
            acfg.checkpointEveryPoints =
                parseNumber<std::size_t>(arg.substr(13), "--ckpt-every");
        } else if (arg.rfind("--max-evals=", 0) == 0) {
            acfg.maxEvaluations =
                parseNumber<std::size_t>(arg.substr(12), "--max-evals");
        } else if (arg == "--merge") {
            merge = true;
        } else {
            std::cerr << "unknown dse option '" << arg << "'\n";
            return usage();
        }
    }

    const dse::SweepSpace space = dseSpaceByName(space_name, tpp);
    if (merge) {
        fatalIf(ckpt_dir.empty(), "--merge needs --checkpoint=<dir>");
        return runDseMerge(workload, space, acfg, ckpt_dir);
    }
    if (!ckpt_dir.empty())
        acfg.checkpointPath = dse::checkpointShardFile(ckpt_dir,
                                                       acfg.shard);

    const core::SanctionsStudy study(g_perf_params);
    const dse::AdaptiveResult res =
        study.runAdaptiveSweep(space, workload, acfg);

    Table t({"metric", "value"});
    t.addRow({"space points", std::to_string(res.spacePoints)});
    t.addRow({"shard",
              std::to_string(acfg.shard.index) + "/" +
                  std::to_string(acfg.shard.count) + " (" +
                  std::to_string(res.shardPoints) + " points)"});
    t.addRow({"evaluated", std::to_string(res.evaluated)});
    t.addRow({"fraction", fmtPercent(res.fractionEvaluated)});
    t.addRow({"kept", std::to_string(res.kept)});
    t.addRow({"waves", std::to_string(res.waves)});
    t.addRow({"frontier", std::to_string(res.frontier.size())});
    t.addRow({"complete", res.complete ? "yes" : "no (resumable)"});
    t.print(std::cout);
    if (res.bestTtft) {
        std::cout << "best TTFT: "
                  << fmt(units::toMs(res.bestTtft->ttftS), 3)
                  << " ms [" << res.bestTtft->config.name << "]\n";
    }
    if (res.bestTbt) {
        std::cout << "best TBT:  "
                  << fmt(units::toMs(res.bestTbt->tbtS), 4)
                  << " ms [" << res.bestTbt->config.name << "]\n";
    }
    return 0;
}

int
cmdCoevo(const std::vector<std::string> &args)
{
    coevo::ArmsRaceConfig cfg;
    for (const std::string &arg : args) {
        if (arg.rfind("--rounds=", 0) == 0) {
            cfg.rounds = parseNumber<int>(arg.substr(9), "--rounds");
        } else if (arg.rfind("--collateral-budget=", 0) == 0) {
            cfg.collateralBudget = parseNumber<double>(
                arg.substr(20), "--collateral-budget");
        } else if (arg.rfind("--mechanism=", 0) == 0) {
            cfg.mechanism = coevo::mechanismFromString(arg.substr(12));
        } else if (arg.rfind("--seed=", 0) == 0) {
            cfg.seed =
                parseNumber<std::uint64_t>(arg.substr(7), "--seed");
        } else if (arg.rfind("--workload=", 0) == 0) {
            cfg.workload = arg.substr(11);
        } else if (arg.rfind("--max-evals=", 0) == 0) {
            cfg.maxEvaluations =
                parseNumber<std::size_t>(arg.substr(12), "--max-evals");
        } else {
            std::cerr << "unknown coevo option '" << arg << "'\n";
            return usage();
        }
    }

    coevo::ArmsRace race(cfg);
    const coevo::ArmsRaceResult res = race.run();

    std::cout << "mechanism " << coevo::toString(cfg.mechanism)
              << ", collateral budget "
              << fmtPercent(cfg.collateralBudget) << ", workload "
              << cfg.workload << ", seed " << cfg.seed << "\n"
              << "unconstrained reference TTFT/TBT: "
              << fmt(units::toMs(res.referenceTtftS), 3) << " / "
              << fmt(units::toMs(res.referenceTbtS), 4) << " ms\n\n";

    Table t({"round", "regulator move", "rule", "best escape",
             "escaped perf", "collateral"});
    for (const auto &r : res.rounds) {
        t.addRow({std::to_string(r.round), r.moveLabel, r.ruleDesc,
                  r.designer.spaceLabel.empty() ? "-"
                                                : r.designer.spaceLabel,
                  fmtPercent(r.designer.escapedPerf),
                  fmtPercent(r.collateral)});
    }
    t.print(std::cout);

    char fp[32];
    std::snprintf(fp, sizeof(fp), "%016llx",
                  static_cast<unsigned long long>(res.fingerprint()));
    std::cout << "\nfixed point: "
              << (res.roundsToFixedPoint >= 0
                      ? "round " + std::to_string(res.roundsToFixedPoint)
                      : "not reached")
              << "\ndesigner best responses: "
              << std::to_string(res.bestResponses) << " ("
              << std::to_string(res.totalEvaluated) << " of "
              << std::to_string(res.totalSpacePoints)
              << " space points evaluated)\ntrajectory fingerprint: "
              << fp << "\n";
    return 0;
}

int
cmdMetrics(const std::vector<std::string> &args)
{
    if (args.empty())
        return usage();
    const hw::HardwareConfig cfg = loadConfig(args[0]);
    const policy::MetricHistory h = policy::metricHistory(cfg);
    Table t({"metric", "value"});
    t.addRow({"CTP (MTOPS, 1991)", fmt(h.ctpMtops, 0)});
    t.addRow({"APP (WT, 2006)", fmt(h.appWt, 2)});
    t.addRow({"TPP (2022)", fmt(h.tpp, 0)});
    t.print(std::cout);
    return 0;
}

/**
 * Split "a,b,c" into finite doubles, fatal naming @p flag on any bad
 * field (an empty list or an empty field included).
 */
std::vector<double>
parseDoubleList(const std::string &text, const std::string &flag)
{
    std::vector<double> values;
    std::size_t start = 0;
    for (;;) {
        const std::size_t comma = text.find(',', start);
        values.push_back(parseNumber<double>(
            std::string_view(text).substr(start, comma - start), flag));
        if (comma == std::string::npos)
            return values;
        start = comma + 1;
    }
}

/** Map a preset name or config.kv path to a device. */
hw::HardwareConfig
deviceByName(const std::string &name)
{
    if (name == "a100" || name == "a800" || name == "h100" ||
        name == "h20")
        return hw::presetByName(name);
    return loadConfig(name);
}

/** One --fleet entry: a device preset/path and a replica count. */
struct FleetEntry
{
    std::string device;
    int replicas = 1;
};

/** Parse "a100:4,h20:8" into fleet entries. */
std::vector<FleetEntry>
parseFleetSpec(const std::string &text)
{
    std::vector<FleetEntry> entries;
    std::stringstream ss(text);
    std::string item;
    while (std::getline(ss, item, ',')) {
        const std::size_t colon = item.rfind(':');
        if (colon == std::string::npos || colon == 0 ||
            colon + 1 >= item.size())
            fatal("--fleet entries must look like dev:count, got '" +
                  item + "'");
        FleetEntry e;
        e.device = item.substr(0, colon);
        e.replicas = parseNumber<int>(item.substr(colon + 1),
                                      "--fleet replica count");
        fatalIf(e.replicas < 1,
                "--fleet replica counts must be >= 1");
        entries.push_back(std::move(e));
    }
    fatalIf(entries.empty(), "--fleet needs at least one dev:count");
    return entries;
}

/** Cluster-mode options gathered from the serve-sim argument list. */
struct ClusterCliOptions
{
    std::vector<FleetEntry> fleet;
    bool disagg = false;
    sim::RoutingPolicyKind routing =
        sim::RoutingPolicyKind::JOIN_SHORTEST_QUEUE;
    std::string traceFile;
    bool diurnal = false;
    double peakToTrough = 3.0;
    double periodS = 3600.0;
};

/** Run serve-sim's cluster mode and print the report. */
int
runClusterSim(const core::Workload &workload,
              const core::ServingStudyConfig &scfg,
              const ClusterCliOptions &opts)
{
    const core::SanctionsStudy study(g_perf_params);

    // One cost oracle per fleet entry, kept alive for the whole run.
    std::deque<sim::IterationCostModel> oracles;
    sim::ClusterConfig cluster;
    for (std::size_t i = 0; i < opts.fleet.size(); ++i) {
        const FleetEntry &e = opts.fleet[i];
        const hw::HardwareConfig device = deviceByName(e.device);
        oracles.emplace_back(device, workload.model,
                             workload.setting, workload.system,
                             study.params());
        sim::PoolConfig pool;
        pool.name = e.device;
        pool.cost = &oracles.back();
        pool.replicas = e.replicas;
        pool.scheduler = scfg.scheduler;
        if (opts.disagg) {
            fatalIf(opts.fleet.size() != 2,
                    "--disagg expects exactly two --fleet entries "
                    "(prefill pool, decode pool)");
            pool.role = i == 0 ? sim::PoolRole::PREFILL
                               : sim::PoolRole::DECODE;
        }
        cluster.pools.push_back(pool);
    }
    cluster.routing = opts.routing;
    cluster.slo = scfg.slo.targets();

    std::unique_ptr<sim::TraceWorkload> trace;
    if (!opts.traceFile.empty()) {
        trace = sim::TraceWorkload::fromCsvFile(opts.traceFile);
    } else if (opts.diurnal) {
        fatalIf(scfg.fleetRatePerS <= 0.0,
                "--diurnal needs --demand=<req/s> as the mean rate");
        sim::DiurnalTraceSpec spec;
        spec.baseRatePerS = scfg.fleetRatePerS;
        spec.peakToTrough = opts.peakToTrough;
        spec.periodS = opts.periodS;
        spec.promptLen = scfg.promptLen;
        spec.outputLen = scfg.outputLen;
        spec.horizonS = scfg.horizonS;
        spec.seed = scfg.seed;
        trace = sim::TraceWorkload::diurnal(spec);
    } else {
        fatalIf(scfg.fleetRatePerS <= 0.0,
                "cluster mode needs --trace, --diurnal, or "
                "--demand=<req/s>");
        trace = sim::TraceWorkload::poisson(
            scfg.fleetRatePerS, scfg.promptLen, scfg.outputLen,
            scfg.horizonS, scfg.seed);
    }

    const sim::ClusterMetrics m =
        simulateCluster(cluster, *trace);

    std::cout << "cluster of " << cluster.pools.size()
              << " pool(s), routing "
              << sim::toString(opts.routing) << ", "
              << trace->produced() << " requests\n";
    Table pools({"pool", "role", "replicas", "prefills", "decodes",
                 "tokens"});
    for (const sim::PoolUsage &u : m.pools) {
        pools.addRow({u.name, sim::toString(u.role),
                      std::to_string(u.replicas),
                      std::to_string(u.routedPrefill),
                      std::to_string(u.routedDecode),
                      std::to_string(u.generatedTokens)});
    }
    pools.print(std::cout);

    Table t({"metric", "value"});
    t.addRow({"completed", std::to_string(m.completedRequests)});
    t.addRow({"TTFT p50 (s)", fmt(m.ttftPercentileS(50.0), 3)});
    t.addRow({"TTFT p99 (s)", fmt(m.ttftPercentileS(99.0), 3)});
    t.addRow({"TBT p50 (ms)",
              fmt(units::toMs(m.tbtPercentileS(50.0)), 2)});
    t.addRow({"TBT p99 (ms)",
              fmt(units::toMs(m.tbtPercentileS(99.0)), 2)});
    t.addRow({"attainment", fmt(100.0 * m.attainment(), 1) + "%"});
    t.addRow({"goodput tok/s", fmt(m.goodputTokensPerS(), 0)});
    if (m.kvTransfers > 0) {
        t.addRow({"KV transfers", std::to_string(m.kvTransfers)});
        t.addRow({"KV shipped (GB)",
                  fmt(m.kvBytesTransferred / 1e9, 2)});
        t.addRow({"KV mean transfer (ms)",
                  fmt(units::toMs(m.kvTransferTotalS /
                                  m.kvTransfers),
                      2)});
    }
    t.print(std::cout);
    return 0;
}

int
cmdServeSim(const std::vector<std::string> &args)
{
    if (args.empty())
        return usage();
    const core::Workload workload = core::workloadByName(args[0]);
    hw::HardwareConfig cfg = hw::modeledA100();
    core::ServingStudyConfig scfg;
    ClusterCliOptions copts;

    for (std::size_t i = 1; i < args.size(); ++i) {
        const std::string &arg = args[i];
        if (arg.rfind("--fleet=", 0) == 0) {
            copts.fleet = parseFleetSpec(arg.substr(8));
        } else if (arg == "--disagg") {
            copts.disagg = true;
        } else if (arg.rfind("--routing=", 0) == 0) {
            copts.routing =
                sim::parseRoutingPolicy(arg.substr(10));
        } else if (arg.rfind("--trace=", 0) == 0) {
            copts.traceFile = arg.substr(8);
        } else if (arg.rfind("--diurnal=", 0) == 0) {
            const auto parts =
                parseDoubleList(arg.substr(10), "--diurnal");
            if (parts.size() != 2) {
                std::cerr
                    << "--diurnal expects <peak_trough>,<period_s>\n";
                return usage();
            }
            copts.diurnal = true;
            copts.peakToTrough = parts[0];
            copts.periodS = parts[1];
        } else if (arg.rfind("--rate=", 0) == 0) {
            scfg.ratesPerS = parseDoubleList(arg.substr(7), "--rate");
        } else if (arg.rfind("--seed=", 0) == 0) {
            scfg.seed =
                parseNumber<std::uint64_t>(arg.substr(7), "--seed");
        } else if (arg.rfind("--slo-p99=", 0) == 0) {
            const auto bounds =
                parseDoubleList(arg.substr(10), "--slo-p99");
            if (bounds.size() != 2) {
                std::cerr << "--slo-p99 expects <ttft_s>,<tbt_s>\n";
                return usage();
            }
            scfg.slo.ttftP99MaxS = bounds[0];
            scfg.slo.tbtP99MaxS = bounds[1];
        } else if (arg.rfind("--demand=", 0) == 0) {
            scfg.fleetRatePerS =
                parseNumber<double>(arg.substr(9), "--demand");
        } else if (arg.rfind("--prompt=", 0) == 0) {
            scfg.promptLen = sim::LengthDistribution::fixed(
                parseNumber<int>(arg.substr(9), "--prompt"));
        } else if (arg.rfind("--output=", 0) == 0) {
            scfg.outputLen = sim::LengthDistribution::fixed(
                parseNumber<int>(arg.substr(9), "--output"));
        } else if (arg.rfind("--horizon=", 0) == 0) {
            scfg.horizonS =
                parseNumber<double>(arg.substr(10), "--horizon");
        } else if (arg.rfind("--", 0) == 0) {
            std::cerr << "unknown serve-sim option '" << arg << "'\n";
            return usage();
        } else {
            cfg = deviceByName(arg);
        }
    }

    if (!copts.fleet.empty())
        return runClusterSim(workload, scfg, copts);
    fatalIf(copts.disagg || !copts.traceFile.empty() ||
                copts.diurnal,
            "--disagg/--trace/--diurnal require --fleet=dev:count,...");

    const core::SanctionsStudy study(g_perf_params);
    const core::ServingStudyResult result =
        study.runServingStudy(cfg, workload, scfg);

    std::cout << cfg.name << ", " << args[0] << ", seed " << scfg.seed
              << ", horizon " << fmt(scfg.horizonS, 0) << " s\n";
    if (!result.curve.empty()) {
        Table t({"req/s", "done", "TTFT p50 (s)", "TTFT p99 (s)",
                 "TBT p50 (ms)", "TBT p99 (ms)", "attain",
                 "goodput tok/s", "max queue"});
        for (const auto &p : result.curve) {
            t.addRow({fmt(p.ratePerS, 2), std::to_string(p.completed),
                      fmt(p.ttft.p50S, 3), fmt(p.ttft.p99S, 3),
                      fmt(units::toMs(p.tbt.p50S), 2),
                      fmt(units::toMs(p.tbt.p99S), 2),
                      fmt(100.0 * p.attainment, 1) + "%",
                      fmt(p.goodputTokensPerS, 0),
                      std::to_string(p.maxQueueDepth)});
        }
        t.print(std::cout);
    }

    if (result.fleetSized) {
        const auto &plan = result.fleet;
        std::cout << "fleet for " << fmt(scfg.fleetRatePerS, 2)
                  << " req/s at p99 SLO (TTFT "
                  << fmt(scfg.slo.ttftP99MaxS, 2) << " s, TBT "
                  << fmt(scfg.slo.tbtP99MaxS, 3) << " s):\n";
        if (plan.simulated.feasible) {
            std::cout << "  simulated: " << plan.simulated.replicas
                      << " replicas = " << plan.simulated.devices
                      << " devices (" << plan.simulated.probes
                      << " probes)\n";
        } else {
            std::cout << "  simulated: infeasible within search cap\n";
        }
        std::cout << "  closed form: " << plan.closedFormDevices
                  << " devices (steady-state mean)\n";
        if (plan.burstFactor() > 0.0) {
            std::cout << "  burst factor: "
                      << fmt(plan.burstFactor(), 2) << "x\n";
        }
    }
    return 0;
}

int
runCommand(const std::string &cmd, const std::vector<std::string> &args)
{
    const obs::TraceSpan span("cli." + cmd);
    if (cmd == "classify")
        return cmdClassify(args);
    if (cmd == "db")
        return cmdDb(args);
    if (cmd == "evaluate")
        return cmdEvaluate(args);
    if (cmd == "sweep")
        return cmdSweep(args);
    if (cmd == "dse")
        return cmdDse(args);
    if (cmd == "coevo")
        return cmdCoevo(args);
    if (cmd == "metrics")
        return cmdMetrics(args);
    if (cmd == "serve-sim")
        return cmdServeSim(args);
    return usage();
}

/** Print the observability summary and write the trace file, if on. */
void
reportObs(const std::string &trace_path)
{
    if (!obs::enabled())
        return;
    std::cout << "\n--- observability summary ---\n";
    obs::summaryTable().print(std::cout);
    if (!trace_path.empty() &&
        obs::writeChromeTraceFile(trace_path)) {
        std::cout << "[trace] " << trace_path << " ("
                  << obs::traceEventCount() << " spans)\n";
    }
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    std::string trace_path = obs::enableFromEnv();
    int argi = 1;
    for (; argi < argc; ++argi) {
        const std::string arg = argv[argi];
        if (arg.rfind("--trace=", 0) == 0) {
            trace_path = arg.substr(8);
            obs::setEnabled(true);
        } else if (arg.rfind("--gemm-mode=", 0) == 0) {
            const std::string value = arg.substr(12);
            if (!perf::parseGemmMode(value, &g_perf_params.gemmMode)) {
                std::cerr << "unknown --gemm-mode '" << value
                          << "' (expected " << perf::gemmModeNames()
                          << ")\n";
                return usage();
            }
        } else if (arg.rfind("--gemm-cache=", 0) == 0) {
            const std::string value = arg.substr(13);
            if (value != "on" && value != "off") {
                std::cerr << "unknown --gemm-cache '" << value << "'\n";
                return usage();
            }
            g_perf_params.cacheTileSimGemms = value == "on";
        } else {
            break;
        }
    }
    if (argi >= argc)
        return usage();
    const std::string cmd = argv[argi];
    std::vector<std::string> args(argv + argi + 1, argv + argc);
    try {
        const int rc = runCommand(cmd, args);
        reportObs(trace_path);
        return rc;
    } catch (const FatalError &err) {
        std::cerr << err.what() << "\n";
        return 1;
    } catch (const std::invalid_argument &) {
        std::cerr << "error: numeric argument expected\n";
        return 2;
    }
}
