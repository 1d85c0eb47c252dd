/**
 * @file
 * End-to-end benchmark of the sanctions study: one process runs one
 * named workload (dse, serve, cycle, coevo) against the libraries'
 * public API and prints every metric with its unit, ending with one
 * JSON result line.
 *
 *   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *             [--tiny] [--golden <file>] [--out-dir <dir>]
 *             [--record-golden <file>]
 *
 * Untraced runs (--trace 0) time the fused calls; a traced run
 * (--trace 1) replays the same inputs step by step with a span around
 * every layer call and reports per-layer self time. See
 * perfbench/README.md.
 */

#include <sched.h>
#include <time.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench.hh"
#include "common/thread_pool.hh"
#include "obs/obs.hh"
#include "perf/gemm_cache.hh"
#include "perf/perf_params.hh"

using namespace perfbench;

namespace {

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "perfbench: " << why << "\n"
              << "usage: perfbench --workload dse|serve|cycle|coevo "
                 "--seed N --seconds S --trace 0|1 [--tiny] "
                 "[--golden FILE] [--out-dir DIR] "
                 "[--record-golden FILE]\n";
    std::exit(2);
}

/** Strict unsigned parse: digits only, whole string. */
std::uint64_t
parseUnsigned(const std::string &flag, const std::string &text)
{
    const auto bad = [&]() {
        usage(flag + " expects a 64-bit non-negative integer, got '" +
              text + "'");
    };
    if (text.empty() ||
        text.find_first_not_of("0123456789") != std::string::npos)
        bad();
    try {
        return std::stoull(text);
    } catch (const std::out_of_range &) {
        bad();
    }
    return 0;
}

/** CPUs this process may run on (what `nproc` prints). */
unsigned
nproc()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0)
        return std::max(1, CPU_COUNT(&set));
    return 1;
}

/** CPU seconds this process has run, all threads, steal excluded. */
double
cpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) + 1e-9 * ts.tv_nsec;
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

std::string
jsonNumber(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20)
            out += c;
    }
    return out + "\"";
}

std::string
compilerName()
{
#if defined(__clang__)
    return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
    return std::string("gcc ") + __VERSION__;
#else
    return "unknown";
#endif
}

/** The GEMM modes each workload evaluates in. */
std::vector<acs::perf::GemmMode>
workloadModes(const std::string &workload)
{
    using acs::perf::GemmMode;
    if (workload == "dse")
        return {GemmMode::ANALYTIC, GemmMode::TILE_SIM};
    if (workload == "cycle")
        return {GemmMode::CYCLE_SIM, GemmMode::TILE_SIM};
    return {GemmMode::ANALYTIC};
}

/** Run manifest: what built and ran this measurement. */
std::string
manifestJson(const Options &opts, unsigned cpus)
{
    const char *sha = std::getenv("PERFBENCH_GIT_SHA");
    const char *src = std::getenv("PERFBENCH_SOURCE_SHA256");
    std::ostringstream modes;
    std::ostringstream fps;
    bool first = true;
    for (const acs::perf::GemmMode mode : workloadModes(opts.workload)) {
        acs::perf::PerfParams params;
        params.gemmMode = mode;
        char fp[32];
        std::snprintf(fp, sizeof(fp), "%016llx",
                      static_cast<unsigned long long>(
                          acs::perf::fingerprintGemmParams(params)));
        modes << (first ? "" : ",") << jsonString(toString(mode));
        fps << (first ? "" : ",") << jsonString(toString(mode)) << ":"
            << jsonString(fp);
        first = false;
    }
    std::ostringstream out;
    out << "{\"git_sha\":" << jsonString(sha && *sha ? sha : "unknown")
        << ",\"source_sha256\":"
        << jsonString(src && *src ? src : "unknown")
        << ",\"compiler\":" << jsonString(compilerName())
        << ",\"build_type\":" << jsonString(PERFBENCH_BUILD_TYPE)
        << ",\"nproc\":" << cpus << ",\"pool_threads\":"
        << acs::common::ThreadPool::shared().concurrency()
        << ",\"workload\":" << jsonString(opts.workload)
        << ",\"seed\":" << opts.seed << ",\"seconds\":"
        << jsonNumber(opts.seconds) << ",\"tiny\":"
        << (opts.tiny ? "true" : "false") << ",\"gemm_modes\":["
        << modes.str() << "],\"perf_params_fp\":{" << fps.str() << "}}";
    return out.str();
}

std::unique_ptr<Workload>
makeWorkload(const Options &opts)
{
    if (opts.workload == "dse")
        return makeDse(opts);
    if (opts.workload == "serve")
        return makeServe(opts);
    if (opts.workload == "cycle")
        return makeCycle(opts);
    if (opts.workload == "coevo")
        return makeCoevo(opts);
    usage("unknown workload '" + opts.workload + "'");
}

Options
parseArgs(int argc, char **argv)
{
    Options opts;
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(arg + " needs a value");
            return argv[++i];
        };
        if (arg == "--workload") {
            opts.workload = value();
            have_workload = true;
        } else if (arg == "--seed") {
            opts.seed = parseUnsigned(arg, value());
        } else if (arg == "--seconds") {
            opts.seconds =
                static_cast<double>(parseUnsigned(arg, value()));
            if (opts.seconds < 1 || opts.seconds > 120)
                usage("--seconds must be within 1..120");
        } else if (arg == "--trace") {
            const std::string v = value();
            if (v != "0" && v != "1")
                usage("--trace expects 0 or 1");
            opts.trace = v == "1";
        } else if (arg == "--tiny") {
            opts.tiny = true;
        } else if (arg == "--golden") {
            opts.goldenPath = value();
        } else if (arg == "--out-dir") {
            opts.outDir = value();
        } else if (arg == "--record-golden") {
            opts.recordGoldenPath = value();
        } else {
            usage("unknown argument '" + arg + "'");
        }
    }
    if (!have_workload)
        usage("--workload is required");
    return opts;
}

/** Compare outputs against the golden file (fixed.* keys any seed). */
void
checkGolden(const Options &opts, const Outputs &outputs, Checks &checks)
{
    Golden golden;
    golden.load(opts.goldenPath);
    for (const auto &[key, value] : outputs) {
        const bool fixed = key.rfind("fixed.", 0) == 0;
        if (!fixed && opts.seed != DEFAULT_SEED)
            continue;
        if (opts.tiny && !fixed)
            continue;
        const std::string *want = golden.find(opts.workload + "." + key);
        checks.expect(want && *want == value,
                      "golden " + key + ": got '" + value + "', want '" +
                          (want ? *want : std::string("<missing>")) +
                          "'");
    }
}

/** One metric of the JSON result line. */
struct Reported
{
    std::string name;
    double value;
    std::string unit;
};

void
printResult(const Checks &checks, const std::vector<Reported> &metrics)
{
    std::ostringstream out;
    out << "{\"correct\": " << (checks.failed() == 0 ? "true" : "false")
        << ", \"attempted\": " << checks.attempted()
        << ", \"failed\": " << checks.failed() << ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        out << (i ? ", " : "") << jsonString(metrics[i].name)
            << ": {\"value\": " << jsonNumber(metrics[i].value)
            << ", \"unit\": " << jsonString(metrics[i].unit) << "}";
    }
    out << "}}";
    std::cout << out.str() << std::endl;
}

void
reportFailures(const Checks &checks)
{
    for (const std::string &f : checks.failures())
        std::cout << "CHECK FAILED: " << f << "\n";
    std::cout << "checks: " << checks.attempted() << " attempted, "
              << checks.failed() << " failed\n";
}

/** Untraced run: repeated set-up, the measured window, the checks. */
int
runUntraced(const Options &opts, const std::string &manifest)
{
    Samples samples;
    Checks checks;
    // Set up repeatedly and report the median: at least three times,
    // and for a quarter second when set-up is quick.
    std::unique_ptr<Workload> w;
    const auto setups = Clock::now();
    for (int k = 0; k < 3 || (secondsSince(setups) < 0.25 && k < 500);
         ++k) {
        w.reset();
        const auto t0 = Clock::now();
        w = makeWorkload(opts);
        w->setup();
        samples.add("setup_s", "s", secondsSince(t0));
    }

    Outputs first;
    int reps = 0;
    const auto window = Clock::now();
    do {
        Outputs out;
        const auto t0 = Clock::now();
        const double c0 = cpuSeconds();
        w->run(samples, out);
        samples.add("job_s", "s", secondsSince(t0));
        samples.add("job_cpu_s", "s", cpuSeconds() - c0);
        if (reps == 0)
            first = std::move(out);
        else
            checks.expect(out == first,
                          "repetition " + std::to_string(reps) +
                              " reproduces the first repetition's "
                              "outputs");
        ++reps;
    } while (secondsSince(window) < opts.seconds);

    checkGolden(opts, first, checks);
    checks.guard("verify", [&] { w->verify(checks); });
    if (!opts.recordGoldenPath.empty())
        Golden::write(opts.recordGoldenPath, opts.workload, first);

    std::cout << "manifest: " << manifest << "\n";
    std::cout << "workload " << opts.workload << ", seed " << opts.seed
              << ", " << reps << " repetitions in "
              << jsonNumber(secondsSince(window)) << " s\n";
    for (const std::string &name : samples.names()) {
        std::cout << "  " << name << " = "
                  << jsonNumber(samples.median(name)) << " "
                  << samples.unit(name) << " (median of "
                  << samples.count(name) << ", range "
                  << jsonNumber(samples.min(name)) << " .. "
                  << jsonNumber(samples.max(name)) << ")\n";
    }
    for (const auto &[key, value] : first)
        std::cout << "  output " << key << " = " << value << "\n";
    reportFailures(checks);

    printResult(checks,
                {{"setup_s", samples.median("setup_s"), "s"},
                 {"peak_rss_mb", peakRssMb(), "MB"},
                 {"job_s", samples.median("job_s"), "s"},
                 {"rate_per_s", samples.median(w->headline()), "1/s"}});
    return 0;
}

/** Traced run: one untraced repetition, then the traced replay. */
int
runTraced(const Options &opts, const std::string &manifest)
{
    Checks checks;
    Samples samples;
    std::unique_ptr<Workload> w = makeWorkload(opts);
    w->setup();

    Outputs fused;
    const auto u0 = Clock::now();
    w->run(samples, fused);
    const double untraced = secondsSince(u0);

    Tracer tracer;
    Outputs replayed;
    double decomposed = 0.0;
    const std::string root = opts.workload + ".replay";
    const auto t0 = Clock::now();
    {
        const Tracer::Scope span(tracer, root);
        decomposed = w->replay(tracer, replayed);
    }
    const double traced = secondsSince(t0);
    const double serial = w->fusedSerial();

    for (const auto &[key, value] : replayed) {
        const auto it = fused.find(key);
        if (it != fused.end())
            checks.expect(it->second == value,
                          "replayed " + key + " matches the fused call");
    }
    checkGolden(opts, fused, checks);
    Outputs trace_only;
    for (const auto &[key, value] : replayed)
        if (!fused.count(key))
            trace_only[key] = value;
    checkGolden(opts, trace_only, checks);
    if (!opts.recordGoldenPath.empty())
        Golden::write(opts.recordGoldenPath, opts.workload, trace_only);

    // Per-layer self-time table, largest self time first. The root
    // span's self time is the benchmark's own bookkeeping between
    // layer calls.
    std::vector<Tracer::Stat> order = tracer.stats();
    std::sort(order.begin(), order.end(),
              [](const Tracer::Stat &a, const Tracer::Stat &b) {
                  return a.selfS > b.selfS;
              });
    double self_sum = 0.0;
    const Tracer::Stat *top = nullptr;
    for (const Tracer::Stat &s : order) {
        self_sum += s.selfS;
        if (!top && s.name != root)
            top = &s;
    }
    const double overhead = traced / untraced;
    tracer.metric("trace.overhead", "ratio", overhead);

    std::error_code ec;
    std::filesystem::create_directories(opts.outDir, ec);
    const std::string trace_path =
        opts.outDir + "/" + opts.workload + ".trace.json";
    const std::string layers_path =
        opts.outDir + "/" + opts.workload + ".layers.json";
    checks.guard("write trace", [&] { tracer.writeChromeTrace(trace_path); });

    std::cout << "manifest: " << manifest << "\n";
    std::cout << "traced replay of " << opts.workload << ": "
              << tracer.spanCount() << " spans (" << tracer.spans().size()
              << " kept), traced " << jsonNumber(traced)
              << " s vs untraced " << jsonNumber(untraced) << " s\n";
    std::printf("  %-28s %10s %12s %12s %7s\n", "layer", "calls",
                "total_s", "self_s", "self%");
    for (const Tracer::Stat &s : order) {
        std::printf("  %-28s %10zu %12.6f %12.6f %6.2f%%\n", s.name.c_str(),
                    s.calls, s.totalS, s.selfS,
                    self_sum > 0 ? 100.0 * s.selfS / self_sum : 0.0);
    }
    std::printf("  decomposed calls %.6f s vs the same calls fused on one "
                "thread %.6f s (gap %+.6f s)\n",
                decomposed, serial, decomposed - serial);

    std::ofstream layers(layers_path);
    layers << "{\"manifest\": " << manifest << ",\n \"trace\": "
           << jsonString(trace_path) << ",\n \"metrics\": {";
    bool first = true;
    std::cout << "per-layer metrics:\n";
    for (const auto &[name, m] : tracer.metrics()) {
        std::cout << "  " << name << " = " << jsonNumber(m.value) << " "
                  << m.unit << "\n";
        layers << (first ? "\n  " : ",\n  ") << jsonString(name)
               << ": {\"value\": " << jsonNumber(m.value)
               << ", \"unit\": " << jsonString(m.unit) << "}";
        first = false;
    }
    layers << "},\n \"self_time\": [";
    for (std::size_t i = 0; i < order.size(); ++i) {
        layers << (i ? ",\n  " : "\n  ") << "{\"layer\": "
               << jsonString(order[i].name) << ", \"calls\": "
               << order[i].calls << ", \"total_s\": "
               << jsonNumber(order[i].totalS)
               << ", \"self_s\": " << jsonNumber(order[i].selfS) << "}";
    }
    layers << "]}\n";
    std::cout << "[trace] " << trace_path << "\n[layers] " << layers_path
              << "\n";
    reportFailures(checks);

    const double top_s = top ? top->selfS : 0.0;
    printResult(
        checks,
        {{"trace.overhead", overhead, "ratio"},
         {"trace.fused_ratio", serial > 0 ? decomposed / serial : 0.0,
          "ratio"},
         {"trace.spans", static_cast<double>(tracer.spanCount()), "count"},
         {"trace.layers", static_cast<double>(order.size()), "count"},
         {"trace.top_self_s", top_s, "s"},
         {"trace.top_self_share", self_sum > 0 ? top_s / self_sum : 0.0,
          "ratio"}});
    return 0;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    Options opts = parseArgs(argc, argv);

    // End-to-end numbers come from runs with the library's own
    // recording off; size the shared pool to the CPUs we may use.
    unsetenv("ACS_TRACE");
    const unsigned cpus = nproc();
    setenv("ACS_THREADS", std::to_string(cpus).c_str(), 1);
    opts.threads = acs::common::ThreadPool::shared().concurrency();
    if (acs::obs::enabled()) {
        std::cerr << "perfbench: library recording is on; refusing to "
                     "measure\n";
        return 1;
    }

    try {
        const std::string manifest = manifestJson(opts, cpus);
        return opts.trace ? runTraced(opts, manifest)
                          : runUntraced(opts, manifest);
    } catch (const std::exception &e) {
        std::cerr << "perfbench: " << e.what() << "\n";
        return 1;
    }
}
