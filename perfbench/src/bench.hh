/**
 * @file
 * Shared pieces of the end-to-end benchmark: run options, timing
 * samples, output checks, golden values, the span tracer, and the
 * workload interface every workload file implements.
 */

#ifndef PERFBENCH_BENCH_HH
#define PERFBENCH_BENCH_HH

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Seconds elapsed since @p start. */
double secondsSince(Clock::time_point start);

/** The seed whose outputs were recorded as golden values. */
constexpr std::uint64_t DEFAULT_SEED = 1;

/** Command-line options of one benchmark run. */
struct Options
{
    std::string workload;
    std::uint64_t seed = DEFAULT_SEED;
    double seconds = 10.0;
    bool trace = false;
    /** Shrunk inputs for the benchmark's own tests (not for timing). */
    bool tiny = false;
    /** Worker threads of the library's shared pool (nproc). */
    unsigned threads = 1;
    std::string goldenPath = "perfbench/golden.txt";
    std::string outDir = ".bench_build/out";
    /** When set, write this run's golden values to this file. */
    std::string recordGoldenPath;
};

/**
 * Per-name timing samples of one run. Every end-to-end number is the
 * median of its samples, reported with the sample count.
 */
class Samples
{
  public:
    void add(const std::string &name, const std::string &unit,
             double value);
    double median(const std::string &name) const;
    double min(const std::string &name) const;
    double max(const std::string &name) const;
    std::size_t count(const std::string &name) const;
    const std::string &unit(const std::string &name) const;
    /** Names in first-recorded order. */
    const std::vector<std::string> &names() const { return order_; }

  private:
    struct Series
    {
        std::string unit;
        std::vector<double> values;
    };
    std::map<std::string, Series> series_;
    std::vector<std::string> order_;
};

/**
 * Simulated outputs of one repetition (argmins, fingerprints, p99s),
 * keyed by name and rendered exactly (hex doubles where needed). They
 * are correctness checks, never metrics: every repetition must
 * reproduce them, and the default seed must reproduce the golden file.
 */
using Outputs = std::map<std::string, std::string>;

/** Render a double with every bit (hexfloat). */
std::string exact(double v);

/**
 * Output checks: each comparison is one attempted operation, each
 * mismatch or exception one failed operation. Nothing aborts.
 */
class Checks
{
  public:
    void expect(bool ok, const std::string &what);
    /** Run @p fn; an exception it throws counts as a failure. */
    void guard(const std::string &what, const std::function<void()> &fn);

    std::size_t attempted() const { return attempted_; }
    std::size_t failed() const { return failures_.size(); }
    const std::vector<std::string> &failures() const { return failures_; }

  private:
    std::size_t attempted_ = 0;
    std::vector<std::string> failures_;
};

/** Golden values: one "key value..." line each. */
class Golden
{
  public:
    /** Load @p path; a missing file leaves the set empty. */
    void load(const std::string &path);
    const std::string *find(const std::string &key) const;

    /**
     * Write @p outputs into @p path as "<workload>.<key> value" lines,
     * replacing those keys and keeping every other line.
     */
    static void write(const std::string &path, const std::string &workload,
                      const Outputs &outputs);

  private:
    std::map<std::string, std::string> values_;
};

/**
 * In-memory span recorder for the traced run. Spans carry a name
 * ("<layer>.<what>"), start and end, the enclosing span, and an
 * operation id shared by the spans of one logical operation. Per-name
 * call counts, inclusive time and self time (a span's duration minus
 * its direct children's) are kept for every span; the first
 * SPAN_CAP spans are also kept whole and written out at exit as
 * Chrome-trace JSON.
 */
class Tracer
{
  public:
    static constexpr std::size_t SPAN_CAP = 100000;

    struct Span
    {
        int name = 0;
        std::int64_t startNs = 0;
        std::int64_t endNs = 0;
        int parent = -1; //!< index into spans(), -1 at the root
        std::uint64_t op = 0;
    };

    /** Per-name totals over every span, kept or not. */
    struct Stat
    {
        std::string name;
        std::size_t calls = 0;
        double totalS = 0.0;
        double selfS = 0.0;
    };

    Tracer();

    /** RAII scope: opens a span now and closes it on destruction. */
    class Scope
    {
      public:
        Scope(Tracer &tracer, std::string_view name);
        ~Scope();
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        Tracer &tracer_;
    };

    /** Start a new logical operation; later spans carry its id. */
    void beginOp() { ++op_; }

    /** A per-layer metric the traced run reports. */
    struct Metric
    {
        std::string unit;
        double value = 0.0;
    };

    /** Set per-layer metric @p name (counts, ratios, self times). */
    void metric(const std::string &name, const std::string &unit,
                double value);

    const std::vector<Span> &spans() const { return spans_; }
    const std::vector<Stat> &stats() const { return stats_; }
    /** Spans recorded, kept or not. */
    std::size_t spanCount() const { return spanCount_; }
    const std::map<std::string, Metric> &metrics() const
    {
        return metrics_;
    }

    /** Self seconds of every span named @p name (0 if none). */
    double selfSeconds(std::string_view name) const;
    /** Spans named @p name (0 if none). */
    std::size_t calls(std::string_view name) const;

    /** Write the kept spans as Chrome-trace JSON ("X" events, us). */
    void writeChromeTrace(const std::string &path) const;

  private:
    struct Open
    {
        int name;
        std::int64_t startNs;
        std::int64_t childNs; //!< summed durations of closed children
        int kept;             //!< index into spans_, -1 when not kept
    };

    struct NameHash
    {
        using is_transparent = void;
        std::size_t operator()(std::string_view s) const
        {
            return std::hash<std::string_view>{}(s);
        }
    };

    std::int64_t nowNs() const;
    int intern(std::string_view name);
    const Stat *find(std::string_view name) const;

    Clock::time_point origin_;
    std::unordered_map<std::string, int, NameHash, std::equal_to<>> ids_;
    std::vector<Stat> stats_;
    std::vector<Open> stack_;
    std::vector<Span> spans_;
    std::size_t spanCount_ = 0;
    std::map<std::string, Metric> metrics_;
    std::uint64_t op_ = 0;
};

/**
 * One named workload. The runner constructs it, calls setup() (timed
 * as setup_s, repeated), then run() repeatedly for the measured
 * window, verify() once, and — in a traced run — replay() once.
 */
class Workload
{
  public:
    virtual ~Workload() = default;

    /** Build every input from the seed (the set-up phase). */
    virtual void setup() = 0;

    /**
     * One repetition of the batch job through the fused public API,
     * untraced. Records its part timings into @p samples and its
     * simulated outputs into @p out.
     */
    virtual void run(Samples &samples, Outputs &out) = 0;

    /** Name of the headline rate sample run() records. */
    virtual const char *headline() const = 0;

    /** Invariants that hold for every seed (adaptive == exhaustive,
     *  cache on == off, ...). */
    virtual void verify(Checks &checks) = 0;

    /**
     * The same inputs replayed step by step through the layers'
     * public functions, single-threaded, with a span around each call,
     * setting the per-layer metrics. Outputs it shares with run() must
     * match them exactly. Returns the wall seconds of the decomposed
     * calls, which fusedSerial() times undecomposed.
     */
    virtual double replay(Tracer &tracer, Outputs &out) = 0;

    /** Wall seconds of the fused calls replay() decomposes, on one
     *  thread and untraced. */
    virtual double fusedSerial() = 0;
};

std::unique_ptr<Workload> makeDse(const Options &opts);
std::unique_ptr<Workload> makeServe(const Options &opts);
std::unique_ptr<Workload> makeCycle(const Options &opts);
std::unique_ptr<Workload> makeCoevo(const Options &opts);

} // namespace perfbench

#endif // PERFBENCH_BENCH_HH
