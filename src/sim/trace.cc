#include "trace.hh"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <istream>
#include <limits>
#include <string_view>
#include <utility>

#include "common/logging.hh"
#include "common/parse.hh"

namespace acs {
namespace sim {

double
DiurnalTraceSpec::rateAt(double t, bool in_burst) const
{
    // Sinusoid with mean baseRatePerS and amplitude a chosen so that
    // peak/trough == peakToTrough: a = (r - 1) / (r + 1).
    const double a = (peakToTrough - 1.0) / (peakToTrough + 1.0);
    const double envelope =
        baseRatePerS *
        (1.0 + a * std::sin(2.0 * M_PI * t / periodS));
    return in_burst ? envelope * burstMultiplier : envelope;
}

void
DiurnalTraceSpec::validate() const
{
    fatalIf(baseRatePerS <= 0.0,
            "DiurnalTraceSpec: baseRatePerS must be > 0");
    fatalIf(peakToTrough < 1.0,
            "DiurnalTraceSpec: peakToTrough must be >= 1");
    fatalIf(periodS <= 0.0, "DiurnalTraceSpec: periodS must be > 0");
    fatalIf(burstMultiplier < 1.0,
            "DiurnalTraceSpec: burstMultiplier must be >= 1");
    fatalIf(burstMeanS <= 0.0,
            "DiurnalTraceSpec: burstMeanS must be > 0");
    fatalIf(calmMeanS <= 0.0,
            "DiurnalTraceSpec: calmMeanS must be > 0");
    fatalIf(horizonS <= 0.0, "DiurnalTraceSpec: horizonS must be > 0");
    promptLen.validate();
    outputLen.validate();
}

bool
TraceWorkload::next(TraceRequest &out)
{
    TraceRequest r;
    if (!produce(r))
        return false;
    // Branch-then-throw: fatalIf would build the message (two
    // to_string calls) on every generated request.
    if (r.arrivalS < lastArrivalS_) {
        fatal("TraceWorkload: arrivals must be non-decreasing (got " +
              std::to_string(r.arrivalS) + " after " +
              std::to_string(lastArrivalS_) + ")");
    }
    if (r.promptLen < 1 || r.outputLen < 1)
        fatal("TraceWorkload: prompt/output lengths must be >= 1");
    lastArrivalS_ = r.arrivalS;
    ++produced_;
    out = r;
    return true;
}

namespace {

/** Open-loop Poisson stream in streaming form. */
class PoissonTrace final : public TraceWorkload
{
  public:
    PoissonTrace(double rate_per_s, const LengthDistribution &prompt,
                 const LengthDistribution &output, double horizon_s,
                 std::uint64_t seed)
        : rate_(rate_per_s), prompt_(prompt), output_(output),
          horizon_(horizon_s),
          arrivalRng_(substreamSeed(seed, 0)),
          lengthRng_(substreamSeed(seed, 1))
    {
        fatalIf(rate_ <= 0.0,
                "TraceWorkload::poisson: rate must be > 0");
        fatalIf(horizon_ <= 0.0,
                "TraceWorkload::poisson: horizon must be > 0");
        prompt_.validate();
        output_.validate();
    }

  protected:
    bool
    produce(TraceRequest &out) override
    {
        nextS_ += sampleExponentialS(arrivalRng_, rate_);
        if (nextS_ >= horizon_)
            return false;
        out.arrivalS = nextS_;
        out.promptLen = prompt_.sample(lengthRng_);
        out.outputLen = output_.sample(lengthRng_);
        return true;
    }

  private:
    double rate_;
    LengthDistribution prompt_;
    LengthDistribution output_;
    double horizon_;
    Rng arrivalRng_;
    Rng lengthRng_;
    double nextS_ = 0.0;
};

/**
 * Diurnal sinusoid x two-state burst modulation, sampled by thinning:
 * draw candidate arrivals from a homogeneous Poisson stream at the
 * maximum achievable rate and accept each with probability
 * rate(t)/maxRate. The burst state evolves on its own substream with
 * exponential dwell times, advanced lazily to each candidate time.
 */
class DiurnalTrace final : public TraceWorkload
{
  public:
    explicit DiurnalTrace(const DiurnalTraceSpec &spec) : spec_(spec)
    {
        spec_.validate();
        arrivalRng_ = Rng(substreamSeed(spec_.seed, 0));
        lengthRng_ = Rng(substreamSeed(spec_.seed, 1));
        stateRng_ = Rng(substreamSeed(spec_.seed, 2));
        const double a =
            (spec_.peakToTrough - 1.0) / (spec_.peakToTrough + 1.0);
        maxRate_ =
            spec_.baseRatePerS * (1.0 + a) * spec_.burstMultiplier;
        nextToggleS_ =
            sampleExponentialS(stateRng_, 1.0 / spec_.calmMeanS);
    }

  protected:
    bool
    produce(TraceRequest &out) override
    {
        for (;;) {
            candidateS_ +=
                sampleExponentialS(arrivalRng_, maxRate_);
            if (candidateS_ >= spec_.horizonS)
                return false;
            advanceStateTo(candidateS_);
            const double accept =
                spec_.rateAt(candidateS_, inBurst_) / maxRate_;
            if (arrivalRng_.uniform() < accept) {
                out.arrivalS = candidateS_;
                out.promptLen = spec_.promptLen.sample(lengthRng_);
                out.outputLen = spec_.outputLen.sample(lengthRng_);
                return true;
            }
        }
    }

  private:
    void
    advanceStateTo(double t)
    {
        while (nextToggleS_ <= t) {
            inBurst_ = !inBurst_;
            const double mean =
                inBurst_ ? spec_.burstMeanS : spec_.calmMeanS;
            nextToggleS_ +=
                sampleExponentialS(stateRng_, 1.0 / mean);
        }
    }

    DiurnalTraceSpec spec_;
    Rng arrivalRng_{0};
    Rng lengthRng_{0};
    Rng stateRng_{0};
    double maxRate_ = 0.0;
    double candidateS_ = 0.0;
    bool inBurst_ = false;
    double nextToggleS_ = 0.0;
};

/** Round @p len up to a positive multiple of @p quantum (wide: the
 *  result can pass INT_MAX). */
long long
quantizeLen(int len, int quantum)
{
    if (len < 1)
        len = 1;
    const int rem = len % quantum;
    return rem == 0 ? len : static_cast<long long>(len) + (quantum - rem);
}

/** Streaming CSV replay: one row parsed per produce() call. */
class CsvTrace final : public TraceWorkload
{
  public:
    CsvTrace(std::unique_ptr<std::istream> in, std::string label,
             int length_quantum)
        : in_(std::move(in)), label_(std::move(label)),
          quantum_(length_quantum)
    {
        fatalIf(!in_ || !*in_,
                "TraceWorkload: cannot read trace '" + label_ + "'");
        fatalIf(quantum_ < 1,
                "TraceWorkload: length_quantum must be >= 1");
    }

  protected:
    bool
    produce(TraceRequest &out) override
    {
        while (std::getline(*in_, line_)) {
            ++lineNo_;
            // Skip blank lines and a leading header row.
            if (line_.empty() ||
                line_.find_first_not_of(" \t\r") == std::string::npos)
                continue;
            if (lineNo_ == 1 &&
                line_.find_first_not_of("0123456789.,eE+- \t\r") !=
                    std::string::npos)
                continue;
            // Exactly three comma-separated fields, each trimmed of
            // spaces, tabs and '\r' and parsed whole.
            std::string_view fields[3];
            std::string_view rest = line_;
            std::size_t n = 0;
            for (;;) {
                const std::size_t comma = rest.find(',');
                if (n == 3)
                    malformed("expected 3 fields "
                              "arrival_s,prompt_len,output_len, got more");
                fields[n++] = trim(rest.substr(0, comma));
                if (comma == std::string_view::npos)
                    break;
                rest.remove_prefix(comma + 1);
            }
            if (n != 3)
                malformed("expected 3 fields "
                          "arrival_s,prompt_len,output_len, got " +
                          std::to_string(n));
            const auto length = [this](std::string_view f, const char *what) {
                const long long len =
                    quantizeLen(parseNumber<int>(f, what), quantum_);
                if (len > std::numeric_limits<int>::max())
                    fatal(std::string(what) + ": '" + std::string(f) +
                          "' is out of range once rounded up to the "
                          "length quantum");
                return static_cast<int>(len);
            };
            try {
                out.arrivalS = parseNumber<double>(fields[0], "arrival_s");
                out.promptLen = length(fields[1], "prompt_len");
                out.outputLen = length(fields[2], "output_len");
            } catch (const FatalError &e) {
                malformed(e.what());
            }
            return true;
        }
        return false;
    }

  private:
    static std::string_view
    trim(std::string_view f)
    {
        const std::size_t b = f.find_first_not_of(" \t\r");
        if (b == std::string_view::npos)
            return {};
        return f.substr(b, f.find_last_not_of(" \t\r") - b + 1);
    }

    /** The row error, naming file and line (formatted only here). */
    [[noreturn]] void
    malformed(const std::string &why) const
    {
        fatal("TraceWorkload: malformed row " + std::to_string(lineNo_) +
              " in '" + label_ + "': " + why);
    }

    std::unique_ptr<std::istream> in_;
    std::string label_;
    int quantum_;
    std::uint64_t lineNo_ = 0;
    std::string line_; //!< row buffer, reused across rows
};

/** In-memory replay of a pre-built schedule. */
class FixedTrace final : public TraceWorkload
{
  public:
    explicit FixedTrace(std::vector<TraceRequest> requests)
        : requests_(std::move(requests))
    {
        fatalIf(!std::is_sorted(requests_.begin(), requests_.end(),
                                [](const TraceRequest &a,
                                   const TraceRequest &b) {
                                    return a.arrivalS < b.arrivalS;
                                }),
                "TraceWorkload::fixedSchedule: requests must be "
                "sorted by arrival time");
    }

  protected:
    bool
    produce(TraceRequest &out) override
    {
        if (next_ >= requests_.size())
            return false;
        out = requests_[next_++];
        return true;
    }

  private:
    std::vector<TraceRequest> requests_;
    std::size_t next_ = 0;
};

} // anonymous namespace

std::unique_ptr<TraceWorkload>
TraceWorkload::poisson(double rate_per_s,
                       const LengthDistribution &prompt,
                       const LengthDistribution &output,
                       double horizon_s, std::uint64_t seed)
{
    return std::make_unique<PoissonTrace>(rate_per_s, prompt, output,
                                          horizon_s, seed);
}

std::unique_ptr<TraceWorkload>
TraceWorkload::diurnal(const DiurnalTraceSpec &spec)
{
    return std::make_unique<DiurnalTrace>(spec);
}

std::unique_ptr<TraceWorkload>
TraceWorkload::fromCsvFile(const std::string &path, int length_quantum)
{
    auto in = std::make_unique<std::ifstream>(path);
    fatalIf(!*in, "TraceWorkload: cannot open trace file '" + path +
                      "'");
    return std::make_unique<CsvTrace>(std::move(in), path,
                                      length_quantum);
}

std::unique_ptr<TraceWorkload>
TraceWorkload::fromCsv(std::unique_ptr<std::istream> in,
                       const std::string &label, int length_quantum)
{
    return std::make_unique<CsvTrace>(std::move(in), label,
                                      length_quantum);
}

std::unique_ptr<TraceWorkload>
TraceWorkload::fixedSchedule(std::vector<TraceRequest> requests)
{
    return std::make_unique<FixedTrace>(std::move(requests));
}

} // namespace sim
} // namespace acs
