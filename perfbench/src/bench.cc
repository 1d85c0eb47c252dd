#include "bench.hh"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <stdexcept>

namespace perfbench {

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

// ---- Samples ---------------------------------------------------------------

void
Samples::add(const std::string &name, const std::string &unit,
             double value)
{
    auto [it, inserted] = series_.try_emplace(name);
    if (inserted) {
        it->second.unit = unit;
        order_.push_back(name);
    }
    it->second.values.push_back(value);
}

double
Samples::median(const std::string &name) const
{
    std::vector<double> v = series_.at(name).values;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
Samples::min(const std::string &name) const
{
    const std::vector<double> &v = series_.at(name).values;
    return *std::min_element(v.begin(), v.end());
}

double
Samples::max(const std::string &name) const
{
    const std::vector<double> &v = series_.at(name).values;
    return *std::max_element(v.begin(), v.end());
}

std::size_t
Samples::count(const std::string &name) const
{
    return series_.at(name).values.size();
}

const std::string &
Samples::unit(const std::string &name) const
{
    return series_.at(name).unit;
}

std::string
exact(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%a", v);
    return buf;
}

// ---- Checks ----------------------------------------------------------------

void
Checks::expect(bool ok, const std::string &what)
{
    ++attempted_;
    if (!ok)
        failures_.push_back(what);
}

void
Checks::guard(const std::string &what, const std::function<void()> &fn)
{
    try {
        fn();
    } catch (const std::exception &e) {
        expect(false, what + ": " + e.what());
    }
}

// ---- Golden ----------------------------------------------------------------

void
Golden::load(const std::string &path)
{
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        const std::size_t sp = line.find(' ');
        if (sp == std::string::npos)
            continue;
        values_[line.substr(0, sp)] = line.substr(sp + 1);
    }
}

const std::string *
Golden::find(const std::string &key) const
{
    const auto it = values_.find(key);
    return it == values_.end() ? nullptr : &it->second;
}

void
Golden::write(const std::string &path, const std::string &workload,
              const Outputs &outputs)
{
    // Replace this workload's keys that @p outputs names; keep the rest.
    std::map<std::string, std::string> lines;
    {
        std::ifstream in(path);
        std::string line;
        while (std::getline(in, line)) {
            const std::size_t sp = line.find(' ');
            if (sp != std::string::npos)
                lines[line.substr(0, sp)] = line.substr(sp + 1);
        }
    }
    for (const auto &[key, value] : outputs)
        lines[workload + "." + key] = value;
    std::ofstream out(path);
    if (!out)
        throw std::runtime_error("cannot write golden file " + path);
    for (const auto &[key, value] : lines)
        out << key << ' ' << value << '\n';
}

// ---- Tracer ----------------------------------------------------------------

Tracer::Tracer() : origin_(Clock::now()) {}

std::int64_t
Tracer::nowNs() const
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - origin_)
        .count();
}

int
Tracer::intern(std::string_view name)
{
    const auto it = ids_.find(name);
    if (it != ids_.end())
        return it->second;
    const int id = static_cast<int>(stats_.size());
    stats_.push_back({std::string(name), 0, 0.0, 0.0});
    ids_.emplace(std::string(name), id);
    return id;
}

const Tracer::Stat *
Tracer::find(std::string_view name) const
{
    const auto it = ids_.find(name);
    return it == ids_.end() ? nullptr : &stats_[it->second];
}

Tracer::Scope::Scope(Tracer &tracer, std::string_view name)
    : tracer_(tracer)
{
    Open open{tracer.intern(name), 0, 0, -1};
    if (tracer.spans_.size() < SPAN_CAP) {
        open.kept = static_cast<int>(tracer.spans_.size());
        Span span;
        span.name = open.name;
        span.parent = tracer.stack_.empty() ? -1 : tracer.stack_.back().kept;
        span.op = tracer.op_;
        tracer.spans_.push_back(span);
    }
    tracer.stack_.push_back(open);
    // Read the clock last so span bookkeeping stays outside the span.
    tracer.stack_.back().startNs = tracer.nowNs();
}

Tracer::Scope::~Scope()
{
    const std::int64_t end = tracer_.nowNs();
    const Open open = tracer_.stack_.back();
    tracer_.stack_.pop_back();
    const std::int64_t dur = end - open.startNs;
    Stat &stat = tracer_.stats_[open.name];
    ++stat.calls;
    stat.totalS += 1e-9 * static_cast<double>(dur);
    stat.selfS += 1e-9 * static_cast<double>(dur - open.childNs);
    if (!tracer_.stack_.empty())
        tracer_.stack_.back().childNs += dur;
    if (open.kept >= 0) {
        tracer_.spans_[open.kept].startNs = open.startNs;
        tracer_.spans_[open.kept].endNs = end;
    }
    ++tracer_.spanCount_;
}

void
Tracer::metric(const std::string &name, const std::string &unit,
               double value)
{
    metrics_[name] = {unit, value};
}

double
Tracer::selfSeconds(std::string_view name) const
{
    const Stat *stat = find(name);
    return stat ? stat->selfS : 0.0;
}

std::size_t
Tracer::calls(std::string_view name) const
{
    const Stat *stat = find(name);
    return stat ? stat->calls : 0;
}

void
Tracer::writeChromeTrace(const std::string &path) const
{
    std::ofstream out(path);
    if (!out)
        throw std::runtime_error("cannot write trace " + path);
    out << "{\"displayTimeUnit\":\"ms\",\"otherData\":{\"spans\":"
        << spanCount_ << ",\"kept\":" << spans_.size()
        << "},\"traceEvents\":[";
    char buf[64];
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        const std::string &name = stats_[s.name].name;
        out << (i ? ",\n" : "\n") << "{\"name\":\"" << name
            << "\",\"cat\":\"" << name.substr(0, name.find('.'))
            << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":";
        std::snprintf(buf, sizeof(buf), "%.3f",
                      1e-3 * static_cast<double>(s.startNs));
        out << buf << ",\"dur\":";
        std::snprintf(buf, sizeof(buf), "%.3f",
                      1e-3 * static_cast<double>(s.endNs - s.startNs));
        out << buf << ",\"args\":{\"id\":" << i << ",\"parent\":"
            << s.parent << ",\"op\":" << s.op << "}}";
    }
    out << "\n]}\n";
}

} // namespace perfbench
