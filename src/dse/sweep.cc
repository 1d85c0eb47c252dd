#include "sweep.hh"

#include <charconv>
#include <sstream>

#include <algorithm>

#include "common/logging.hh"
#include "common/units.hh"
#include "hw/presets.hh"
#include "obs/obs.hh"

namespace acs {
namespace dse {

std::size_t
SweepSpace::size() const
{
    return systolicDims.size() * lanesPerCore.size() *
           l1BytesPerCore.size() * l2Bytes.size() * memBandwidths.size() *
           deviceBandwidths.size() * diesPerPackage.size();
}

namespace {

/** FNV-1a over raw bytes (fingerprints below; not cryptographic). */
std::uint64_t
fnv1a(const void *data, std::size_t len, std::uint64_t h)
{
    const auto *p = static_cast<const unsigned char *>(data);
    for (std::size_t i = 0; i < len; ++i) {
        h ^= p[i];
        h *= 1099511628211ull;
    }
    return h;
}

template <typename T>
std::uint64_t
fnvValue(const T &v, std::uint64_t h)
{
    return fnv1a(&v, sizeof(v), h);
}

template <typename T>
std::uint64_t
fnvList(const std::vector<T> &values, std::uint64_t h)
{
    const std::size_t n = values.size();
    h = fnvValue(n, h);
    for (const T &v : values)
        h = fnvValue(v, h);
    return h;
}

/**
 * Fingerprint of every field feasibleSize() depends on: the parameter
 * lists (their sizes fix the product; dims/lanes/dies also gate
 * feasibility), the TPP target, and the base clock/bitwidth that
 * enter coresForTpp.
 */
std::uint64_t
feasibilityFingerprint(const SweepSpace &space)
{
    std::uint64_t h = 14695981039346656037ull;
    h = fnvValue(space.tppTarget, h);
    h = fnvValue(space.base.clockHz, h);
    h = fnvValue(space.base.opBitwidth, h);
    h = fnvList(space.systolicDims, h);
    h = fnvList(space.lanesPerCore, h);
    h = fnvList(space.l1BytesPerCore, h);
    h = fnvList(space.l2Bytes, h);
    h = fnvList(space.memBandwidths, h);
    h = fnvList(space.deviceBandwidths, h);
    h = fnvList(space.diesPerPackage, h);
    return h;
}

} // anonymous namespace

std::size_t
SweepSpace::feasibleSize() const
{
    const std::uint64_t fp = feasibilityFingerprint(*this);
    if (feasibleCached_ && feasibleFp_ == fp)
        return feasibleCount_;
    feasibleCount_ = SweepPlan(*this).pointCount();
    feasibleFp_ = fp;
    feasibleCached_ = true;
    return feasibleCount_;
}

std::vector<SweepAxis>
SweepSpace::axes() const
{
    // Enumeration order, outermost first. Comm-only axes must stay
    // innermost (SweepPlan relies on this for commOnlyRunLength();
    // tests/test_dse.cpp asserts the resulting adjacency).
    return {
        {"diesPerPackage", AxisEffect::COMPUTE, diesPerPackage.size()},
        {"systolicDims", AxisEffect::COMPUTE, systolicDims.size()},
        {"lanesPerCore", AxisEffect::COMPUTE, lanesPerCore.size()},
        {"l1BytesPerCore", AxisEffect::COMPUTE, l1BytesPerCore.size()},
        {"l2Bytes", AxisEffect::COMPUTE, l2Bytes.size()},
        {"memBandwidths", AxisEffect::COMPUTE, memBandwidths.size()},
        {"deviceBandwidths", AxisEffect::COMM_ONLY,
         deviceBandwidths.size()},
    };
}

namespace {

constexpr double PHY_BW = 50.0 * units::GBPS;

/**
 * Append an integer to @p s, matching ostream's formatting.
 */
void
appendNum(std::string &s, long v)
{
    char buf[24];
    const auto r = std::to_chars(buf, buf + sizeof(buf), v);
    s.append(buf, r.ptr);
}

/**
 * Append a double to @p s. to_chars with chars_format::general at
 * precision 6 is specified to produce printf-%g bytes in the C locale
 * — exactly ostream's default float formatting — so names built here
 * are byte-identical to the historical ostringstream ones;
 * tests/test_dse.cpp asserts this against a stream-built reference.
 */
void
appendNum(std::string &s, double v)
{
    char buf[32];
    const auto r = std::to_chars(buf, buf + sizeof(buf), v,
                                 std::chars_format::general, 6);
    s.append(buf, r.ptr);
}

/**
 * Fill the swept hardware fields of one design point into @p out
 * (name and validation are the caller's job — SweepPlan::point
 * assembles the name from fragments precompiled per axis value).
 */
void
fillFields(const SweepSpace &space, int dies, int dim, int lanes,
           int cores, double l1, double l2, double mem_bw, double dev_bw,
           hw::HardwareConfig *out)
{
    hw::HardwareConfig &cfg = *out;
    cfg = space.base;
    cfg.systolicDimX = dim;
    cfg.systolicDimY = dim;
    cfg.lanesPerCore = lanes;
    cfg.coreCount = cores;
    cfg.l1BytesPerCore = l1;
    cfg.l2Bytes = l2;
    cfg.memBandwidth = mem_bw;
    // Round to the nearest whole PHY but never below one: bandwidths
    // under half a PHY (25 GB/s) would otherwise round to an
    // interconnect-less design.
    cfg.devicePhyCount =
        std::max(1, static_cast<int>(dev_bw / PHY_BW + 0.5));
    cfg.perPhyBandwidth = PHY_BW;
    cfg.diesPerPackage = dies;
}

} // anonymous namespace

SweepPlan::SweepPlan(const SweepSpace &space)
    : space_(space)
{
    fatalIf(space.systolicDims.empty() || space.lanesPerCore.empty() ||
            space.l1BytesPerCore.empty() || space.l2Bytes.empty() ||
            space.memBandwidths.empty() ||
            space.deviceBandwidths.empty() ||
            space.diesPerPackage.empty(),
            "SweepSpace: every parameter list must be non-empty");
    fatalIf(space.tppTarget <= 0.0, "SweepSpace: tppTarget must be > 0");

    for (int dies : space.diesPerPackage) {
      fatalIf(dies < 1, "SweepSpace: diesPerPackage entries must be >= 1");
      // TPP aggregates over the package; each die gets an equal share
      // of the budget (Sec. 2.1).
      for (int dim : space.systolicDims) {
        for (int lanes : space.lanesPerCore) {
            const int cores = hw::coresForTpp(
                space.tppTarget / dies, dim, dim, lanes,
                space.base.clockHz, space.base.opBitwidth);
            if (cores < 1) {
                std::ostringstream oss;
                oss << "skipping " << dim << "x" << dim << " x" << lanes
                    << " lanes: one core already exceeds TPP "
                    << space.tppTarget;
                warn(oss.str());
                continue;
            }
            OuterPoint o{dies, dim, lanes, cores, {}, {}};
            o.namePrefix = "dse-";
            appendNum(o.namePrefix, static_cast<long>(dim));
            o.namePrefix += 'x';
            appendNum(o.namePrefix, static_cast<long>(dim));
            o.namePrefix += "-l";
            appendNum(o.namePrefix, static_cast<long>(lanes));
            o.namePrefix += "-c";
            appendNum(o.namePrefix, static_cast<long>(cores));
            o.namePrefix += "-L1.";
            if (dies > 1) {
                o.diesSuffix = "-d";
                appendNum(o.diesSuffix, static_cast<long>(dies));
            }
            outers_.push_back(std::move(o));
        }
      }
    }
    innerBlock_ = space.l1BytesPerCore.size() * space.l2Bytes.size() *
                  space.memBandwidths.size() *
                  space.deviceBandwidths.size();
    pointCount_ = outers_.size() * innerBlock_;

    // Compile the per-axis name fragments once: every inner tail is
    // "<l1>K-L2.<l2>M-hbm<mem>T-dev<dev>G", so four small fragment
    // tables cover any inner-block size with zero per-point number
    // formatting (glibc's float printf serializes across sweep
    // workers).
    //
    // Axis order inside the inner block is l1 -> l2 -> mem -> dev
    // with dev varying fastest: the one comm-only axis
    // (SweepSpace::axes()) sits innermost so designs sharing every
    // die-local compute parameter occupy contiguous runs of
    // commOnlyRunLength() indices. Sweep evaluators lean on that
    // adjacency — a cross-design GEMM cache warms on the first design
    // of each run and hits for the rest of it.
    l1Frags_.reserve(space.l1BytesPerCore.size());
    for (const double l1 : space.l1BytesPerCore) {
        std::string f;
        appendNum(f, l1 / units::KIB);
        f += "K-L2.";
        l1Frags_.push_back(std::move(f));
    }
    l2Frags_.reserve(space.l2Bytes.size());
    for (const double l2 : space.l2Bytes) {
        std::string f;
        appendNum(f, l2 / units::MIB);
        f += "M-hbm";
        l2Frags_.push_back(std::move(f));
    }
    memFrags_.reserve(space.memBandwidths.size());
    for (const double mem_bw : space.memBandwidths) {
        std::string f;
        appendNum(f, mem_bw / units::TBPS);
        f += "T-dev";
        memFrags_.push_back(std::move(f));
    }
    devFrags_.reserve(space.deviceBandwidths.size());
    for (const double dev_bw : space.deviceBandwidths) {
        std::string f;
        appendNum(f, dev_bw / units::GBPS);
        f += 'G';
        devFrags_.push_back(std::move(f));
    }

    // Whole-tail table on top of the fragments for exhaustive-scale
    // spaces only: splicing one precompiled tail beats three extra
    // appends per point, but the table is O(innerBlock_) bytes —
    // prohibitive for fine-grained adaptive spaces (dse::fineSpace has
    // ~1.5M inner points per outer cell), which sample the block too
    // sparsely to amortize it anyway. Names are byte-identical either
    // way; tests/test_dse.cpp pins both paths against a stream-built
    // reference.
    if (innerBlock_ <= 65536) {
        innerSuffixOffsets_.resize(innerBlock_ + 1);
        for (std::size_t rem = 0; rem < innerBlock_; ++rem) {
            std::size_t r = rem;
            const std::size_t n_dev = space.deviceBandwidths.size();
            const std::size_t n_mem = space.memBandwidths.size();
            const std::size_t n_l2 = space.l2Bytes.size();
            const std::size_t dev = r % n_dev;
            r /= n_dev;
            const std::size_t mem = r % n_mem;
            r /= n_mem;
            const std::size_t l2 = r % n_l2;
            r /= n_l2;
            innerSuffixChars_.append(l1Frags_[r]);
            innerSuffixChars_.append(l2Frags_[l2]);
            innerSuffixChars_.append(memFrags_[mem]);
            innerSuffixChars_.append(devFrags_[dev]);
            innerSuffixOffsets_[rem + 1] =
                static_cast<std::uint32_t>(innerSuffixChars_.size());
        }
    }
}

hw::HardwareConfig
SweepPlan::point(std::size_t index) const
{
    hw::HardwareConfig cfg;
    point(index, &cfg);
    return cfg;
}

void
SweepPlan::point(std::size_t index, hw::HardwareConfig *out) const
{
    fatalIf(index >= pointCount_, "SweepPlan::point: index out of range");
    const OuterPoint &o = outers_[index / innerBlock_];
    const std::size_t inner = index % innerBlock_;
    std::size_t rem = inner;
    const std::size_t n_dev = space_.deviceBandwidths.size();
    const std::size_t n_mem = space_.memBandwidths.size();
    const std::size_t n_l2 = space_.l2Bytes.size();
    const std::size_t dev = rem % n_dev;
    rem /= n_dev;
    const std::size_t mem = rem % n_mem;
    rem /= n_mem;
    const std::size_t l2 = rem % n_l2;
    rem /= n_l2;
    const std::size_t l1 = rem;
    fillFields(space_, o.dies, o.dim, o.lanes, o.cores,
               space_.l1BytesPerCore[l1], space_.l2Bytes[l2],
               space_.memBandwidths[mem], space_.deviceBandwidths[dev],
               out);
    // Assemble the name from the precompiled fragments, reusing the
    // caller's string storage (no allocation once warm).
    out->name.assign(o.namePrefix);
    if (!innerSuffixOffsets_.empty()) {
        const std::uint32_t begin = innerSuffixOffsets_[inner];
        out->name.append(innerSuffixChars_, begin,
                         innerSuffixOffsets_[inner + 1] - begin);
    } else {
        out->name.append(l1Frags_[l1]);
        out->name.append(l2Frags_[l2]);
        out->name.append(memFrags_[mem]);
        out->name.append(devFrags_[dev]);
    }
    out->name.append(o.diesSuffix);
    out->validate();
}

void
SweepSpace::forEach(const std::function<void(const hw::HardwareConfig &,
                                             std::size_t)> &fn) const
{
    const SweepPlan plan(*this);
    hw::HardwareConfig cfg;
    for (std::size_t i = 0; i < plan.pointCount(); ++i) {
        plan.point(i, &cfg);
        fn(cfg, i);
    }
    obs::counterAdd("dse.sweep.points", plan.pointCount());
}

std::vector<hw::HardwareConfig>
SweepSpace::generate() const
{
    const obs::TraceSpan span("dse.sweep.generate");
    std::vector<hw::HardwareConfig> out;
    out.reserve(size());
    forEach([&out](const hw::HardwareConfig &cfg, std::size_t) {
        out.push_back(cfg);
    });
    return out;
}

SweepSpace
table3Space(double tpp_target, std::vector<double> device_bandwidths)
{
    SweepSpace space;
    space.base = hw::modeledA100();
    space.tppTarget = tpp_target;
    space.systolicDims = {16, 32};
    space.lanesPerCore = {1, 2, 4, 8};
    space.l1BytesPerCore = {192.0 * units::KIB, 256.0 * units::KIB,
                            512.0 * units::KIB, 1024.0 * units::KIB};
    space.l2Bytes = {32.0 * units::MIB, 48.0 * units::MIB,
                     64.0 * units::MIB, 80.0 * units::MIB};
    space.memBandwidths = {2.0 * units::TBPS, 2.4 * units::TBPS,
                           2.8 * units::TBPS, 3.2 * units::TBPS};
    space.deviceBandwidths = std::move(device_bandwidths);
    return space;
}

SweepSpace
table5Space()
{
    SweepSpace space;
    space.base = hw::modeledA100();
    space.tppTarget = 4800.0;
    space.systolicDims = {4, 8, 16};
    space.lanesPerCore = {1, 2, 4, 8};
    space.l1BytesPerCore = {32.0 * units::KIB, 64.0 * units::KIB,
                            128.0 * units::KIB, 192.0 * units::KIB};
    space.l2Bytes = {8.0 * units::MIB, 16.0 * units::MIB,
                     32.0 * units::MIB, 40.0 * units::MIB};
    space.memBandwidths = {0.8 * units::TBPS, 1.2 * units::TBPS,
                           1.6 * units::TBPS, 2.0 * units::TBPS};
    space.deviceBandwidths = {400.0 * units::GBPS, 500.0 * units::GBPS,
                              600.0 * units::GBPS};
    return space;
}

SweepSpace
fineSpace(double tpp_target)
{
    SweepSpace space;
    space.base = hw::modeledA100();
    space.tppTarget = tpp_target;
    // Outer axes: Table 3 densified. 7 dims x 8 lane counts x 2
    // chiplet counts = 112 outer combinations.
    space.systolicDims = {8, 12, 16, 20, 24, 28, 32};
    space.lanesPerCore = {1, 2, 3, 4, 5, 6, 7, 8};
    space.diesPerPackage = {1, 2};
    // Inner axes: dense uniform grids spanning (and exceeding) the
    // Table 3 ranges. 29 x 41 x 35 x 37 = ~1.5M inner points per
    // outer cell, ~1.7e8 designs total.
    for (int i = 0; i < 29; ++i)
        space.l1BytesPerCore.push_back((192.0 + 32.0 * i) * units::KIB);
    for (int i = 0; i < 41; ++i)
        space.l2Bytes.push_back((16.0 + 2.0 * i) * units::MIB);
    for (int i = 0; i < 35; ++i)
        space.memBandwidths.push_back((1.5 + 0.05 * i) * units::TBPS);
    for (int i = 0; i < 37; ++i)
        space.deviceBandwidths.push_back((100.0 + 25.0 * i) *
                                         units::GBPS);
    return space;
}

} // namespace dse
} // namespace acs
