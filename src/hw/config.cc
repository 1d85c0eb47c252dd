#include "config.hh"

#include <cmath>

#include "common/logging.hh"

namespace acs {
namespace hw {

std::string
toString(ProcessNode node)
{
    switch (node) {
      case ProcessNode::N16: return "16nm";
      case ProcessNode::N12: return "12nm";
      case ProcessNode::N7:  return "7nm";
      case ProcessNode::N5:  return "5nm";
    }
    panic("unknown ProcessNode");
}

int
HardwareConfig::totalSystolicArrays() const
{
    return coreCount * lanesPerCore * diesPerPackage;
}

long
HardwareConfig::totalSystolicFpus() const
{
    return static_cast<long>(systolicDimX) * systolicDimY *
           totalSystolicArrays();
}

double
HardwareConfig::peakTensorTops() const
{
    // Each MAC unit retires one multiply-accumulate per cycle; the BIS
    // guidelines count a fused multiply-add as two operations.
    return 2.0 * static_cast<double>(totalSystolicFpus()) * clockHz / 1e12;
}

double
HardwareConfig::peakVectorFlops() const
{
    return 2.0 * static_cast<double>(coreCount) * lanesPerCore *
           vectorWidth * diesPerPackage * clockHz;
}

double
HardwareConfig::tpp() const
{
    return peakTensorTops() * opBitwidth;
}

double
HardwareConfig::deviceBandwidth() const
{
    return static_cast<double>(devicePhyCount) * perPhyBandwidth;
}

double
HardwareConfig::l1BytesPerLane() const
{
    return l1BytesPerCore / lanesPerCore;
}

namespace {

/** NaN-proof: `x <= 0.0` lets NaN through, `!(x > 0.0)` does not. */
bool
positiveFinite(double x)
{
    return x > 0.0 && std::isfinite(x);
}

} // anonymous namespace

void
HardwareConfig::validate() const
{
    // Messages are formatted only on the failure path: validate() runs
    // at least twice per DSE design point (SweepPlan::point and
    // AreaModel::breakdown), and the per-design path allocates and
    // formats nothing (docs/DSE.md, "Hot-path rule").
    if (coreCount < 1)
        fatal(name + ": coreCount must be >= 1");
    if (lanesPerCore < 1)
        fatal(name + ": lanesPerCore must be >= 1");
    if (systolicDimX < 1 || systolicDimY < 1)
        fatal(name + ": systolic array dims must be >= 1");
    if (vectorWidth < 1)
        fatal(name + ": vectorWidth must be >= 1");
    if (!positiveFinite(clockHz))
        fatal(name + ": clockHz must be finite and > 0");
    if (opBitwidth < 1)
        fatal(name + ": opBitwidth must be >= 1");
    if (!positiveFinite(l1BytesPerCore))
        fatal(name + ": l1BytesPerCore must be finite and > 0");
    if (!positiveFinite(l2Bytes))
        fatal(name + ": l2Bytes must be finite and > 0");
    if (!positiveFinite(memCapacityBytes))
        fatal(name + ": memCapacityBytes must be finite and > 0");
    if (!positiveFinite(memBandwidth))
        fatal(name + ": memBandwidth must be finite and > 0");
    if (devicePhyCount < 0)
        fatal(name + ": PHY count must be >= 0");
    if (!(perPhyBandwidth >= 0.0) || !std::isfinite(perPhyBandwidth))
        fatal(name + ": perPhyBandwidth must be finite and >= 0");
    if (diesPerPackage < 1)
        fatal(name + ": diesPerPackage must be >= 1");
}

long
fpMaxForTpp(double tpp_limit, double clock_hz, int bitwidth)
{
    fatalIf(tpp_limit <= 0.0, "fpMaxForTpp: TPP limit must be > 0");
    fatalIf(clock_hz <= 0.0, "fpMaxForTpp: clock must be > 0");
    fatalIf(bitwidth < 1, "fpMaxForTpp: bitwidth must be >= 1");
    // TPP = 2 * FPUs * clock / 1e12 * bitwidth  =>  FPUs <= ...
    const double fpus = tpp_limit * 1e12 / (2.0 * clock_hz * bitwidth);
    return static_cast<long>(std::floor(fpus));
}

int
coresForTpp(double tpp_limit, int systolic_dim_x, int systolic_dim_y,
            int lanes_per_core, double clock_hz, int bitwidth)
{
    fatalIf(systolic_dim_x < 1 || systolic_dim_y < 1,
            "coresForTpp: systolic dims must be >= 1");
    fatalIf(lanes_per_core < 1, "coresForTpp: lanes must be >= 1");
    const long fp_max = fpMaxForTpp(tpp_limit, clock_hz, bitwidth);
    const long per_core = static_cast<long>(systolic_dim_x) *
                          systolic_dim_y * lanes_per_core;
    return static_cast<int>(fp_max / per_core);
}

} // namespace hw
} // namespace acs
