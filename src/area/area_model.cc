#include "area_model.hh"

#include <cmath>
#include <string>

#include "common/logging.hh"
#include "common/units.hh"

namespace acs {
namespace area {

double
AreaBreakdown::total() const
{
    return systolicMacs + systolicCtrl + vectorUnits + l1Sram + l2Sram +
           coreOverhead + memPhy + devicePhy + noc + misc;
}

AreaModel::AreaModel()
    : AreaModel(AreaParams{})
{}

namespace {

/**
 * fatal() naming @p field unless @p value is finite and > 0 (>= 0 when
 * @p allow_zero). The negated comparisons reject NaN too.
 */
void
requireParam(const char *field, double value, bool allow_zero)
{
    const bool ok = allow_zero ? value >= 0.0 : value > 0.0;
    if (!ok || !std::isfinite(value)) {
        fatal(std::string("AreaParams: ") + field + " must be finite and " +
              (allow_zero ? ">= 0" : "> 0"));
    }
}

} // anonymous namespace

AreaModel::AreaModel(const AreaParams &params)
    : params_(params)
{
    requireParam("macAreaMm2", params_.macAreaMm2, false);
    requireParam("sramMm2PerMib", params_.sramMm2PerMib, false);
    requireParam("memPhyMm2PerTBps", params_.memPhyMm2PerTBps, false);
    requireParam("arrayCtrlMm2", params_.arrayCtrlMm2, true);
    requireParam("vectorAluMm2", params_.vectorAluMm2, true);
    requireParam("coreOverheadMm2", params_.coreOverheadMm2, true);
    requireParam("devicePhyMm2", params_.devicePhyMm2, true);
    requireParam("nocMm2PerCore", params_.nocMm2PerCore, true);
    requireParam("miscMm2", params_.miscMm2, true);
}

double
AreaModel::processScale(hw::ProcessNode node)
{
    switch (node) {
      case hw::ProcessNode::N16: return 2.0;
      case hw::ProcessNode::N12: return 1.6;
      case hw::ProcessNode::N7:  return 1.0;
      case hw::ProcessNode::N5:  return 0.62;
    }
    panic("unknown ProcessNode");
}

AreaBreakdown
AreaModel::breakdown(const hw::HardwareConfig &cfg) const
{
    cfg.validate();

    // Per-die counts: the package totals divided over identical dies.
    const double cores = static_cast<double>(cfg.coreCount);
    const double arrays = cores * cfg.lanesPerCore;
    const double macs = arrays * cfg.systolicDimX * cfg.systolicDimY;
    const double alus = cores * cfg.lanesPerCore * cfg.vectorWidth;
    const double l1_mib = cores * cfg.l1BytesPerCore / units::MIB;
    const double l2_mib = cfg.l2Bytes / units::MIB;

    // MAC area scales quadratically with operand bitwidth relative to
    // the FP16 baseline (multiplier-array dominated).
    const double bit_scale = (cfg.opBitwidth / 16.0) *
                             (cfg.opBitwidth / 16.0);

    AreaBreakdown b;
    b.systolicMacs = macs * params_.macAreaMm2 * bit_scale;
    b.systolicCtrl = arrays * params_.arrayCtrlMm2;
    b.vectorUnits = alus * params_.vectorAluMm2;
    b.l1Sram = l1_mib * params_.sramMm2PerMib;
    b.l2Sram = l2_mib * params_.sramMm2PerMib;
    b.coreOverhead = cores * params_.coreOverheadMm2;
    b.memPhy = (cfg.memBandwidth / units::TBPS) * params_.memPhyMm2PerTBps;
    b.devicePhy = cfg.devicePhyCount * params_.devicePhyMm2;
    b.noc = cores * params_.nocMm2PerCore;
    b.misc = params_.miscMm2;

    const double scale = processScale(cfg.process);
    b.systolicMacs *= scale;
    b.systolicCtrl *= scale;
    b.vectorUnits *= scale;
    b.l1Sram *= scale;
    b.l2Sram *= scale;
    b.coreOverhead *= scale;
    b.noc *= scale;
    // PHYs and uncore shrink far less with process; keep them fixed.
    return b;
}

double
AreaModel::dieArea(const hw::HardwareConfig &cfg) const
{
    return breakdown(cfg).total() * cfg.diesPerPackage;
}

double
AreaModel::perfDensity(const hw::HardwareConfig &cfg) const
{
    return perfDensity(cfg, dieArea(cfg));
}

double
AreaModel::perfDensity(const hw::HardwareConfig &cfg,
                       double die_area_mm2) const
{
    if (!cfg.nonPlanarTransistor)
        return 0.0;
    fatalIf(!(die_area_mm2 > 0.0), "perfDensity: die area must be > 0");
    return cfg.tpp() / die_area_mm2;
}

} // namespace area
} // namespace acs
