#include "cost_model.hh"

#include <cmath>
#include <numbers>
#include <string>

#include "common/logging.hh"

namespace acs {
namespace area {

double
waferPriceUsd(hw::ProcessNode node)
{
    // 300 mm wafer prices, CSET "AI Chips" (2020) estimates.
    switch (node) {
      case hw::ProcessNode::N16: return 3984.0;
      case hw::ProcessNode::N12: return 3984.0;
      case hw::ProcessNode::N7:  return 9346.0;
      case hw::ProcessNode::N5:  return 16988.0;
    }
    panic("unknown ProcessNode");
}

CostModel::CostModel()
    : CostModel(CostParams{})
{}

CostModel::CostModel(const CostParams &params)
    : params_(params)
{
    fatalIf(!(params_.waferDiameterMm > 0.0) ||
                !std::isfinite(params_.waferDiameterMm),
            "CostParams: waferDiameterMm must be finite and > 0");
    fatalIf(!(params_.defectDensityPerMm2 >= 0.0) ||
                !std::isfinite(params_.defectDensityPerMm2),
            "CostParams: defectDensityPerMm2 must be finite and >= 0");
}

int
CostModel::diesPerWafer(double die_area_mm2) const
{
    fatalIf(!(die_area_mm2 > 0.0), "diesPerWafer: area must be > 0");
    const double d = params_.waferDiameterMm;
    const double gross =
        std::numbers::pi * (d / 2.0) * (d / 2.0) / die_area_mm2 -
        std::numbers::pi * d / std::sqrt(2.0 * die_area_mm2);
    return gross <= 0.0 ? 0 : static_cast<int>(std::floor(gross));
}

double
CostModel::murphyYield(double die_area_mm2) const
{
    fatalIf(!(die_area_mm2 > 0.0), "murphyYield: area must be > 0");
    const double ad = die_area_mm2 * params_.defectDensityPerMm2;
    if (ad == 0.0)
        return 1.0;
    const double term = (1.0 - std::exp(-ad)) / ad;
    return term * term;
}

double
CostModel::dieCostUsd(double die_area_mm2, hw::ProcessNode node) const
{
    const int dies = diesPerWafer(die_area_mm2);
    if (dies <= 0) {
        fatal("die of " + std::to_string(die_area_mm2) +
              " mm^2 does not fit the wafer");
    }
    return waferPriceUsd(node) / dies;
}

double
CostModel::goodDieCostUsd(double die_area_mm2, hw::ProcessNode node) const
{
    return dieCostUsd(die_area_mm2, node) / murphyYield(die_area_mm2);
}

double
CostModel::costForGoodDiesUsd(double die_area_mm2, hw::ProcessNode node,
                              double good_dies) const
{
    fatalIf(!(good_dies >= 0.0), "costForGoodDiesUsd: count must be >= 0");
    return goodDieCostUsd(die_area_mm2, node) * good_dies;
}

} // namespace area
} // namespace acs
