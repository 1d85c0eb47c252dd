#include "vector_model.hh"

#include "common/logging.hh"

namespace acs {
namespace perf {

VectorModel::VectorModel(const hw::HardwareConfig &cfg,
                         const PerfParams &params)
    : dev_(cfg), params_(params)
{
    cfg.validate();
}

VectorTiming
VectorModel::time(const model::Op &op) const
{
    if (op.kind != model::OpKind::VECTOR)
        fatal("VectorModel::time requires a VECTOR op: " + op.name);
    return vectorRoofline(dev_, op, params_);
}

} // namespace perf
} // namespace acs
