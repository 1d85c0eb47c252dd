#include "comm_model.hh"

#include "common/logging.hh"

namespace acs {
namespace perf {

CommModel::CommModel(const hw::HardwareConfig &cfg,
                     const PerfParams &params)
    : dev_(cfg), params_(params)
{
    cfg.validate();
}

CommTiming
CommModel::time(const model::Op &op, int tensor_parallel) const
{
    if (op.kind != model::OpKind::ALLREDUCE)
        fatal("CommModel::time requires an ALLREDUCE op: " + op.name);
    fatalIf(tensor_parallel < 1,
            "CommModel::time: tensor_parallel must be >= 1");
    return allreduceRoofline(dev_, op, tensor_parallel, params_);
}

} // namespace perf
} // namespace acs
