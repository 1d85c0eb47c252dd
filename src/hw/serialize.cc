#include "serialize.hh"

#include "common/logging.hh"
#include "common/parse.hh"

namespace acs {
namespace hw {

KeyVal
toKeyVal(const HardwareConfig &cfg)
{
    KeyVal kv;
    kv.set("name", cfg.name);
    kv.setInt("core_count", cfg.coreCount);
    kv.setInt("lanes_per_core", cfg.lanesPerCore);
    kv.setInt("systolic_dim_x", cfg.systolicDimX);
    kv.setInt("systolic_dim_y", cfg.systolicDimY);
    kv.setInt("vector_width", cfg.vectorWidth);
    kv.setDouble("clock_hz", cfg.clockHz);
    kv.setInt("op_bitwidth", cfg.opBitwidth);
    kv.setDouble("l1_bytes_per_core", cfg.l1BytesPerCore);
    kv.setDouble("l2_bytes", cfg.l2Bytes);
    kv.setDouble("mem_capacity_bytes", cfg.memCapacityBytes);
    kv.setDouble("mem_bandwidth", cfg.memBandwidth);
    kv.setInt("device_phy_count", cfg.devicePhyCount);
    kv.setDouble("per_phy_bandwidth", cfg.perPhyBandwidth);
    kv.set("process", toString(cfg.process));
    kv.setBool("non_planar", cfg.nonPlanarTransistor);
    kv.setInt("dies_per_package", cfg.diesPerPackage);
    return kv;
}

ProcessNode
processFromString(const std::string &name)
{
    if (name == "16nm")
        return ProcessNode::N16;
    if (name == "12nm")
        return ProcessNode::N12;
    if (name == "7nm")
        return ProcessNode::N7;
    if (name == "5nm")
        return ProcessNode::N5;
    fatal("unknown process node: " + name);
}

namespace {

/**
 * Read a numeric field of type T, or @p fallback when @p key is
 * absent. Parsed as a T by parseNumber(), so a value that does not
 * fit T (an int core count of 2^32 + 108), or a NaN or infinite
 * double, is refused instead of wrapping or reaching the model. The
 * error names the key and the HardwareConfig member it sets.
 */
template <typename T>
T
field(const KeyVal &kv, const char *key, const char *member, T fallback)
{
    if (!kv.has(key))
        return fallback;
    return parseNumber<T>(kv.getString(key), std::string("keyval '") +
                                                 key + "' (" + member +
                                                 ")");
}

} // anonymous namespace

HardwareConfig
configFromKeyVal(const KeyVal &kv)
{
    HardwareConfig cfg;
    if (kv.has("name"))
        cfg.name = kv.getString("name");
    cfg.coreCount = field(kv, "core_count", "coreCount", cfg.coreCount);
    cfg.lanesPerCore =
        field(kv, "lanes_per_core", "lanesPerCore", cfg.lanesPerCore);
    cfg.systolicDimX =
        field(kv, "systolic_dim_x", "systolicDimX", cfg.systolicDimX);
    cfg.systolicDimY =
        field(kv, "systolic_dim_y", "systolicDimY", cfg.systolicDimY);
    cfg.vectorWidth =
        field(kv, "vector_width", "vectorWidth", cfg.vectorWidth);
    cfg.clockHz = field(kv, "clock_hz", "clockHz", cfg.clockHz);
    cfg.opBitwidth = field(kv, "op_bitwidth", "opBitwidth", cfg.opBitwidth);
    cfg.l1BytesPerCore = field(kv, "l1_bytes_per_core", "l1BytesPerCore",
                               cfg.l1BytesPerCore);
    cfg.l2Bytes = field(kv, "l2_bytes", "l2Bytes", cfg.l2Bytes);
    cfg.memCapacityBytes = field(kv, "mem_capacity_bytes",
                                 "memCapacityBytes", cfg.memCapacityBytes);
    cfg.memBandwidth =
        field(kv, "mem_bandwidth", "memBandwidth", cfg.memBandwidth);
    cfg.devicePhyCount = field(kv, "device_phy_count", "devicePhyCount",
                               cfg.devicePhyCount);
    cfg.perPhyBandwidth = field(kv, "per_phy_bandwidth", "perPhyBandwidth",
                                cfg.perPhyBandwidth);
    if (kv.has("process"))
        cfg.process = processFromString(kv.getString("process"));
    if (kv.has("non_planar"))
        cfg.nonPlanarTransistor = kv.getBool("non_planar");
    cfg.diesPerPackage = field(kv, "dies_per_package", "diesPerPackage",
                               cfg.diesPerPackage);
    cfg.validate();
    return cfg;
}

} // namespace hw
} // namespace acs
