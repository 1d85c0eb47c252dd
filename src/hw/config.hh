/**
 * @file
 * The hardware template of Sec. 3.2/3.3 (LLMCompass-style).
 *
 * A Device has multiple Cores and a shared global buffer (L2) connected to
 * off-chip HBM and a device-device interconnect. Each Core has multiple
 * Lanes sharing a local buffer (L1); each Lane is one systolic array plus
 * one vector unit. Total Processing Performance (TPP) follows the BIS
 * definition: peak TOPS x operation bitwidth, MAC counted as two ops,
 * aggregated over all dies in the package.
 */

#ifndef ACS_HW_CONFIG_HH
#define ACS_HW_CONFIG_HH

#include <string>

namespace acs {
namespace hw {

/** Fabrication process of the compute die(s). */
enum class ProcessNode
{
    N16, //!< 16 nm FinFET
    N12, //!< 12 nm FinFET
    N7,  //!< 7 nm FinFET (GA100-class; default for the paper's DSE)
    N5,  //!< 5 nm FinFET
};

/** Human-readable name of a process node ("7nm"). */
std::string toString(ProcessNode node);

/**
 * Full architectural description of one accelerator device.
 *
 * All bandwidths are bytes/second, capacities bytes, clock Hz. Device
 * bandwidth is the *aggregate bidirectional* I/O rate the ACR regulates
 * (phy count x per-phy bidirectional bandwidth).
 */
struct HardwareConfig
{
    std::string name = "unnamed";

    // --- Compute hierarchy -------------------------------------------
    int coreCount = 108;      //!< cores (SM-equivalents) per device
    int lanesPerCore = 4;     //!< lanes sharing one local buffer
    int systolicDimX = 16;    //!< systolic array rows
    int systolicDimY = 16;    //!< systolic array columns
    int vectorWidth = 32;     //!< FP ALUs per lane's vector unit
    double clockHz = 1.41e9;  //!< device clock frequency

    /** Bitwidth of the op achieving max TOPS (FP16 tensor path). */
    int opBitwidth = 16;

    // --- Memory hierarchy --------------------------------------------
    double l1BytesPerCore = 192.0 * 1024;     //!< local buffer per core
    double l2Bytes = 40.0 * 1024 * 1024;      //!< shared global buffer
    double memCapacityBytes = 80e9;           //!< HBM capacity
    double memBandwidth = 2.0e12;             //!< HBM bandwidth (B/s)

    // --- Device-device interconnect ----------------------------------
    int devicePhyCount = 12;        //!< interconnect PHY instances
    double perPhyBandwidth = 50e9;  //!< bidirectional B/s per PHY

    // --- Package / process -------------------------------------------
    ProcessNode process = ProcessNode::N7;
    bool nonPlanarTransistor = true; //!< counts toward PD die area
    int diesPerPackage = 1;          //!< compute chiplets in the package

    // --- Derived metrics ----------------------------------------------

    /** Systolic arrays in the whole package. */
    int totalSystolicArrays() const;

    /** Systolic-array FPUs (MAC units) in the whole package. */
    long totalSystolicFpus() const;

    /**
     * Peak tensor throughput in tera-operations/second (non-sparse,
     * MAC = 2 ops), aggregated over all dies in the package.
     */
    double peakTensorTops() const;

    /** Peak vector throughput in FLOPs/second (FMA = 2 ops). */
    double peakVectorFlops() const;

    /** BIS Total Processing Performance: peak TOPS x op bitwidth. */
    double tpp() const;

    /** Aggregate bidirectional device interconnect bandwidth (B/s). */
    double deviceBandwidth() const;

    /** Local buffer available to one systolic array (bytes). */
    double l1BytesPerLane() const;

    /**
     * Validate the configuration.
     *
     * Fatal, naming the config and the field, on a structural count
     * below its minimum and on a clock, buffer size or bandwidth that
     * is NaN, infinite or out of range. Formats nothing on success:
     * the DSE validates every sweep point it builds.
     */
    void validate() const;

    /** Field-wise equality (the name included). */
    bool operator==(const HardwareConfig &) const = default;
};

/**
 * Maximum systolic-array FPU count for a TPP budget (Eq. 1).
 *
 * FPmax(TPP) is the largest DIMX*DIMY*LC*CD product such that the device
 * TPP stays within @p tpp_limit at clock @p clock_hz and @p bitwidth.
 *
 * @param tpp_limit Target TPP ceiling (> 0, fatal otherwise).
 * @param clock_hz  Device clock (> 0, fatal otherwise).
 * @param bitwidth  Operation bitwidth used for TPP.
 * @return Maximum total FPU (MAC unit) count.
 */
long fpMaxForTpp(double tpp_limit, double clock_hz, int bitwidth = 16);

/**
 * Largest core count keeping a design at or under a TPP target (Eq. 1).
 *
 * Used throughout the DSE: systolic dims and lanes/core are swept and the
 * core count is chosen "accordingly to keep design points within TPP
 * targets" (Sec. 3.3).
 *
 * @param tpp_limit      TPP ceiling.
 * @param systolic_dim_x Systolic array rows.
 * @param systolic_dim_y Systolic array columns.
 * @param lanes_per_core Lanes per core.
 * @param clock_hz       Device clock.
 * @param bitwidth       TPP operation bitwidth.
 * @return Largest compliant core count (possibly 0 if even one core
 *         exceeds the limit).
 */
int coresForTpp(double tpp_limit, int systolic_dim_x, int systolic_dim_y,
                int lanes_per_core, double clock_hz, int bitwidth = 16);

} // namespace hw
} // namespace acs

#endif // ACS_HW_CONFIG_HH
