/**
 * @file
 * Profiler: times a workload on the detailed core model at every
 * DVFS mode and emits a WorkloadProfile (the single-threaded Turandot
 * runs of the paper's methodology).
 */

#ifndef GPM_TRACE_PROFILER_HH
#define GPM_TRACE_PROFILER_HH

#include "power/dvfs.hh"
#include "power/power_model.hh"
#include "trace/phase_profile.hh"
#include "trace/workload.hh"
#include "uarch/core_config.hh"

namespace gpm
{

/** Per-run summary statistics (for calibration and Figure 2). */
struct ProfileSummary
{
    std::string name;
    double turboIpc = 0.0;
    Watts turboPowerW = 0.0;
    /** Elapsed-time increase vs Turbo, per non-Turbo mode. */
    std::vector<double> perfDegradation;
    /** Average-power savings vs Turbo, per non-Turbo mode. */
    std::vector<double> powerSavings;
    double branchMispredictRate = 0.0;
    double l1dMissRate = 0.0;
    double l2MissRate = 0.0;
};

/**
 * Builds WorkloadProfiles by simulation. Stateless between calls
 * apart from configuration.
 */
class Profiler
{
  public:
    /**
     * @param dvfs   mode table: the modes every profile is timed at
     * @param cfg    core configuration (Table 1 defaults)
     * @param pwr    power-model parameters
     */
    explicit Profiler(const DvfsTable &dvfs,
                      CoreConfig cfg = CoreConfig{},
                      CorePowerParams pwr = CorePowerParams::classic());

    /**
     * Profile @p spec at every mode. One op stream passes once
     * through one cache hierarchy and branch predictor; each op's
     * outcome is then timed at every mode in lockstep, and chunks
     * are cut at the same instruction counts for all of them.
     * Equal, bit for bit, to an OooCore run per mode.
     *
     * @param length_scale scales the workload length (tests use < 1)
     * @param chunk_insts  instructions per chunk
     */
    WorkloadProfile profileWorkload(
        const WorkloadSpec &spec, double length_scale = 1.0,
        std::uint64_t chunk_insts = defaultChunkInsts) const;

    /** Summarize a built profile (power/perf vs Turbo per mode). */
    ProfileSummary summarize(const WorkloadProfile &p) const;

  private:
    const DvfsTable &dvfs;
    CoreConfig cfg;
    CorePowerParams pwrParams;
};

} // namespace gpm

#endif // GPM_TRACE_PROFILER_HH
