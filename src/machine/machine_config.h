// Configuration of the simulated commodity server.
//
// Defaults reproduce the paper's evaluation platform (Table 1): a 16-core
// Xeon Gold 6130 at 2.1 GHz with a 22 MB / 11-way shared LLC and ~28 GB/s of
// memory bandwidth, Hyper-Threading and Turbo Boost disabled.
#ifndef COPART_MACHINE_MACHINE_CONFIG_H_
#define COPART_MACHINE_MACHINE_CONFIG_H_

#include <cstdint>

#include "cache/llc_geometry.h"
#include "cache/miss_ratio_curve.h"
#include "common/units.h"

namespace copart {

class FaultInjector;

struct MachineConfig {
  uint32_t num_cores = 16;
  double core_freq_hz = 2.1e9;
  LlcGeometry llc;
  double total_memory_bandwidth = GBps(28.0);
  // CLOS count of the modeled CPU (Xeon Gold 6130 exposes 16 for L3 CAT).
  uint32_t num_clos = 16;
  // MBA cap curve exponent (see MbaThrottleModel).
  double mba_cap_exponent = 0.7;
  // Memory-controller queueing: effective DRAM latency stretches with
  // controller utilization rho as Lmem * (1 + factor * rho^2). This is what
  // makes throttling a bandwidth hog genuinely help latency-bound
  // co-runners (as on real memory controllers); 0 disables the coupling
  // (bench_ablation_queueing sweeps it).
  double queueing_delay_factor = 1.0;
  // Multiplicative per-epoch IPS noise (sigma of a lognormal-ish
  // perturbation); models run-to-run variation on real hardware that the
  // controller's thresholds (deltaP etc.) must tolerate. 0 disables.
  double ips_noise_sigma = 0.01;
  // Prefetch-throttle model (the CBP-style third actuator; DESIGN.md §14).
  // Each app carries a prefetcher-aggressiveness percent p (100 = fully
  // enabled, the hardware reset state). Prefetching hides miss latency but
  // fetches speculative lines, so throttling trades the two: at aggressiveness
  // p the per-miss stall is stretched by
  //   pf_lat = 1 + prefetch_latency_penalty * (1 - p/100)
  // and the bandwidth demand is scaled by
  //   pf_bw  = 1 - prefetch_bw_share * (1 - p/100).
  // Both factors are exactly 1.0 at p = 100, so runs that never touch the
  // knob are bit-identical to a machine without the model.
  double prefetch_bw_share = 0.25;
  double prefetch_latency_penalty = 0.6;
  // Miss-ratio curve evaluation for the epoch model: kCompiled (default)
  // answers queries from each profile's precompiled monotone table
  // (cache/compiled_mrc.h, ~1e-5 relative error, ~50x cheaper); kExact runs
  // the reference bisection per query. Results are deterministic for a
  // fixed mode; numerics differ slightly between modes, so comparisons
  // against goldens must pin one.
  MrcMode mrc_mode = MrcMode::kCompiled;
  // Reuse the last converged epoch solve while nothing observable changed
  // (way masks, MBA levels, CLOS membership, app arrivals/departures,
  // required-IPS caps, workload phases) — the steady-state common case in
  // managed runs. The fast path is bit-identical to re-solving because the
  // epoch model is memoryless in those inputs. Disable to force a full
  // solve every epoch.
  bool incremental_epochs = true;
  uint64_t seed = 0x5EED5EEDULL;
  // Optional fault injection for the actuation/monitoring substrate
  // (common/fault_injector.h). Not owned; must outlive every component
  // constructed against this config. Copies of the config (and machine
  // clones) share the injector. Null — the default — disables injection
  // entirely at the cost of one pointer compare per instrumented call.
  FaultInjector* fault_injector = nullptr;
};

}  // namespace copart

#endif  // COPART_MACHINE_MACHINE_CONFIG_H_
