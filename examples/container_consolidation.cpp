// Container-based consolidation, mirroring the paper's deployment model:
// each application runs in its own container (dedicated cores + resctrl
// group), CoPart manages the containers, and a late-arriving container
// triggers re-adaptation (§5.4.3).
//
// Build & run:  ./build/examples/container_consolidation
#include <cstdio>

#include "container/container_runtime.h"
#include "core/resource_manager.h"
#include "machine/simulated_machine.h"
#include "pmc/perf_monitor.h"
#include "resctrl/resctrl.h"
#include "workload/workload.h"

namespace {

void PrintContainers(copart::ContainerRuntime& runtime) {
  std::printf("  %-8s %-16s %5s %12s %14s  %s\n", "NAME", "WORKLOAD", "CPUS",
              "IPS", "MEM BW (GB/s)", "SCHEMATA");
  for (const copart::ContainerInfo& info : runtime.List()) {
    const copart::ContainerStats stats = runtime.Stats(info.name);
    std::printf("  %-8s %-16s %5u %12.3g %14.2f  %s\n", info.name.c_str(),
                info.workload_name.c_str(), info.cpus, stats.ips,
                stats.memory_bandwidth_bytes_per_sec / 1e9,
                stats.schemata.c_str());
  }
}

}  // namespace

int main() {
  using namespace copart;
  SimulatedMachine machine(MachineConfig{});
  Resctrl resctrl(&machine);
  PerfMonitor monitor(&machine);
  ContainerRuntime runtime(&machine, &resctrl);

  // "docker run" three containers.
  Result<ContainerInfo> water = runtime.Run("water", WaterNsquared(), 4);
  Result<ContainerInfo> cg = runtime.Run("cg", Cg(), 4);
  Result<ContainerInfo> swap = runtime.Run("swap", Swaptions(), 4);
  CHECK(water.ok());
  CHECK(cg.ok());
  CHECK(swap.ok());

  ResourceManagerParams params;
  ResourceManager manager(&resctrl, &monitor, params);
  CHECK(manager.AddApp(water->app).ok());
  CHECK(manager.AddApp(cg->app).ok());
  CHECK(manager.AddApp(swap->app).ok());

  auto run = [&](double seconds) {
    const int periods =
        static_cast<int>(seconds / params.control_period_sec);
    for (int i = 0; i < periods; ++i) {
      machine.AdvanceTime(params.control_period_sec);
      manager.Tick();
    }
  };

  run(30.0);
  std::printf("after 30s (CoPart %s):\n",
              ResourceManager::PhaseName(manager.phase()));
  PrintContainers(runtime);

  // A fourth container arrives; CoPart detects it and re-adapts.
  std::printf("\nlaunching container 'sp' (SP, LLC- & BW-sensitive)...\n");
  Result<ContainerInfo> sp = runtime.Run("sp", Sp(), 4);
  CHECK(sp.ok());
  CHECK(manager.AddApp(sp->app).ok());
  run(30.0);
  std::printf("after 30 more seconds (CoPart %s):\n",
              ResourceManager::PhaseName(manager.phase()));
  PrintContainers(runtime);

  // One container finishes; its cores and ways return to the pool. Stop it
  // before the manager lets go, so the removal is the only change it sees.
  std::printf("\nstopping container 'cg'...\n");
  CHECK(runtime.Stop("cg").ok());
  CHECK(manager.RemoveApp(cg->app).ok());
  run(30.0);
  std::printf("after 30 more seconds (CoPart %s):\n",
              ResourceManager::PhaseName(manager.phase()));
  PrintContainers(runtime);
  return 0;
}
