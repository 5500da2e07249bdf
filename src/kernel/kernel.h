// Kernel: one booted instance of the Mach kernel — the unit the paper calls
// a "host" in multi-machine scenarios (§4.2: "independent Mach kernels").
//
// A Kernel owns the simulated hardware (physical memory, a paging disk, a
// virtual clock), the VM system and the trusted default pager task. Its only
// thread of its own is the pageout daemon inside VmSystem (§5.4). Every
// message to a port the kernel owns runs in its sender's thread (port.h):
// a task's or thread's operations (kernel_server.h), a data manager's
// Table 3-6 calls (VmSystem::InstallPagerRequestHandler), and the death
// notice of a memory-object port, which only records the death for the VM
// system's next entry or the daemon's next pass.
//
// Tasks are created against a kernel and must not outlive it.

#ifndef SRC_KERNEL_KERNEL_H_
#define SRC_KERNEL_KERNEL_H_

#include <memory>
#include <string>

#include "src/base/sim_clock.h"
#include "src/hw/physical_memory.h"
#include "src/hw/sim_disk.h"
#include "src/pager/default_pager.h"
#include "src/vm/vm_system.h"

namespace mach {

class Task;

class Kernel {
 public:
  struct Config {
    std::string name = "host";
    uint32_t frames = 256;          // Physical memory size in pages.
    VmSize page_size = 4096;        // System page size (boot parameter, §3.3).
    uint32_t backing_blocks = 8192; // Default pager backing store size.
    DiskLatencyModel disk_latency;  // Paging disk latency model.
    VmSystem::Config vm;            // VM tunables.
    // Optional fault injector attached to the paging disk ("disk.read" /
    // "disk.write" points) and the VM system ("vm.collapse"). Must outlive
    // the kernel.
    FaultInjector* fault_injector = nullptr;
  };

  Kernel() : Kernel(Config{}) {}
  explicit Kernel(Config config);
  ~Kernel();

  Kernel(const Kernel&) = delete;
  Kernel& operator=(const Kernel&) = delete;

  const std::string& name() const { return config_.name; }
  VmSize page_size() const { return phys_->page_size(); }

  VmSystem& vm() { return *vm_; }
  PhysicalMemory& phys() { return *phys_; }
  SimClock& clock() { return clock_; }
  SimDisk& paging_disk() { return *paging_disk_; }
  DefaultPager& default_pager() { return *default_pager_; }

  // Creates a task, its port served from here on. With a parent, the
  // child's address space is populated according to the parent's
  // per-region inheritance attributes (§3.3).
  std::shared_ptr<Task> CreateTask(const std::shared_ptr<Task>& parent = nullptr,
                                   const std::string& name = "task");

 private:
  Config config_;
  SimClock clock_;
  std::unique_ptr<PhysicalMemory> phys_;
  std::unique_ptr<SimDisk> paging_disk_;
  // Declared before vm_ so it outlives it: a manager call running in its
  // sender's thread until ~VmSystem may still park pages with it.
  std::unique_ptr<DefaultPager> default_pager_;
  std::unique_ptr<VmSystem> vm_;
};

}  // namespace mach

#endif  // SRC_KERNEL_KERNEL_H_
