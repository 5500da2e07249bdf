#include "src/kernel/kernel.h"

#include "src/base/log.h"
#include "src/kernel/kernel_server.h"
#include "src/kernel/task.h"

namespace mach {

Kernel::Kernel(Config config) : config_(std::move(config)) {
  phys_ = std::make_unique<PhysicalMemory>(config_.frames, config_.page_size);
  paging_disk_ = std::make_unique<SimDisk>(config_.backing_blocks, config_.page_size, &clock_,
                                           config_.disk_latency, config_.fault_injector);
  // The VM layer shares the kernel-wide injector (vm.collapse suppression).
  vm_ = std::make_unique<VmSystem>(phys_.get(), config_.vm, config_.fault_injector);
  // Boot the default pager: a trusted data manager known to the kernel at
  // system initialization time (§3.4.1).
  default_pager_ = std::make_unique<DefaultPager>(paging_disk_.get());
  default_pager_->Start();
  vm_->SetDefaultPager(default_pager_->service_port(), default_pager_.get());
  vm_->StartPageoutDaemon();
  MACH_LOG(kInfo) << "kernel '" << config_.name << "' booted: " << config_.frames
                  << " frames of " << config_.page_size << " bytes";
}

Kernel::~Kernel() {
  vm_->StopPageoutDaemon();
  default_pager_->Stop();
  // VmSystem's destructor, which runs before the default pager's, releases
  // any remaining resident pages.
}

std::shared_ptr<Task> Kernel::CreateTask(const std::shared_ptr<Task>& parent,
                                         const std::string& name) {
  auto task = std::shared_ptr<Task>(new Task(this, name));
  ServeTaskPort(task);
  if (parent != nullptr) {
    vm_->ForkMap(parent->vm_context(), task->vm_context());
  }
  return task;
}

}  // namespace mach
