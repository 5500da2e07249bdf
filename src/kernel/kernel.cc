#include "src/kernel/kernel.h"

#include "src/base/log.h"
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
  running_.store(true, std::memory_order_release);
  pager_service_thread_ = std::thread([this] { PagerServiceLoop(); });
  MACH_LOG(kInfo) << "kernel '" << config_.name << "' booted: " << config_.frames
                  << " frames of " << config_.page_size << " bytes";
}

Kernel::~Kernel() {
  running_.store(false, std::memory_order_release);
  if (pager_service_thread_.joinable()) {
    pager_service_thread_.join();
  }
  vm_->StopPageoutDaemon();
  default_pager_->Stop();
  // VmSystem's destructor, which runs before the default pager's, releases
  // any remaining resident pages.
}

void Kernel::PagerServiceLoop() {
  // Receives what queues on the pager request ports, whose receive rights
  // the kernel holds: death notifications of memory-object ports, and the
  // messages a request port's handler declines (forged notifications and
  // ids outside Table 3-6). A manager's Table 3-6 calls run in the
  // manager's own thread instead.
  const std::shared_ptr<PortSet>& set = vm_->pager_request_set();
  while (running_.load(std::memory_order_acquire)) {
    Result<PortSet::ReceivedMessage> got = set->ReceiveFrom(std::chrono::milliseconds(20));
    if (!got.ok()) {
      continue;
    }
    vm_->HandlePagerMessage(got.value().port_id, std::move(got.value().message));
  }
}

std::shared_ptr<Task> Kernel::CreateTask(const std::shared_ptr<Task>& parent,
                                         const std::string& name) {
  auto task = std::shared_ptr<Task>(new Task(this, name));
  if (parent != nullptr) {
    vm_->ForkMap(parent->vm_context(), task->vm_context());
  }
  return task;
}

}  // namespace mach
