#include "src/kernel/task.h"

#include "src/base/log.h"
#include "src/kernel/kernel.h"
#include "src/kernel/kernel_server.h"

namespace mach {

Task::Task(Kernel* kernel, std::string name) : kernel_(kernel), name_(std::move(name)) {
  vm_ = kernel_->vm().CreateTaskVm();
  PortPair pair = mach::PortAllocate(name_ + "-task");
  task_port_receive_ = std::move(pair.receive);
  task_port_ = pair.send;
}

Task::~Task() {
  JoinAllThreads();
  // Release the entire address space (drops object references; the kernel
  // may terminate or cache the backing objects).
  kernel_->vm().Deallocate(vm_, vm_.map->min_address(),
                           vm_.map->max_address() - vm_.map->min_address());
}

VmSize Task::page_size() const { return kernel_->page_size(); }

Result<VmOffset> Task::VmAllocate(VmSize size, bool anywhere, VmOffset addr) {
  return kernel_->vm().Allocate(vm_, addr, size, anywhere);
}

Result<VmOffset> Task::VmAllocateWithPager(VmSize size, SendRight memory_object, VmOffset offset,
                                           bool anywhere, VmOffset addr) {
  return kernel_->vm().AllocateWithPager(vm_, addr, size, anywhere, std::move(memory_object),
                                         offset);
}

KernReturn Task::VmDeallocate(VmOffset addr, VmSize size) {
  return kernel_->vm().Deallocate(vm_, addr, size);
}

KernReturn Task::VmProtect(VmOffset addr, VmSize size, bool set_max, VmProt prot) {
  return kernel_->vm().Protect(vm_, addr, size, set_max, prot);
}

KernReturn Task::VmInherit(VmOffset addr, VmSize size, mach::VmInherit inheritance) {
  return kernel_->vm().Inherit(vm_, addr, size, inheritance);
}

KernReturn Task::VmRead(VmOffset addr, void* buf, VmSize len) {
  return kernel_->vm().ReadMemory(vm_, addr, buf, len);
}

KernReturn Task::VmWrite(VmOffset addr, const void* buf, VmSize len) {
  return kernel_->vm().WriteMemory(vm_, addr, buf, len);
}

KernReturn Task::VmCopy(VmOffset src, VmSize size, VmOffset dst) {
  return kernel_->vm().Copy(vm_, src, size, dst);
}

std::vector<RegionInfo> Task::VmRegions() { return kernel_->vm().Regions(vm_); }

VmStatistics Task::VmStats() { return kernel_->vm().Statistics(); }

// User loads/stores are safe from any number of threads of any task:
// UserAccess takes the task's map lock shared on the fault path, so
// accesses to disjoint regions proceed in parallel (vm_system.h lock
// order, tier 1).
KernReturn Task::Read(VmOffset addr, void* buf, VmSize len) {
  return kernel_->vm().UserAccess(vm_, addr, buf, len, /*is_write=*/false);
}

KernReturn Task::Write(VmOffset addr, const void* buf, VmSize len) {
  return kernel_->vm().UserAccess(vm_, addr, const_cast<void*>(buf), len, /*is_write=*/true);
}

std::shared_ptr<Thread> Task::SpawnThread(std::function<void(Thread&)> body,
                                          const std::string& name) {
  auto thread = std::shared_ptr<Thread>(new Thread(this, name));
  ServeThreadPort(thread);
  {
    std::lock_guard<std::mutex> g(threads_mu_);
    threads_.push_back(thread);
  }
  thread->Run(std::move(body));
  return thread;
}

void Task::JoinAllThreads() {
  std::vector<std::shared_ptr<Thread>> threads;
  {
    std::lock_guard<std::mutex> g(threads_mu_);
    threads = threads_;
  }
  for (auto& t : threads) {
    t->Join();
  }
}

PortPair Task::PortAllocate(const std::string& label) {
  return mach::PortAllocate(label.empty() ? name_ + "-port" : label);
}

KernReturn Task::PortEnable(const ReceiveRight& right) { return default_set_->Add(right); }

KernReturn Task::PortDisable(const ReceiveRight& right) { return default_set_->Remove(right); }

Result<Message> Task::ReceiveAny(Timeout timeout) { return default_set_->Receive(timeout); }

std::vector<uint64_t> Task::PortsWithMessages() const { return default_set_->PortsWithMessages(); }

void Task::Suspend() {
  suspend_count_.fetch_add(1, std::memory_order_acq_rel);
}

void Task::Resume() {
  if (suspend_count_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    std::lock_guard<std::mutex> g(threads_mu_);
    for (auto& t : threads_) {
      t->Wake();
    }
  }
}

// --- Thread ------------------------------------------------------------------

Thread::Thread(Task* task, std::string name) : task_(task), name_(std::move(name)) {
  PortPair pair = mach::PortAllocate(task_->name() + "-" + name_);
  thread_port_receive_ = std::move(pair.receive);
  thread_port_ = pair.send;
}

Thread::~Thread() { Join(); }

void Thread::Run(std::function<void(Thread&)> body) {
  os_thread_ = std::thread([this, body = std::move(body)] {
    body(*this);
    finished_.store(true, std::memory_order_release);
  });
}

bool Thread::Checkpoint() {
  if (terminated_.load(std::memory_order_acquire)) {
    return false;
  }
  // Pause while this thread or the whole task is suspended. Every change
  // that can end the pause (Resume of either, Terminate) is followed by a
  // Wake under mu_, so the wait needs no timeout.
  std::unique_lock<std::mutex> lock(mu_);
  while (!terminated_.load(std::memory_order_acquire) &&
         (suspend_count_.load(std::memory_order_acquire) > 0 || task_->suspended())) {
    cv_.wait(lock);
  }
  return !terminated_.load(std::memory_order_acquire);
}

void Thread::Suspend() { suspend_count_.fetch_add(1, std::memory_order_acq_rel); }

void Thread::Resume() {
  suspend_count_.fetch_sub(1, std::memory_order_acq_rel);
  Wake();
}

void Thread::Terminate() {
  terminated_.store(true, std::memory_order_release);
  Wake();
}

void Thread::Wake() {
  std::lock_guard<std::mutex> g(mu_);
  cv_.notify_all();
}

void Thread::Join() {
  if (os_thread_.joinable()) {
    os_thread_.join();
  }
}

}  // namespace mach
