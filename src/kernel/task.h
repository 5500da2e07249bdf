// Tasks and threads (§3.1): the task is the basic unit of resource
// allocation — a paged virtual address space plus port rights; the thread is
// the basic unit of computation, sharing its task's address space.
//
// "User" code is a C++ callable run on a Thread; it touches task memory only
// through Task::Read/Write (simulated loads/stores through the pmap, taking
// real page faults) — that is what keeps every VM and pager code path honest.
//
// The Table 3-2 port operations that take a task argument are provided as
// methods operating on the task's default port group (a PortSet).
//
// Task and thread ports are served by the kernel from creation: a message
// sent to one performs its operation in the sender's thread
// (kernel_server.h), and the port does not keep its task or thread alive.

#ifndef SRC_KERNEL_TASK_H_
#define SRC_KERNEL_TASK_H_

#include <atomic>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/base/kern_return.h"
#include "src/ipc/port.h"
#include "src/vm/vm_system.h"

namespace mach {

class Kernel;
class Thread;

class Task : public std::enable_shared_from_this<Task> {
 public:
  ~Task();

  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;

  Kernel& kernel() const { return *kernel_; }
  const std::string& name() const { return name_; }
  TaskVm& vm_context() { return vm_; }
  VmSize page_size() const;

  // A port representing this task (task_self). Messages sent to it perform
  // operations on the task (§3.2).
  const SendRight& task_port() const { return task_port_; }

  // --- Table 3-3 / 3-4 virtual memory operations -------------------------

  Result<VmOffset> VmAllocate(VmSize size, bool anywhere = true, VmOffset addr = 0);
  Result<VmOffset> VmAllocateWithPager(VmSize size, SendRight memory_object, VmOffset offset,
                                       bool anywhere = true, VmOffset addr = 0);
  KernReturn VmDeallocate(VmOffset addr, VmSize size);
  KernReturn VmProtect(VmOffset addr, VmSize size, bool set_max, VmProt prot);
  KernReturn VmInherit(VmOffset addr, VmSize size, mach::VmInherit inheritance);
  KernReturn VmRead(VmOffset addr, void* buf, VmSize len);
  KernReturn VmWrite(VmOffset addr, const void* buf, VmSize len);
  KernReturn VmCopy(VmOffset src, VmSize size, VmOffset dst);
  std::vector<RegionInfo> VmRegions();
  VmStatistics VmStats();

  // --- simulated user memory access --------------------------------------

  // A user load/store: pmap fast path, kernel fault on miss.
  KernReturn Read(VmOffset addr, void* buf, VmSize len);
  KernReturn Write(VmOffset addr, const void* buf, VmSize len);

  template <typename T>
  Result<T> ReadValue(VmOffset addr) {
    T v;
    KernReturn kr = Read(addr, &v, sizeof(T));
    if (!IsOk(kr)) {
      return kr;
    }
    return v;
  }
  template <typename T>
  KernReturn WriteValue(VmOffset addr, const T& v) {
    return Write(addr, &v, sizeof(T));
  }

  // --- threads ------------------------------------------------------------

  std::shared_ptr<Thread> SpawnThread(std::function<void(Thread&)> body,
                                      const std::string& name = "thread");
  void JoinAllThreads();

  // --- Table 3-2 port operations -------------------------------------------

  // port_allocate / port_deallocate.
  PortPair PortAllocate(const std::string& label = "");

  // port_enable / port_disable: membership in the task's default group.
  KernReturn PortEnable(const ReceiveRight& right);
  KernReturn PortDisable(const ReceiveRight& right);

  // msg_receive from the default group of ports.
  Result<Message> ReceiveAny(Timeout timeout = kWaitForever);

  // port_messages.
  std::vector<uint64_t> PortsWithMessages() const;

  // --- suspension ----------------------------------------------------------

  void Suspend();  // Increments suspend count; threads pause at checkpoints.
  void Resume();   // The last resume wakes every paused thread.
  bool suspended() const { return suspend_count_.load(std::memory_order_acquire) > 0; }

 private:
  friend class Kernel;
  friend class Thread;

  Task(Kernel* kernel, std::string name);

  Kernel* const kernel_;
  const std::string name_;
  TaskVm vm_;
  SendRight task_port_;
  ReceiveRight task_port_receive_;
  std::shared_ptr<PortSet> default_set_ = PortSet::Create();

  std::mutex threads_mu_;
  std::vector<std::shared_ptr<Thread>> threads_;

  std::atomic<int> suspend_count_{0};
};

// A thread of control within a task. The body runs on a std::thread and
// should call Checkpoint() at convenient points: that is where suspension
// and termination take effect (a cooperative stand-in for preemption).
class Thread : public std::enable_shared_from_this<Thread> {
 public:
  ~Thread();

  Thread(const Thread&) = delete;
  Thread& operator=(const Thread&) = delete;

  Task& task() const { return *task_; }
  const SendRight& thread_port() const { return thread_port_; }

  // Returns false if the thread has been terminated (body should return).
  // Blocks while the thread or its task is suspended.
  bool Checkpoint();

  void Suspend();
  void Resume();
  void Terminate();  // Cooperative: takes effect at the next Checkpoint().
  void Join();
  bool finished() const { return finished_.load(std::memory_order_acquire); }

 private:
  friend class Task;
  Thread(Task* task, std::string name);
  void Run(std::function<void(Thread&)> body);
  // Wakes Checkpoint to look at the suspend counts and termination again.
  void Wake();

  Task* const task_;
  const std::string name_;
  SendRight thread_port_;
  ReceiveRight thread_port_receive_;

  std::thread os_thread_;
  std::atomic<int> suspend_count_{0};
  std::atomic<bool> terminated_{false};
  std::atomic<bool> finished_{false};
  std::mutex mu_;
  std::condition_variable cv_;
};

}  // namespace mach

#endif  // SRC_KERNEL_TASK_H_
