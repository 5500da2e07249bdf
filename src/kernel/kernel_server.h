// The kernel as a task with multiple threads of control (§3.2): "The kernel
// task acts as a server which in turn implements tasks and threads. ...
// Messages sent to such a port result in operations being performed on the
// object it represents."
//
// Task and thread ports are kernel-owned ports (port.h): Kernel::CreateTask
// and Task::SpawnThread install the handlers below, so an operation message
// runs in its sender's thread and the handler replies on the message's reply
// port. This is what makes a task port a *capability*: holding a send right
// to it — even from another host, through a NetLink proxy — is the authority
// to suspend, resume, or operate on that task's memory ("a thread can
// suspend another thread by sending a suspend message ... even if the
// request is initiated on another node in a network"). Concurrent calls on
// one task run concurrently, each in its caller's thread.
//
// A port holds its task or thread weakly: a send after the object is gone
// fails with kPortDead. The handler reads the message id before it takes a
// reference, and answers an id outside the object's operations without
// one, so a kernel thread sending its own Table 3-5 calls to a task port
// named as a memory object never ends up running ~Task.
//
// Wire format: u32 status replies; vm_read/vm_write carry data inline.

#ifndef SRC_KERNEL_KERNEL_SERVER_H_
#define SRC_KERNEL_KERNEL_SERVER_H_

#include <memory>
#include <vector>

#include "src/kernel/kernel.h"
#include "src/kernel/task.h"

namespace mach {

// Operations on task ports.
inline constexpr MsgId kMsgTaskSuspend = 0x7A530001;
inline constexpr MsgId kMsgTaskResume = 0x7A530002;
inline constexpr MsgId kMsgTaskVmAllocate = 0x7A530003;   // u64 size -> status, u64 addr
inline constexpr MsgId kMsgTaskVmDeallocate = 0x7A530004; // u64 addr, u64 size -> status
inline constexpr MsgId kMsgTaskVmRead = 0x7A530005;       // u64 addr, u64 len -> status, bytes
inline constexpr MsgId kMsgTaskVmWrite = 0x7A530006;      // u64 addr, bytes -> status
inline constexpr MsgId kMsgTaskVmProtect = 0x7A530007;    // u64 addr, u64 size, u32 set_max,
                                                          // u32 prot -> status
inline constexpr MsgId kMsgTaskStatistics = 0x7A530008;   // -> status, u64 faults, u64 pageins,
                                                          //    u64 pageouts
// Operations on thread ports.
inline constexpr MsgId kMsgThreadSuspend = 0x7A530101;
inline constexpr MsgId kMsgThreadResume = 0x7A530102;
inline constexpr MsgId kMsgThreadTerminate = 0x7A530103;

// Makes `task`'s port (and `thread`'s) kernel-owned. Called once, before the
// port's send right leaves the kernel.
void ServeTaskPort(const std::shared_ptr<Task>& task);
void ServeThreadPort(const std::shared_ptr<Thread>& thread);

// --- client-side convenience wrappers (usable through NetLink proxies) --------

KernReturn RpcTaskSuspend(const SendRight& task_port);
KernReturn RpcTaskResume(const SendRight& task_port);
Result<VmOffset> RpcVmAllocate(const SendRight& task_port, VmSize size);
KernReturn RpcVmDeallocate(const SendRight& task_port, VmOffset addr, VmSize size);
Result<std::vector<std::byte>> RpcVmRead(const SendRight& task_port, VmOffset addr, VmSize len);
KernReturn RpcVmWrite(const SendRight& task_port, VmOffset addr, const void* data, VmSize len);
KernReturn RpcVmProtect(const SendRight& task_port, VmOffset addr, VmSize size, bool set_max,
                        VmProt prot);
KernReturn RpcThreadSuspend(const SendRight& thread_port);
KernReturn RpcThreadResume(const SendRight& thread_port);
KernReturn RpcThreadTerminate(const SendRight& thread_port);

}  // namespace mach

#endif  // SRC_KERNEL_KERNEL_SERVER_H_
