#include "src/kernel/kernel_server.h"

#include "src/base/log.h"

namespace mach {

namespace {

void ReplyStatus(const Message& request, MsgId id, KernReturn status) {
  if (!request.reply_port().valid()) {
    return;
  }
  Message reply(id);
  reply.PushU32(static_cast<uint32_t>(status));
  MsgSend(request.reply_port(), std::move(reply), std::chrono::milliseconds(2000));
}

void HandleTaskMessage(Task& task, Message&& msg) {
  switch (msg.id()) {
    case kMsgTaskSuspend:
      task.Suspend();
      ReplyStatus(msg, msg.id(), KernReturn::kSuccess);
      break;
    case kMsgTaskResume:
      task.Resume();
      ReplyStatus(msg, msg.id(), KernReturn::kSuccess);
      break;
    case kMsgTaskVmAllocate: {
      Result<uint64_t> size = msg.TakeU64();
      if (!size.ok()) {
        ReplyStatus(msg, msg.id(), KernReturn::kInvalidArgument);
        break;
      }
      Result<VmOffset> addr = task.VmAllocate(size.value());
      Message reply(msg.id());
      reply.PushU32(static_cast<uint32_t>(addr.status()));
      reply.PushU64(addr.ok() ? addr.value() : 0);
      MsgSend(msg.reply_port(), std::move(reply), std::chrono::milliseconds(2000));
      break;
    }
    case kMsgTaskVmDeallocate: {
      Result<uint64_t> addr = msg.TakeU64();
      Result<uint64_t> size = msg.TakeU64();
      if (!addr.ok() || !size.ok()) {
        ReplyStatus(msg, msg.id(), KernReturn::kInvalidArgument);
        break;
      }
      ReplyStatus(msg, msg.id(), task.VmDeallocate(addr.value(), size.value()));
      break;
    }
    case kMsgTaskVmRead: {
      Result<uint64_t> addr = msg.TakeU64();
      Result<uint64_t> len = msg.TakeU64();
      if (!addr.ok() || !len.ok() || len.value() > (16u << 20)) {
        ReplyStatus(msg, msg.id(), KernReturn::kInvalidArgument);
        break;
      }
      std::vector<std::byte> data(len.value());
      KernReturn kr = task.VmRead(addr.value(), data.data(), data.size());
      Message reply(msg.id());
      reply.PushU32(static_cast<uint32_t>(kr));
      if (IsOk(kr)) {
        reply.PushBytes(std::move(data));
      }
      MsgSend(msg.reply_port(), std::move(reply), std::chrono::milliseconds(2000));
      break;
    }
    case kMsgTaskVmWrite: {
      Result<uint64_t> addr = msg.TakeU64();
      Result<std::vector<std::byte>> data = msg.TakeBytes();
      if (!addr.ok() || !data.ok()) {
        ReplyStatus(msg, msg.id(), KernReturn::kInvalidArgument);
        break;
      }
      ReplyStatus(msg, msg.id(),
                  task.VmWrite(addr.value(), data.value().data(), data.value().size()));
      break;
    }
    case kMsgTaskVmProtect: {
      Result<uint64_t> addr = msg.TakeU64();
      Result<uint64_t> size = msg.TakeU64();
      Result<uint32_t> set_max = msg.TakeU32();
      Result<uint32_t> prot = msg.TakeU32();
      if (!addr.ok() || !size.ok() || !set_max.ok() || !prot.ok()) {
        ReplyStatus(msg, msg.id(), KernReturn::kInvalidArgument);
        break;
      }
      ReplyStatus(msg, msg.id(),
                  task.VmProtect(addr.value(), size.value(), set_max.value() != 0,
                                 prot.value()));
      break;
    }
    case kMsgTaskStatistics: {
      VmStatistics st = task.VmStats();
      Message reply(msg.id());
      reply.PushU32(static_cast<uint32_t>(KernReturn::kSuccess));
      reply.PushU64(st.faults);
      reply.PushU64(st.pageins);
      reply.PushU64(st.pageouts);
      MsgSend(msg.reply_port(), std::move(reply), std::chrono::milliseconds(2000));
      break;
    }
  }
}

void HandleThreadMessage(Thread& thread, Message&& msg) {
  switch (msg.id()) {
    case kMsgThreadSuspend:
      thread.Suspend();
      ReplyStatus(msg, msg.id(), KernReturn::kSuccess);
      break;
    case kMsgThreadResume:
      thread.Resume();
      ReplyStatus(msg, msg.id(), KernReturn::kSuccess);
      break;
    case kMsgThreadTerminate:
      thread.Terminate();
      ReplyStatus(msg, msg.id(), KernReturn::kSuccess);
      break;
  }
}

// Serves `port` in the sender's thread with `handle`, for the ids in [first,
// last]. Any other id is answered kInvalidArgument before a reference to
// the object is taken (kernel_server.h says why).
template <typename T>
void Serve(const SendRight& port, std::weak_ptr<T> object, MsgId first, MsgId last,
           void (*handle)(T&, Message&&)) {
  port.port()->SetKernelObjectHandler(
      [=](Port&, Message& msg, Timeout) -> std::optional<KernReturn> {
        if (msg.id() < first || msg.id() > last) {
          ReplyStatus(msg, msg.id(), KernReturn::kInvalidArgument);
          return KernReturn::kSuccess;
        }
        std::shared_ptr<T> held = object.lock();
        if (held == nullptr) {
          return KernReturn::kPortDead;
        }
        handle(*held, std::move(msg));
        return KernReturn::kSuccess;
      });
}

}  // namespace

void ServeTaskPort(const std::shared_ptr<Task>& task) {
  Serve<Task>(task->task_port(), task, kMsgTaskSuspend, kMsgTaskStatistics, HandleTaskMessage);
}

void ServeThreadPort(const std::shared_ptr<Thread>& thread) {
  Serve<Thread>(thread->thread_port(), thread, kMsgThreadSuspend, kMsgThreadTerminate,
                HandleThreadMessage);
}

// --- client wrappers ---------------------------------------------------------

namespace {
KernReturn SimpleRpc(const SendRight& port, MsgId id) {
  Result<Message> reply = MsgRpc(port, Message(id), kWaitForever, std::chrono::seconds(5));
  if (!reply.ok()) {
    return reply.status();
  }
  Result<uint32_t> status = reply.value().TakeU32();
  return status.ok() ? static_cast<KernReturn>(status.value()) : KernReturn::kInvalidArgument;
}
}  // namespace

KernReturn RpcTaskSuspend(const SendRight& task_port) {
  return SimpleRpc(task_port, kMsgTaskSuspend);
}
KernReturn RpcTaskResume(const SendRight& task_port) {
  return SimpleRpc(task_port, kMsgTaskResume);
}

Result<VmOffset> RpcVmAllocate(const SendRight& task_port, VmSize size) {
  Message request(kMsgTaskVmAllocate);
  request.PushU64(size);
  Result<Message> reply = MsgRpc(task_port, std::move(request), kWaitForever,
                                 std::chrono::seconds(5));
  if (!reply.ok()) {
    return reply.status();
  }
  Result<uint32_t> status = reply.value().TakeU32();
  Result<uint64_t> addr = reply.value().TakeU64();
  if (!status.ok() || !addr.ok()) {
    return KernReturn::kInvalidArgument;
  }
  if (static_cast<KernReturn>(status.value()) != KernReturn::kSuccess) {
    return static_cast<KernReturn>(status.value());
  }
  return VmOffset{addr.value()};
}

KernReturn RpcVmDeallocate(const SendRight& task_port, VmOffset addr, VmSize size) {
  Message request(kMsgTaskVmDeallocate);
  request.PushU64(addr);
  request.PushU64(size);
  Result<Message> reply = MsgRpc(task_port, std::move(request), kWaitForever,
                                 std::chrono::seconds(5));
  if (!reply.ok()) {
    return reply.status();
  }
  Result<uint32_t> status = reply.value().TakeU32();
  return status.ok() ? static_cast<KernReturn>(status.value()) : KernReturn::kInvalidArgument;
}

Result<std::vector<std::byte>> RpcVmRead(const SendRight& task_port, VmOffset addr, VmSize len) {
  Message request(kMsgTaskVmRead);
  request.PushU64(addr);
  request.PushU64(len);
  Result<Message> reply = MsgRpc(task_port, std::move(request), kWaitForever,
                                 std::chrono::seconds(5));
  if (!reply.ok()) {
    return reply.status();
  }
  Result<uint32_t> status = reply.value().TakeU32();
  if (!status.ok()) {
    return KernReturn::kInvalidArgument;
  }
  if (static_cast<KernReturn>(status.value()) != KernReturn::kSuccess) {
    return static_cast<KernReturn>(status.value());
  }
  Result<std::vector<std::byte>> data = reply.value().TakeBytes();
  if (!data.ok()) {
    return KernReturn::kInvalidArgument;
  }
  return std::move(data).value();
}

KernReturn RpcVmWrite(const SendRight& task_port, VmOffset addr, const void* data, VmSize len) {
  Message request(kMsgTaskVmWrite);
  request.PushU64(addr);
  request.PushData(data, len);
  Result<Message> reply = MsgRpc(task_port, std::move(request), kWaitForever,
                                 std::chrono::seconds(5));
  if (!reply.ok()) {
    return reply.status();
  }
  Result<uint32_t> status = reply.value().TakeU32();
  return status.ok() ? static_cast<KernReturn>(status.value()) : KernReturn::kInvalidArgument;
}

KernReturn RpcVmProtect(const SendRight& task_port, VmOffset addr, VmSize size, bool set_max,
                        VmProt prot) {
  Message request(kMsgTaskVmProtect);
  request.PushU64(addr);
  request.PushU64(size);
  request.PushU32(set_max ? 1 : 0);
  request.PushU32(prot);
  Result<Message> reply = MsgRpc(task_port, std::move(request), kWaitForever,
                                 std::chrono::seconds(5));
  if (!reply.ok()) {
    return reply.status();
  }
  Result<uint32_t> status = reply.value().TakeU32();
  return status.ok() ? static_cast<KernReturn>(status.value()) : KernReturn::kInvalidArgument;
}

KernReturn RpcThreadSuspend(const SendRight& thread_port) {
  return SimpleRpc(thread_port, kMsgThreadSuspend);
}
KernReturn RpcThreadResume(const SendRight& thread_port) {
  return SimpleRpc(thread_port, kMsgThreadResume);
}
KernReturn RpcThreadTerminate(const SendRight& thread_port) {
  return SimpleRpc(thread_port, kMsgThreadTerminate);
}

}  // namespace mach
