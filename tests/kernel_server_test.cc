// Tests for the message interface to kernel objects (§3.2): operations on
// tasks and threads expressed as RPCs on their ports — including from
// another host over a NetLink proxy ("a thread can suspend another thread
// by sending a suspend message ... even if the request is initiated on
// another node in a network").

#include <gtest/gtest.h>

#include <atomic>
#include <memory>

#include "src/kernel/kernel.h"
#include "src/kernel/kernel_server.h"
#include "src/kernel/task.h"
#include "src/net/net_link.h"

namespace mach {
namespace {

constexpr VmSize kPage = 4096;

struct KernelServerTest : public ::testing::Test {
 protected:
  KernelServerTest() {
    Kernel::Config config;
    config.frames = 128;
    config.page_size = kPage;
    config.disk_latency = DiskLatencyModel{0, 0};
    kernel_ = std::make_unique<Kernel>(config);
    task_ = kernel_->CreateTask(nullptr, "served");
  }
  ~KernelServerTest() override { task_.reset(); }

  std::unique_ptr<Kernel> kernel_;
  std::shared_ptr<Task> task_;
};

TEST_F(KernelServerTest, VmAllocateViaMessage) {
  Result<VmOffset> addr = RpcVmAllocate(task_->task_port(), 2 * kPage);
  ASSERT_TRUE(addr.ok());
  // The allocation is real: direct access works.
  uint32_t v = 5;
  EXPECT_EQ(task_->Write(addr.value(), &v, sizeof(v)), KernReturn::kSuccess);
}

TEST_F(KernelServerTest, VmReadWriteViaMessage) {
  VmOffset addr = task_->VmAllocate(kPage).value();
  const char text[] = "operations on objects are messages";
  ASSERT_EQ(RpcVmWrite(task_->task_port(), addr, text, sizeof(text)), KernReturn::kSuccess);
  Result<std::vector<std::byte>> data = RpcVmRead(task_->task_port(), addr, sizeof(text));
  ASSERT_TRUE(data.ok());
  EXPECT_STREQ(reinterpret_cast<const char*>(data.value().data()), text);
}

TEST_F(KernelServerTest, VmProtectViaMessage) {
  VmOffset addr = task_->VmAllocate(kPage).value();
  ASSERT_EQ(RpcVmProtect(task_->task_port(), addr, kPage, false, kVmProtRead),
            KernReturn::kSuccess);
  uint8_t b = 1;
  EXPECT_EQ(task_->Write(addr, &b, 1), KernReturn::kProtectionFailure);
}

TEST_F(KernelServerTest, VmDeallocateViaMessage) {
  VmOffset addr = task_->VmAllocate(kPage).value();
  ASSERT_EQ(RpcVmDeallocate(task_->task_port(), addr, kPage), KernReturn::kSuccess);
  uint8_t b;
  EXPECT_EQ(task_->Read(addr, &b, 1), KernReturn::kInvalidAddress);
}

TEST_F(KernelServerTest, SuspendResumeViaMessage) {
  std::atomic<int> progress{0};
  std::shared_ptr<Thread> worker = task_->SpawnThread([&](Thread& self) {
    while (self.Checkpoint()) {
      progress.fetch_add(1);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  ASSERT_EQ(RpcTaskSuspend(task_->task_port()), KernReturn::kSuccess);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  int frozen = progress.load();
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_LE(progress.load(), frozen + 1);
  ASSERT_EQ(RpcTaskResume(task_->task_port()), KernReturn::kSuccess);
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_GT(progress.load(), frozen);
  ASSERT_EQ(RpcThreadTerminate(worker->thread_port()), KernReturn::kSuccess);
  worker->Join();
}

TEST_F(KernelServerTest, ThreadSuspendViaItsOwnPort) {
  std::atomic<int> progress{0};
  std::shared_ptr<Thread> worker = task_->SpawnThread([&](Thread& self) {
    while (self.Checkpoint()) {
      progress.fetch_add(1);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  ASSERT_EQ(RpcThreadSuspend(worker->thread_port()), KernReturn::kSuccess);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  int frozen = progress.load();
  std::this_thread::sleep_for(std::chrono::milliseconds(40));
  EXPECT_LE(progress.load(), frozen + 1);
  ASSERT_EQ(RpcThreadResume(worker->thread_port()), KernReturn::kSuccess);
  ASSERT_EQ(RpcThreadTerminate(worker->thread_port()), KernReturn::kSuccess);
  worker->Join();
}

TEST_F(KernelServerTest, TaskPortDoesNotKeepItsTaskAlive) {
  // The kernel serves a task's port without owning the task: once its last
  // holder lets go the task is destroyed, and its port is dead.
  ASSERT_EQ(RpcTaskSuspend(task_->task_port()), KernReturn::kSuccess);
  SendRight port = task_->task_port();
  std::weak_ptr<Task> weak = task_;
  task_.reset();
  EXPECT_TRUE(weak.expired());
  EXPECT_EQ(RpcTaskSuspend(port), KernReturn::kPortDead);
}

TEST_F(KernelServerTest, UnknownOperationRejected) {
  Result<Message> reply =
      MsgRpc(task_->task_port(), Message(0x12345678), kWaitForever, std::chrono::seconds(5));
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(static_cast<KernReturn>(reply.value().TakeU32().value()),
            KernReturn::kInvalidArgument);
}

TEST_F(KernelServerTest, StatisticsViaMessage) {
  VmOffset addr = task_->VmAllocate(4 * kPage).value();
  std::vector<uint8_t> junk(4 * kPage, 1);
  task_->Write(addr, junk.data(), junk.size());
  Result<Message> reply = MsgRpc(task_->task_port(), Message(kMsgTaskStatistics), kWaitForever,
                                 std::chrono::seconds(5));
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(static_cast<KernReturn>(reply.value().TakeU32().value()), KernReturn::kSuccess);
  EXPECT_GT(reply.value().TakeU64().value(), 0u);  // faults
}

TEST_F(KernelServerTest, RemoteHostOperatesOnTaskThroughProxy) {
  // The location-independence claim of §3.2: the same task port capability,
  // proxied across a network link, carries the same authority.
  Kernel::Config config;
  config.frames = 64;
  config.page_size = kPage;
  config.disk_latency = DiskLatencyModel{0, 0};
  Kernel remote_kernel(config);
  SimClock net_clock;
  NetLink link(&kernel_->vm(), &remote_kernel.vm(), &net_clock, kNormaLatency);
  // The "remote" side holds only a proxy of the task port.
  SendRight remote_task_port = link.ProxyForB(task_->task_port());

  Result<VmOffset> addr = RpcVmAllocate(remote_task_port, kPage);
  ASSERT_TRUE(addr.ok());
  const char text[] = "written from another node";
  ASSERT_EQ(RpcVmWrite(remote_task_port, addr.value(), text, sizeof(text)),
            KernReturn::kSuccess);
  // Visible locally in the task.
  char out[64] = {};
  ASSERT_EQ(task_->Read(addr.value(), out, sizeof(text)), KernReturn::kSuccess);
  EXPECT_STREQ(out, text);
  EXPECT_GT(link.messages_forwarded(), 0u);
}

}  // namespace
}  // namespace mach
