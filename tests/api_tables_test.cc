// Conformance tests for the paper's API tables: every operation named in
// Tables 3-1 through 3-6 exists and behaves per its one-line description.
// Each test is named for the historical call it covers.

#include <gtest/gtest.h>

#include <thread>

#include "src/kernel/kernel.h"
#include "src/kernel/task.h"
#include "src/pager/data_manager.h"
#include "src/pager/protocol.h"

namespace mach {
namespace {

constexpr VmSize kPage = 4096;

class ApiTablesTest : public ::testing::Test {
 protected:
  ApiTablesTest() {
    Kernel::Config config;
    config.frames = 96;
    config.page_size = kPage;
    config.disk_latency = DiskLatencyModel{0, 0};
    kernel_ = std::make_unique<Kernel>(config);
    task_ = kernel_->CreateTask();
  }
  ~ApiTablesTest() override { task_.reset(); }

  std::unique_ptr<Kernel> kernel_;
  std::shared_ptr<Task> task_;
};

// --- Table 3-1: primitive message operations ---------------------------------

TEST_F(ApiTablesTest, MsgSend) {
  // "Send a message to the destination specified in the message header."
  PortPair p = PortAllocate();
  EXPECT_EQ(MsgSend(p.send, Message(1), std::chrono::milliseconds(100)), KernReturn::kSuccess);
}

TEST_F(ApiTablesTest, MsgReceive) {
  // "Receive a message from the port specified ... or the default group of
  // ports."
  PortPair p = PortAllocate();
  MsgSend(p.send, Message(2));
  EXPECT_EQ(MsgReceive(p.receive).value().id(), 2u);
  // Default group form:
  PortPair q = task_->PortAllocate();
  task_->PortEnable(q.receive);
  MsgSend(q.send, Message(3));
  EXPECT_EQ(task_->ReceiveAny(std::chrono::seconds(1)).value().id(), 3u);
}

TEST_F(ApiTablesTest, MsgRpc) {
  // "Send a message, then receive a reply."
  PortPair server = PortAllocate();
  std::thread responder([recv = std::move(server.receive)]() mutable {
    Result<Message> req = MsgReceive(recv, std::chrono::seconds(5));
    MsgSend(req.value().reply_port(), Message(req.value().id() + 1));
  });
  EXPECT_EQ(MsgRpc(server.send, Message(10)).value().id(), 11u);
  responder.join();
}

// --- Table 3-2: port operations -----------------------------------------------

TEST_F(ApiTablesTest, PortAllocate) {
  // "Allocate a new port."
  PortPair p = task_->PortAllocate();
  EXPECT_TRUE(p.receive.valid());
  EXPECT_TRUE(p.send.valid());
}

TEST_F(ApiTablesTest, PortDeallocate) {
  // "Deallocate the task's rights to this port." Deallocating the receive
  // right destroys the port.
  PortPair p = task_->PortAllocate();
  SendRight send = p.send;
  p.receive.Destroy();
  EXPECT_TRUE(send.IsDead());
}

TEST_F(ApiTablesTest, PortEnableDisable) {
  // "Add/remove this port to the task's default group of ports."
  PortPair p = task_->PortAllocate();
  EXPECT_EQ(task_->PortEnable(p.receive), KernReturn::kSuccess);
  EXPECT_EQ(task_->PortDisable(p.receive), KernReturn::kSuccess);
  EXPECT_EQ(task_->PortDisable(p.receive), KernReturn::kNotFound);
}

TEST_F(ApiTablesTest, PortMessages) {
  // "Return an array of enabled ports on which messages are currently
  // queued."
  PortPair p = task_->PortAllocate();
  task_->PortEnable(p.receive);
  EXPECT_TRUE(task_->PortsWithMessages().empty());
  MsgSend(p.send, Message(1));
  std::vector<uint64_t> ids = task_->PortsWithMessages();
  ASSERT_EQ(ids.size(), 1u);
  EXPECT_EQ(ids[0], p.send.id());
}

TEST_F(ApiTablesTest, PortStatus) {
  // "Return status information about this port."
  PortPair p = task_->PortAllocate();
  MsgSend(p.send, Message(1));
  PortStatus st = p.receive.port()->Status();
  EXPECT_EQ(st.num_msgs, 1u);
  EXPECT_FALSE(st.dead);
}

TEST_F(ApiTablesTest, PortSetBacklog) {
  // "Limit the number of messages that can be waiting on this port."
  PortPair p = task_->PortAllocate();
  EXPECT_EQ(p.receive.port()->SetBacklog(3), KernReturn::kSuccess);
  EXPECT_EQ(p.receive.port()->Status().backlog, 3u);
}

// --- Table 3-3: virtual memory operations --------------------------------------

TEST_F(ApiTablesTest, VmAllocate) {
  // "Allocate new virtual memory ... (filled-zero on demand)."
  Result<VmOffset> at = task_->VmAllocate(kPage, false, 0x200000);
  EXPECT_EQ(at.value(), 0x200000u);
  Result<VmOffset> anywhere = task_->VmAllocate(kPage);
  EXPECT_TRUE(anywhere.ok());
  uint64_t v = 1;
  task_->Read(anywhere.value(), &v, sizeof(v));
  EXPECT_EQ(v, 0u);
}

TEST_F(ApiTablesTest, VmDeallocate) {
  VmOffset addr = task_->VmAllocate(kPage).value();
  EXPECT_EQ(task_->VmDeallocate(addr, kPage), KernReturn::kSuccess);
  uint8_t b;
  EXPECT_EQ(task_->Read(addr, &b, 1), KernReturn::kInvalidAddress);
}

TEST_F(ApiTablesTest, VmInherit) {
  VmOffset addr = task_->VmAllocate(kPage).value();
  EXPECT_EQ(task_->VmInherit(addr, kPage, VmInherit::kNone), KernReturn::kSuccess);
  EXPECT_EQ(task_->VmRegions()[0].inheritance, VmInherit::kNone);
}

TEST_F(ApiTablesTest, VmProtect) {
  VmOffset addr = task_->VmAllocate(kPage).value();
  EXPECT_EQ(task_->VmProtect(addr, kPage, false, kVmProtRead), KernReturn::kSuccess);
  uint8_t b = 1;
  EXPECT_EQ(task_->Write(addr, &b, 1), KernReturn::kProtectionFailure);
}

TEST_F(ApiTablesTest, VmReadVmWrite) {
  // "Read/write the contents of this task's address space" — from outside.
  VmOffset addr = task_->VmAllocate(kPage).value();
  uint32_t v = 77;
  EXPECT_EQ(task_->VmWrite(addr, &v, sizeof(v)), KernReturn::kSuccess);
  uint32_t out = 0;
  EXPECT_EQ(task_->VmRead(addr, &out, sizeof(out)), KernReturn::kSuccess);
  EXPECT_EQ(out, 77u);
}

TEST_F(ApiTablesTest, VmCopy) {
  VmOffset src = task_->VmAllocate(kPage).value();
  VmOffset dst = task_->VmAllocate(kPage).value();
  uint32_t v = 88;
  task_->Write(src, &v, sizeof(v));
  EXPECT_EQ(task_->VmCopy(src, kPage, dst), KernReturn::kSuccess);
  uint32_t out = 0;
  task_->Read(dst, &out, sizeof(out));
  EXPECT_EQ(out, 88u);
}

TEST_F(ApiTablesTest, VmRegions) {
  // "Return a description of this task's address space."
  VmOffset addr = task_->VmAllocate(2 * kPage).value();
  std::vector<RegionInfo> regions = task_->VmRegions();
  ASSERT_EQ(regions.size(), 1u);
  EXPECT_EQ(regions[0].start, addr);
  EXPECT_EQ(regions[0].end, addr + 2 * kPage);
}

TEST_F(ApiTablesTest, VmStatistics) {
  // "Return statistics about this task's use of virtual memory."
  VmStatistics st = task_->VmStats();
  EXPECT_EQ(st.page_size, kPage);
  EXPECT_GT(st.free_count, 0u);
}

// --- Tables 3-4/3-5/3-6: the external memory management interface ---------------

// A manager that records the full call sequence it observes.
class RecordingPager : public DataManager {
 public:
  RecordingPager() : DataManager("recorder") {}

  SendRight NewObject() { return CreateMemoryObject(1); }

  std::vector<std::string> TakeTrace() {
    std::lock_guard<std::mutex> g(mu_);
    return trace_;
  }
  bool WaitForTrace(const std::string& what, int timeout_ms = 3000) {
    auto deadline = std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
    while (std::chrono::steady_clock::now() < deadline) {
      {
        std::lock_guard<std::mutex> g(mu_);
        for (const auto& t : trace_) {
          if (t == what) {
            return true;
          }
        }
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    return false;
  }
  SendRight request_port;

 protected:
  void OnInit(uint64_t id, uint64_t cookie, PagerInitArgs args) override {
    request_port = args.pager_request_port;
    Log("pager_init");
    EXPECT_TRUE(args.pager_request_port.valid());
    EXPECT_TRUE(args.pager_name_port.valid());
    EXPECT_EQ(args.page_size, kPage);
  }
  void OnDataRequest(uint64_t id, uint64_t cookie, PagerDataRequestArgs args) override {
    Log("pager_data_request");
    std::vector<std::byte> data(args.length, std::byte{0x5A});
    ProvideData(args.pager_request_port, args.offset, std::move(data), kVmProtNone);
  }
  void OnDataWrite(uint64_t id, uint64_t cookie, PagerDataWriteArgs args) override {
    Log("pager_data_write");
  }
  void OnDataUnlock(uint64_t id, uint64_t cookie, PagerDataUnlockArgs args) override {
    Log("pager_data_unlock");
    LockData(args.pager_request_port, args.offset, args.length, kVmProtNone);
  }

 private:
  void Log(const std::string& what) {
    std::lock_guard<std::mutex> g(mu_);
    trace_.push_back(what);
  }
  std::mutex mu_;
  std::vector<std::string> trace_;
};

TEST_F(ApiTablesTest, VmAllocateWithPager) {
  // Table 3-4: "The specified memory object provides the initial data
  // values and receives changes."
  RecordingPager pager;
  pager.Start();
  SendRight object = pager.NewObject();
  Result<VmOffset> addr = task_->VmAllocateWithPager(kPage, object, 0);
  ASSERT_TRUE(addr.ok());
  EXPECT_TRUE(pager.WaitForTrace("pager_init"));  // Table 3-5: pager_init.
  uint8_t b = 0;
  ASSERT_EQ(task_->Read(addr.value(), &b, 1), KernReturn::kSuccess);
  EXPECT_EQ(b, 0x5A);  // Initial data values came from the object.
  EXPECT_TRUE(pager.WaitForTrace("pager_data_request"));  // Table 3-5.
  task_.reset();
  pager.Stop();
}

TEST_F(ApiTablesTest, PagerDataWriteOnFlush) {
  // Table 3-5 pager_data_write / Table 3-6 pager_flush_request.
  RecordingPager pager;
  pager.Start();
  SendRight object = pager.NewObject();
  VmOffset addr = task_->VmAllocateWithPager(kPage, object, 0).value();
  uint8_t b = 0x77;
  ASSERT_EQ(task_->Write(addr, &b, 1), KernReturn::kSuccess);
  ASSERT_TRUE(pager.WaitForTrace("pager_init"));
  DataManager::FlushRequest(pager.request_port, 0, kPage);
  EXPECT_TRUE(pager.WaitForTrace("pager_data_write"));
  task_.reset();
  pager.Stop();
}

TEST_F(ApiTablesTest, PagerDataLockAndUnlock) {
  // Table 3-6 pager_data_lock "restricts cache access"; Table 3-5
  // pager_data_unlock "requests that data be unlocked".
  RecordingPager pager;
  pager.Start();
  SendRight object = pager.NewObject();
  VmOffset addr = task_->VmAllocateWithPager(kPage, object, 0).value();
  uint8_t b = 0;
  ASSERT_EQ(task_->Read(addr, &b, 1), KernReturn::kSuccess);
  ASSERT_TRUE(pager.WaitForTrace("pager_init"));
  DataManager::LockData(pager.request_port, 0, kPage, kVmProtWrite);
  ASSERT_EQ(task_->Write(addr, &b, 1), KernReturn::kSuccess);
  EXPECT_TRUE(pager.WaitForTrace("pager_data_unlock"));
  task_.reset();
  pager.Stop();
}

TEST_F(ApiTablesTest, PagerDataUnavailableZeroFills) {
  // Table 3-6: "Notifies kernel that no data exists for that region."
  class UnavailablePager : public DataManager {
   public:
    UnavailablePager() : DataManager("unavail") {}
    SendRight NewObject() { return CreateMemoryObject(1); }

   protected:
    void OnDataRequest(uint64_t id, uint64_t cookie, PagerDataRequestArgs args) override {
      DataUnavailable(args.pager_request_port, args.offset, args.length);
    }
  };
  UnavailablePager pager;
  pager.Start();
  SendRight object = pager.NewObject();
  VmOffset addr = task_->VmAllocateWithPager(kPage, object, 0).value();
  uint64_t v = 0xFF;
  ASSERT_EQ(task_->Read(addr, &v, sizeof(v)), KernReturn::kSuccess);
  EXPECT_EQ(v, 0u);
  task_.reset();
  pager.Stop();
}

TEST_F(ApiTablesTest, PagerCreateGoesToDefaultPager) {
  // Table 3-5 pager_create: "Accept responsibility for a kernel-created
  // memory object." Exercised by paging anonymous memory out.
  size_t managed_before = kernel_->default_pager().managed_object_count();
  VmOffset addr = task_->VmAllocate(200 * kPage).value();
  std::vector<uint8_t> junk(200 * kPage, 0xEE);
  ASSERT_EQ(task_->Write(addr, junk.data(), junk.size()), KernReturn::kSuccess);
  EXPECT_GT(kernel_->default_pager().managed_object_count(), managed_before);
}

TEST_F(ApiTablesTest, PagerCacheRetention) {
  // Table 3-6 pager_cache: "Tells the kernel whether it may retain cached
  // data ... even after all references to it have been removed."
  RecordingPager pager;
  pager.Start();
  SendRight object = pager.NewObject();
  VmOffset addr = task_->VmAllocateWithPager(kPage, object, 0).value();
  uint8_t b = 0;
  ASSERT_EQ(task_->Read(addr, &b, 1), KernReturn::kSuccess);
  ASSERT_TRUE(pager.WaitForTrace("pager_init"));
  DataManager::SetCaching(pager.request_port, true);
  ASSERT_EQ(task_->VmDeallocate(addr, kPage), KernReturn::kSuccess);
  EXPECT_NE(kernel_->vm().ObjectForPager(object), nullptr);  // Retained.
  task_.reset();
  pager.Stop();
}

TEST_F(ApiTablesTest, PagerCleanRequest) {
  // Table 3-6 pager_clean_request: "Forces cached data to be written back
  // ... but allows the kernel to continue to use the cached data."
  RecordingPager pager;
  pager.Start();
  SendRight object = pager.NewObject();
  VmOffset addr = task_->VmAllocateWithPager(kPage, object, 0).value();
  uint8_t b = 0x42;
  ASSERT_EQ(task_->Write(addr, &b, 1), KernReturn::kSuccess);
  ASSERT_TRUE(pager.WaitForTrace("pager_init"));
  size_t requests_before = 0;
  for (const auto& t : pager.TakeTrace()) {
    requests_before += (t == "pager_data_request");
  }
  DataManager::CleanRequest(pager.request_port, 0, kPage);
  ASSERT_TRUE(pager.WaitForTrace("pager_data_write"));
  // Still cached: reading does not re-request.
  uint8_t out = 0;
  ASSERT_EQ(task_->Read(addr, &out, 1), KernReturn::kSuccess);
  EXPECT_EQ(out, 0x42);
  size_t requests_after = 0;
  for (const auto& t : pager.TakeTrace()) {
    requests_after += (t == "pager_data_request");
  }
  EXPECT_EQ(requests_after, requests_before);
  task_.reset();
  pager.Stop();
}

}  // namespace
}  // namespace mach
