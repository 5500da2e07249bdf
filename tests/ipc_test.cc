// Unit tests for the IPC layer: ports, rights, messages, port sets, RPC,
// timeouts, backlog, port death, no-senders notifications, port GC, and the
// ipc.* fault points — the operations of Tables 3-1 and 3-2 plus the
// notification machinery layered on them.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "src/base/fault_injector.h"
#include "src/ipc/ipc_faults.h"
#include "src/ipc/message.h"
#include "src/ipc/port.h"
#include "src/ipc/port_gc.h"
#include "src/ipc/port_right.h"

namespace mach {
namespace {

using std::chrono::milliseconds;

// Arms the process-wide IPC injector for one test body and guarantees
// disarm (which also drains deferred notifications) on every exit path.
class IpcFaultGuard {
 public:
  explicit IpcFaultGuard(FaultInjector* injector) { SetIpcFaultInjector(injector); }
  ~IpcFaultGuard() { SetIpcFaultInjector(nullptr); }
};

TEST(MessageTest, RoundTripTypedItems) {
  Message msg(7);
  msg.PushU32(0xAABB);
  msg.PushU64(0x1122334455667788ull);
  msg.PushString("typed data");
  ASSERT_EQ(msg.item_count(), 3u);
  EXPECT_EQ(msg.TakeU32().value(), 0xAABBu);
  EXPECT_EQ(msg.TakeU64().value(), 0x1122334455667788ull);
  EXPECT_EQ(msg.TakeString().value(), "typed data");
  EXPECT_TRUE(msg.AtEnd());
}

TEST(MessageTest, TypeMismatchFails) {
  Message msg;
  msg.PushU32(1);
  EXPECT_FALSE(msg.TakePort().ok());
  // Cursor did not advance on mismatch.
  EXPECT_TRUE(msg.TakeU32().ok());
}

TEST(MessageTest, TakePastEndFails) {
  Message msg;
  EXPECT_EQ(msg.TakeU32().status(), KernReturn::kInvalidArgument);
}

TEST(MessageTest, InlineSizeCountsDataOnly) {
  Message msg;
  msg.PushU32(1);                  // 4 bytes
  msg.PushData("abcdefgh", 8);     // 8 bytes
  PortPair p = PortAllocate("x");
  msg.PushPort(p.send);            // not inline data
  EXPECT_EQ(msg.InlineSize(), 12u);
}

TEST(MessageTest, CarriesPortRights) {
  PortPair p = PortAllocate("carried");
  Message msg;
  msg.PushPort(p.send);
  Result<SendRight> got = msg.TakePort();
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.value().id(), p.send.id());
}

TEST(PortTest, AllocateGivesLiveRights) {
  PortPair p = PortAllocate("test");
  EXPECT_TRUE(p.receive.valid());
  EXPECT_TRUE(p.send.valid());
  EXPECT_EQ(p.receive.id(), p.send.id());
  EXPECT_FALSE(p.send.IsDead());
  EXPECT_EQ(p.send.label(), "test");
}

TEST(PortTest, SendReceiveRoundTrip) {
  PortPair p = PortAllocate();
  Message msg(42);
  msg.PushString("payload");
  ASSERT_EQ(MsgSend(p.send, std::move(msg)), KernReturn::kSuccess);
  Result<Message> got = MsgReceive(p.receive);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.value().id(), 42u);
  EXPECT_EQ(got.value().TakeString().value(), "payload");
}

TEST(PortTest, FifoOrder) {
  PortPair p = PortAllocate();
  for (uint32_t i = 0; i < 10; ++i) {
    Message msg(i);
    ASSERT_EQ(MsgSend(p.send, std::move(msg)), KernReturn::kSuccess);
  }
  for (uint32_t i = 0; i < 10; ++i) {
    EXPECT_EQ(MsgReceive(p.receive).value().id(), i);
  }
}

TEST(PortTest, ReceiveTimesOut) {
  PortPair p = PortAllocate();
  auto start = std::chrono::steady_clock::now();
  Result<Message> got = MsgReceive(p.receive, milliseconds(30));
  EXPECT_EQ(got.status(), KernReturn::kTimedOut);
  EXPECT_GE(std::chrono::steady_clock::now() - start, milliseconds(25));
}

TEST(PortTest, ReceivePollReturnsNoMessage) {
  PortPair p = PortAllocate();
  EXPECT_EQ(MsgReceive(p.receive, kPoll).status(), KernReturn::kNoMessage);
}

TEST(PortTest, CrossThreadDelivery) {
  PortPair p = PortAllocate();
  std::thread sender([send = p.send]() mutable {
    Message msg(9);
    msg.PushU32(123);
    MsgSend(send, std::move(msg));
  });
  Result<Message> got = MsgReceive(p.receive, milliseconds(5000));
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.value().TakeU32().value(), 123u);
  sender.join();
}

TEST(PortTest, BacklogBlocksSender) {
  PortPair p = PortAllocate();
  ASSERT_EQ(p.receive.port()->SetBacklog(2), KernReturn::kSuccess);
  EXPECT_EQ(MsgSend(p.send, Message(1), kPoll), KernReturn::kSuccess);
  EXPECT_EQ(MsgSend(p.send, Message(2), kPoll), KernReturn::kSuccess);
  EXPECT_EQ(MsgSend(p.send, Message(3), kPoll), KernReturn::kPortFull);
  // Draining frees space.
  MsgReceive(p.receive);
  EXPECT_EQ(MsgSend(p.send, Message(3), kPoll), KernReturn::kSuccess);
}

TEST(PortTest, BlockedSenderWakesOnDrain) {
  PortPair p = PortAllocate();
  ASSERT_EQ(p.receive.port()->SetBacklog(1), KernReturn::kSuccess);
  ASSERT_EQ(MsgSend(p.send, Message(1), kPoll), KernReturn::kSuccess);
  std::atomic<bool> sent{false};
  std::thread sender([&, send = p.send]() mutable {
    EXPECT_EQ(MsgSend(send, Message(2), milliseconds(5000)), KernReturn::kSuccess);
    sent = true;
  });
  std::this_thread::sleep_for(milliseconds(20));
  EXPECT_FALSE(sent.load());
  MsgReceive(p.receive);
  sender.join();
  EXPECT_TRUE(sent.load());
}

TEST(PortTest, SetBacklogRejectsZero) {
  PortPair p = PortAllocate();
  EXPECT_EQ(p.receive.port()->SetBacklog(0), KernReturn::kInvalidArgument);
}

TEST(PortTest, StatusReflectsQueue) {
  PortPair p = PortAllocate();
  MsgSend(p.send, Message(1));
  MsgSend(p.send, Message(2));
  PortStatus st = p.receive.port()->Status();
  EXPECT_EQ(st.num_msgs, 2u);
  EXPECT_EQ(st.backlog, kDefaultBacklog);
  EXPECT_FALSE(st.dead);
  EXPECT_FALSE(st.enabled);
}

TEST(PortDeathTest, SendToDeadPortFails) {
  SendRight send;
  {
    PortPair p = PortAllocate();
    send = p.send;
  }  // receive right dropped -> port death
  EXPECT_TRUE(send.IsDead());
  EXPECT_EQ(MsgSend(send, Message(1)), KernReturn::kPortDead);
}

TEST(PortDeathTest, ReceiverDrainsQueueBeforeDeathVisible) {
  // Destroying the receive right destroys queued messages too.
  PortPair p = PortAllocate();
  MsgSend(p.send, Message(1));
  p.receive.Destroy();
  EXPECT_TRUE(p.send.IsDead());
}

TEST(PortDeathTest, BlockedReceiverFailsOnDeath) {
  PortPair p = PortAllocate();
  std::thread killer([&] {
    std::this_thread::sleep_for(milliseconds(30));
    p.receive.Destroy();
  });
  // Use the raw port: receive right is being destroyed concurrently.
  std::shared_ptr<Port> port = p.send.port();
  Result<Message> got = port->Dequeue(milliseconds(5000));
  EXPECT_EQ(got.status(), KernReturn::kPortDead);
  killer.join();
}

TEST(PortDeathTest, DeathNotificationDelivered) {
  PortPair notify = PortAllocate("notify");
  uint64_t dead_id = 0;
  {
    PortPair watched = PortAllocate("watched");
    dead_id = watched.send.id();
    watched.receive.port()->RequestDeathNotification(notify.send);
  }
  Result<Message> msg = MsgReceive(notify.receive, milliseconds(1000));
  ASSERT_TRUE(msg.ok());
  EXPECT_EQ(msg.value().id(), kMsgIdPortDeath);
  EXPECT_EQ(msg.value().TakeU64().value(), dead_id);
}

TEST(PortDeathTest, NotificationOnAlreadyDeadPortFiresImmediately) {
  PortPair notify = PortAllocate("notify");
  PortPair watched = PortAllocate("watched");
  uint64_t id = watched.send.id();
  watched.receive.Destroy();
  watched.send.port()->RequestDeathNotification(notify.send);
  Result<Message> msg = MsgReceive(notify.receive, milliseconds(1000));
  ASSERT_TRUE(msg.ok());
  EXPECT_EQ(msg.value().TakeU64().value(), id);
}

TEST(PortDeathTest, MessageHoldingOwnPortRightsIsReclaimedByGc) {
  // A queued message that carries the receive right of the port it is
  // queued on forms a self-cycle no task can ever break: the port owns
  // itself. PortGc must reclaim it without deadlocking.
  size_t baseline = PortGcLivePortCount();
  PortPair p = PortAllocate("self");
  Message msg(1);
  SendRight send = p.send;
  msg.PushReceive(std::move(p.receive));
  ASSERT_EQ(MsgSend(send, std::move(msg)), KernReturn::kSuccess);
  // Dropping our send rights leaves the queue-held cycle as the only ref.
  send = SendRight();
  p.send = SendRight();
  EXPECT_EQ(PortGcCollect(), 1u);
  EXPECT_EQ(PortGcLivePortCount(), baseline);
}

TEST(RpcTest, EchoServer) {
  PortPair server = PortAllocate("echo");
  std::thread service([recv = std::move(server.receive)]() mutable {
    Result<Message> req = MsgReceive(recv, milliseconds(5000));
    ASSERT_TRUE(req.ok());
    uint32_t v = req.value().TakeU32().value();
    Message reply(req.value().id() + 100);
    reply.PushU32(v * 2);
    MsgSend(req.value().reply_port(), std::move(reply));
  });
  Message request(5);
  request.PushU32(21);
  Result<Message> reply = MsgRpc(server.send, std::move(request));
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(reply.value().id(), 105u);
  EXPECT_EQ(reply.value().TakeU32().value(), 42u);
  service.join();
}

TEST(RpcTest, RpcToDeadServerFails) {
  SendRight send;
  {
    PortPair p = PortAllocate();
    send = p.send;
  }
  Result<Message> reply = MsgRpc(send, Message(1));
  EXPECT_EQ(reply.status(), KernReturn::kPortDead);
}

TEST(RpcTest, RpcReceiveTimeout) {
  PortPair server = PortAllocate();  // Nobody answers.
  Result<Message> reply = MsgRpc(server.send, Message(1), kWaitForever, milliseconds(30));
  EXPECT_EQ(reply.status(), KernReturn::kTimedOut);
}

TEST(PortSetTest, ReceiveFromAnyMember) {
  auto set = PortSet::Create();
  PortPair a = PortAllocate("a");
  PortPair b = PortAllocate("b");
  ASSERT_EQ(set->Add(a.receive), KernReturn::kSuccess);
  ASSERT_EQ(set->Add(b.receive), KernReturn::kSuccess);
  EXPECT_EQ(set->member_count(), 2u);
  MsgSend(b.send, Message(22));
  Result<PortSet::ReceivedMessage> got = set->ReceiveFrom(milliseconds(1000));
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.value().message.id(), 22u);
  EXPECT_EQ(got.value().port_id, b.send.id());
}

TEST(PortSetTest, RoundRobinAvoidsStarvation) {
  auto set = PortSet::Create();
  PortPair a = PortAllocate("a");
  PortPair b = PortAllocate("b");
  set->Add(a.receive);
  set->Add(b.receive);
  // Keep both queues non-empty; both ports must get service.
  for (int i = 0; i < 4; ++i) {
    MsgSend(a.send, Message(1));
    MsgSend(b.send, Message(2));
  }
  int from_a = 0, from_b = 0;
  for (int i = 0; i < 8; ++i) {
    uint32_t id = set->Receive(milliseconds(1000)).value().id();
    (id == 1 ? from_a : from_b)++;
  }
  EXPECT_EQ(from_a, 4);
  EXPECT_EQ(from_b, 4);
}

TEST(PortSetTest, PollWhenEmpty) {
  auto set = PortSet::Create();
  PortPair a = PortAllocate();
  set->Add(a.receive);
  EXPECT_EQ(set->Receive(kPoll).status(), KernReturn::kNoMessage);
}

TEST(PortSetTest, TimeoutWhenEmpty) {
  auto set = PortSet::Create();
  PortPair a = PortAllocate();
  set->Add(a.receive);
  EXPECT_EQ(set->Receive(milliseconds(20)).status(), KernReturn::kTimedOut);
}

TEST(PortSetTest, WakesBlockedReceiver) {
  auto set = PortSet::Create();
  PortPair a = PortAllocate();
  set->Add(a.receive);
  std::thread sender([send = a.send]() mutable {
    std::this_thread::sleep_for(milliseconds(20));
    MsgSend(send, Message(77));
  });
  Result<Message> got = set->Receive(milliseconds(5000));
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.value().id(), 77u);
  sender.join();
}

TEST(PortSetTest, RemoveDisablesPort) {
  auto set = PortSet::Create();
  PortPair a = PortAllocate();
  set->Add(a.receive);
  EXPECT_TRUE(a.receive.port()->Status().enabled);
  EXPECT_EQ(set->Remove(a.receive), KernReturn::kSuccess);
  EXPECT_EQ(set->member_count(), 0u);
  EXPECT_EQ(set->Remove(a.receive), KernReturn::kNotFound);
  MsgSend(a.send, Message(1));
  EXPECT_EQ(set->Receive(kPoll).status(), KernReturn::kNoMessage);
}

TEST(PortSetTest, PortsWithMessages) {
  auto set = PortSet::Create();
  PortPair a = PortAllocate();
  PortPair b = PortAllocate();
  set->Add(a.receive);
  set->Add(b.receive);
  MsgSend(b.send, Message(1));
  std::vector<uint64_t> ids = set->PortsWithMessages();
  ASSERT_EQ(ids.size(), 1u);
  EXPECT_EQ(ids[0], b.send.id());
}

TEST(PortSetTest, DeadMemberIsDropped) {
  auto set = PortSet::Create();
  PortPair a = PortAllocate();
  PortPair b = PortAllocate();
  set->Add(a.receive);
  set->Add(b.receive);
  a.receive.Destroy();
  MsgSend(b.send, Message(5));
  EXPECT_EQ(set->Receive(milliseconds(1000)).value().id(), 5u);
  EXPECT_EQ(set->member_count(), 1u);
}

TEST(StressTest, ManySendersOneReceiver) {
  PortPair p = PortAllocate();
  p.receive.port()->SetBacklog(1024);
  constexpr int kSenders = 8;
  constexpr int kPerSender = 200;
  std::vector<std::thread> senders;
  for (int s = 0; s < kSenders; ++s) {
    senders.emplace_back([send = p.send, s]() mutable {
      for (int i = 0; i < kPerSender; ++i) {
        Message msg(static_cast<MsgId>(s));
        msg.PushU32(static_cast<uint32_t>(i));
        ASSERT_EQ(MsgSend(send, std::move(msg), milliseconds(10000)), KernReturn::kSuccess);
      }
    });
  }
  int received = 0;
  std::vector<uint32_t> last_seen(kSenders, 0);
  while (received < kSenders * kPerSender) {
    Result<Message> msg = MsgReceive(p.receive, milliseconds(10000));
    ASSERT_TRUE(msg.ok());
    ++received;
  }
  for (auto& t : senders) {
    t.join();
  }
  EXPECT_EQ(received, kSenders * kPerSender);
}

// --- no-senders notifications -------------------------------------------

TEST(NoSendersTest, StatusCountsSendRights) {
  PortPair p = PortAllocate("counted");
  EXPECT_EQ(p.receive.port()->send_right_count(), 1u);
  SendRight extra = p.send;
  EXPECT_EQ(p.receive.port()->Status().send_rights, 2u);
  extra = SendRight();
  EXPECT_EQ(p.receive.port()->send_right_count(), 1u);
}

TEST(NoSendersTest, FiresWhenLastSendRightDies) {
  PortPair notify = PortAllocate("notify");
  PortPair p = PortAllocate("watched");
  uint64_t id = p.send.id();
  p.receive.port()->RequestNoSendersNotification(notify.send);
  EXPECT_EQ(MsgReceive(notify.receive, kPoll).status(), KernReturn::kNoMessage);
  p.send = SendRight();
  Result<Message> msg = MsgReceive(notify.receive, milliseconds(1000));
  ASSERT_TRUE(msg.ok());
  EXPECT_EQ(msg.value().id(), kMsgIdNoSenders);
  EXPECT_EQ(msg.value().TakeU64().value(), id);
  // The port itself stays alive — only its senders are gone.
  EXPECT_FALSE(p.receive.port()->dead());
}

TEST(NoSendersTest, CountsRightsInsideQueuedMessages) {
  PortPair notify = PortAllocate("notify");
  PortPair carrier = PortAllocate("carrier");
  PortPair p = PortAllocate("watched");
  p.receive.port()->RequestNoSendersNotification(notify.send);
  Message msg(1);
  msg.PushPort(p.send);  // A counted copy rides in carrier's queue.
  ASSERT_EQ(MsgSend(carrier.send, std::move(msg)), KernReturn::kSuccess);
  p.send = SendRight();
  // The in-queue copy still holds the count above zero.
  EXPECT_EQ(p.receive.port()->send_right_count(), 1u);
  EXPECT_EQ(MsgReceive(notify.receive, kPoll).status(), KernReturn::kNoMessage);
  // Receiving and dropping the carried copy is the last-sender transition.
  {
    Result<Message> got = MsgReceive(carrier.receive, milliseconds(1000));
    ASSERT_TRUE(got.ok());
  }  // The received message (and the right it carries) dies here.
  Result<Message> fired = MsgReceive(notify.receive, milliseconds(1000));
  ASSERT_TRUE(fired.ok());
  EXPECT_EQ(fired.value().id(), kMsgIdNoSenders);
}

TEST(NoSendersTest, RegisterWithZeroSendersFiresImmediately) {
  PortPair notify = PortAllocate("notify");
  PortPair p = PortAllocate("watched");
  p.send = SendRight();
  p.receive.port()->RequestNoSendersNotification(notify.send);
  Result<Message> msg = MsgReceive(notify.receive, milliseconds(1000));
  ASSERT_TRUE(msg.ok());
  EXPECT_EQ(msg.value().id(), kMsgIdNoSenders);
}

TEST(NoSendersTest, ReRegisterAfterFireDeliversAgain) {
  PortPair notify = PortAllocate("notify");
  PortPair p = PortAllocate("watched");
  p.receive.port()->RequestNoSendersNotification(notify.send);
  p.send = SendRight();
  ASSERT_TRUE(MsgReceive(notify.receive, milliseconds(1000)).ok());
  // Resurrect the count, re-arm, and kill the senders again.
  SendRight revived = p.receive.MakeSendRight();
  p.receive.port()->RequestNoSendersNotification(notify.send);
  EXPECT_EQ(MsgReceive(notify.receive, kPoll).status(), KernReturn::kNoMessage);
  revived = SendRight();
  Result<Message> again = MsgReceive(notify.receive, milliseconds(1000));
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again.value().id(), kMsgIdNoSenders);
}

TEST(NoSendersTest, PortDeathSupersedesNoSenders) {
  PortPair notify = PortAllocate("notify");
  PortPair p = PortAllocate("watched");
  p.receive.port()->RequestNoSendersNotification(notify.send);
  p.receive.Destroy();  // Dies while a send right still exists.
  p.send = SendRight();
  // No no-senders notification: the registration died with the port.
  EXPECT_EQ(MsgReceive(notify.receive, milliseconds(50)).status(), KernReturn::kTimedOut);
}

// --- port garbage collection --------------------------------------------

TEST(PortGcTest, CrossPortCycleReclaimed) {
  // The ROADMAP leak: two ports each queueing the other's receive right.
  // Neither can ever be received from again, and neither dies on its own.
  size_t baseline = PortGcLivePortCount();
  PortPair a = PortAllocate("cycle-a");
  PortPair b = PortAllocate("cycle-b");
  Message ma(1);
  ma.PushReceive(std::move(b.receive));
  ASSERT_EQ(MsgSend(a.send, std::move(ma), kPoll), KernReturn::kSuccess);
  Message mb(2);
  mb.PushReceive(std::move(a.receive));
  ASSERT_EQ(MsgSend(b.send, std::move(mb), kPoll), KernReturn::kSuccess);
  a.send = SendRight();
  b.send = SendRight();
  EXPECT_EQ(PortGcCollect(), 2u);
  EXPECT_EQ(PortGcLivePortCount(), baseline);
}

TEST(PortGcTest, ThreePortRingReclaimed) {
  size_t baseline = PortGcLivePortCount();
  PortPair a = PortAllocate("ring-a");
  PortPair b = PortAllocate("ring-b");
  PortPair c = PortAllocate("ring-c");
  Message ma(1);
  ma.PushReceive(std::move(b.receive));
  ASSERT_EQ(MsgSend(a.send, std::move(ma), kPoll), KernReturn::kSuccess);
  Message mb(2);
  mb.PushReceive(std::move(c.receive));
  ASSERT_EQ(MsgSend(b.send, std::move(mb), kPoll), KernReturn::kSuccess);
  Message mc(3);
  mc.PushReceive(std::move(a.receive));
  ASSERT_EQ(MsgSend(c.send, std::move(mc), kPoll), KernReturn::kSuccess);
  a.send = SendRight();
  b.send = SendRight();
  c.send = SendRight();
  EXPECT_EQ(PortGcCollect(), 3u);
  EXPECT_EQ(PortGcLivePortCount(), baseline);
}

TEST(PortGcTest, ExternallyReferencedCycleIsKept) {
  size_t baseline = PortGcLivePortCount();
  PortPair a = PortAllocate("held-a");
  PortPair b = PortAllocate("held-b");
  Message ma(1);
  ma.PushReceive(std::move(b.receive));
  ASSERT_EQ(MsgSend(a.send, std::move(ma), kPoll), KernReturn::kSuccess);
  Message mb(2);
  mb.PushReceive(std::move(a.receive));
  ASSERT_EQ(MsgSend(b.send, std::move(mb), kPoll), KernReturn::kSuccess);
  b.send = SendRight();
  // a.send is still task-held, so the whole structure stays reachable.
  EXPECT_EQ(PortGcCollect(), 0u);
  EXPECT_EQ(PortGcLivePortCount(), baseline + 2);
  EXPECT_FALSE(a.send.IsDead());
  // Dropping the root makes the cycle collectable.
  a.send = SendRight();
  EXPECT_EQ(PortGcCollect(), 2u);
  EXPECT_EQ(PortGcLivePortCount(), baseline);
}

TEST(PortGcTest, DeathNotificationsFireForReclaimedPorts) {
  PortPair notify = PortAllocate("notify");
  PortPair a = PortAllocate("gc-a");
  PortPair b = PortAllocate("gc-b");
  uint64_t a_id = a.send.id();
  uint64_t b_id = b.send.id();
  a.receive.port()->RequestDeathNotification(notify.send);
  b.receive.port()->RequestDeathNotification(notify.send);
  Message ma(1);
  ma.PushReceive(std::move(b.receive));
  ASSERT_EQ(MsgSend(a.send, std::move(ma), kPoll), KernReturn::kSuccess);
  Message mb(2);
  mb.PushReceive(std::move(a.receive));
  ASSERT_EQ(MsgSend(b.send, std::move(mb), kPoll), KernReturn::kSuccess);
  a.send = SendRight();
  b.send = SendRight();
  EXPECT_EQ(PortGcCollect(), 2u);
  // GC destroys through the ordinary path, so watchers still hear about it.
  std::vector<uint64_t> dead;
  for (int i = 0; i < 2; ++i) {
    Result<Message> msg = MsgReceive(notify.receive, milliseconds(1000));
    ASSERT_TRUE(msg.ok());
    EXPECT_EQ(msg.value().id(), kMsgIdPortDeath);
    dead.push_back(msg.value().TakeU64().value());
  }
  EXPECT_TRUE((dead[0] == a_id && dead[1] == b_id) || (dead[0] == b_id && dead[1] == a_id));
}

TEST(PortGcTest, ReplyPortCycleReclaimed) {
  // The cycle can also ride the reply-port slot, not just explicit items.
  size_t baseline = PortGcLivePortCount();
  PortPair a = PortAllocate("reply-a");
  PortPair b = PortAllocate("reply-b");
  Message ma(1);
  ma.set_reply_port(b.send);
  ASSERT_EQ(MsgSend(a.send, std::move(ma), kPoll), KernReturn::kSuccess);
  Message mb(2);
  mb.PushReceive(std::move(a.receive));
  mb.PushReceive(std::move(b.receive));
  ASSERT_EQ(MsgSend(b.send, std::move(mb), kPoll), KernReturn::kSuccess);
  a.send = SendRight();
  b.send = SendRight();
  EXPECT_EQ(PortGcCollect(), 2u);
  EXPECT_EQ(PortGcLivePortCount(), baseline);
}

// --- rights carried by undeliverable messages (the "GC path" fix) --------

TEST(DeadPortRightsTest, FailedSendToDeadPortDestroysCarriedRights) {
  PortPair notify = PortAllocate("notify");
  PortPair dest = PortAllocate("dest");
  dest.receive.Destroy();
  PortPair inner = PortAllocate("inner");
  uint64_t inner_id = inner.send.id();
  inner.receive.port()->RequestDeathNotification(notify.send);
  PortPair witness = PortAllocate("witness");
  witness.receive.port()->RequestNoSendersNotification(notify.send);
  {
    Message msg(1);
    msg.PushReceive(std::move(inner.receive));  // Last receive right.
    msg.PushPort(witness.send);
    witness.send = SendRight();  // Queue copy is now the only send right.
    EXPECT_EQ(MsgSend(dest.send, std::move(msg)), KernReturn::kPortDead);
  }  // The undeliverable message dies here, rights and all.
  // inner's receive right died (death notification) and witness's last send
  // right died (no-senders); item destruction order is unspecified, so
  // accept both orders.
  bool saw_death = false, saw_no_senders = false;
  for (int i = 0; i < 2; ++i) {
    Result<Message> msg = MsgReceive(notify.receive, milliseconds(1000));
    ASSERT_TRUE(msg.ok());
    if (msg.value().id() == kMsgIdPortDeath) {
      EXPECT_EQ(msg.value().TakeU64().value(), inner_id);
      saw_death = true;
    } else {
      EXPECT_EQ(msg.value().id(), kMsgIdNoSenders);
      EXPECT_EQ(msg.value().TakeU64().value(), witness.receive.id());
      saw_no_senders = true;
    }
  }
  EXPECT_TRUE(saw_death);
  EXPECT_TRUE(saw_no_senders);
}

TEST(DeadPortRightsTest, QueuedRightsDestroyedOnPortDeath) {
  // Rights already *in* a queue when the port dies must be destroyed through
  // the same path (death notifications fire), not dropped on the floor.
  PortPair notify = PortAllocate("notify");
  PortPair holder = PortAllocate("holder");
  PortPair inner = PortAllocate("inner");
  uint64_t inner_id = inner.send.id();
  inner.receive.port()->RequestDeathNotification(notify.send);
  Message msg(1);
  msg.PushReceive(std::move(inner.receive));
  ASSERT_EQ(MsgSend(holder.send, std::move(msg), kPoll), KernReturn::kSuccess);
  holder.receive.Destroy();  // Drains the queue, killing inner with it.
  Result<Message> death = MsgReceive(notify.receive, milliseconds(1000));
  ASSERT_TRUE(death.ok());
  EXPECT_EQ(death.value().id(), kMsgIdPortDeath);
  EXPECT_EQ(death.value().TakeU64().value(), inner_id);
  EXPECT_TRUE(inner.send.IsDead());
}

TEST(DeadPortRightsTest, FullQueueSendFailureDestroysCarriedRights) {
  PortPair notify = PortAllocate("notify");
  PortPair dest = PortAllocate("dest");
  ASSERT_EQ(dest.receive.port()->SetBacklog(1), KernReturn::kSuccess);
  ASSERT_EQ(MsgSend(dest.send, Message(0), kPoll), KernReturn::kSuccess);
  PortPair witness = PortAllocate("witness");
  witness.receive.port()->RequestNoSendersNotification(notify.send);
  {
    Message msg(1);
    msg.PushPort(witness.send);
    witness.send = SendRight();
    EXPECT_EQ(MsgSend(dest.send, std::move(msg), kPoll), KernReturn::kPortFull);
  }
  Result<Message> ns = MsgReceive(notify.receive, milliseconds(1000));
  ASSERT_TRUE(ns.ok());
  EXPECT_EQ(ns.value().id(), kMsgIdNoSenders);
}

// --- kernel-object handlers -----------------------------------------------

TEST(KernelObjectTest, HandlerServesInTheSendersThreadOrDeclinesToTheQueue) {
  PortPair p = PortAllocate("kernel-object");
  std::vector<MsgId> served;
  uint64_t served_port = 0;
  std::thread::id served_on;
  p.receive.port()->SetKernelObjectHandler(
      [&](Port& port, Message& msg, Timeout) -> std::optional<KernReturn> {
        if (msg.id() != 1) {
          return std::nullopt;
        }
        served.push_back(msg.id());
        served_port = port.id();
        served_on = std::this_thread::get_id();
        return KernReturn::kSuccess;
      });
  ASSERT_EQ(MsgSend(p.send, Message(1), kPoll), KernReturn::kSuccess);
  ASSERT_EQ(MsgSend(p.send, Message(2), kPoll), KernReturn::kSuccess);
  EXPECT_EQ(served, std::vector<MsgId>{1});
  EXPECT_EQ(served_port, p.receive.id());
  EXPECT_EQ(served_on, std::this_thread::get_id());
  // Only the declined message was queued.
  EXPECT_EQ(p.receive.port()->Status().num_msgs, 1u);
  EXPECT_EQ(MsgReceive(p.receive, kPoll).value().id(), 2u);
}

TEST(KernelObjectTest, FaultPointAndDeadCheckRunBeforeTheHandler) {
  FaultInjector fi(7);
  fi.SetSchedule(kIpcFaultEnqueue, {0});
  IpcFaultGuard guard(&fi);
  PortPair p = PortAllocate("kernel-object");
  int calls = 0;
  p.receive.port()->SetKernelObjectHandler(
      [&calls](Port&, Message&, Timeout) -> std::optional<KernReturn> {
        ++calls;
        return KernReturn::kSuccess;
      });
  EXPECT_EQ(MsgSend(p.send, Message(1), kPoll), KernReturn::kPortFull);
  EXPECT_EQ(calls, 0);
  EXPECT_EQ(MsgSend(p.send, Message(1), kPoll), KernReturn::kSuccess);
  EXPECT_EQ(calls, 1);
  p.receive.Destroy();
  EXPECT_EQ(MsgSend(p.send, Message(1), kPoll), KernReturn::kPortDead);
  EXPECT_EQ(calls, 1);
}

// --- ipc.* fault points --------------------------------------------------

TEST(IpcFaultTest, EnqueueOverflowInjected) {
  FaultInjector fi(7);
  fi.SetSchedule(kIpcFaultEnqueue, {0});
  IpcFaultGuard guard(&fi);
  PortPair p = PortAllocate("target");
  EXPECT_EQ(MsgSend(p.send, Message(1), kPoll), KernReturn::kPortFull);
  EXPECT_EQ(MsgSend(p.send, Message(2), kPoll), KernReturn::kSuccess);
  EXPECT_EQ(fi.Injected(kIpcFaultEnqueue), 1u);
}

TEST(IpcFaultTest, RightTransferDuplicatesSendRight) {
  FaultInjector fi(7);
  fi.SetSchedule(kIpcFaultRightTransfer, {0});
  IpcFaultGuard guard(&fi);
  PortPair carrier = PortAllocate("carrier");
  PortPair w = PortAllocate("dup-target");
  ASSERT_EQ(w.receive.port()->send_right_count(), 1u);
  Message msg(1);
  msg.PushPort(w.send);
  ASSERT_EQ(MsgSend(carrier.send, std::move(msg), kPoll), KernReturn::kSuccess);
  // Original copy + injected duplicate both ride the queue.
  EXPECT_EQ(w.receive.port()->send_right_count(), 3u);
  Result<Message> got = MsgReceive(carrier.receive, milliseconds(1000));
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.value().item_count(), 2u);
}

TEST(IpcFaultTest, RightTransferDropsReceiveRight) {
  FaultInjector fi(7);
  fi.SetSchedule(kIpcFaultRightTransfer, {0});
  IpcFaultGuard guard(&fi);
  PortPair notify = PortAllocate("notify");
  PortPair carrier = PortAllocate("carrier");
  PortPair inner = PortAllocate("dropped");
  inner.receive.port()->RequestDeathNotification(notify.send);
  Message msg(1);
  msg.PushReceive(std::move(inner.receive));
  ASSERT_EQ(MsgSend(carrier.send, std::move(msg), kPoll), KernReturn::kSuccess);
  // The right was dropped in transit: its port died...
  EXPECT_TRUE(inner.send.IsDead());
  Result<Message> death = MsgReceive(notify.receive, milliseconds(1000));
  ASSERT_TRUE(death.ok());
  EXPECT_EQ(death.value().id(), kMsgIdPortDeath);
  // ...and the receiver sees an invalid right where one was promised.
  Result<Message> got = MsgReceive(carrier.receive, milliseconds(1000));
  ASSERT_TRUE(got.ok());
  Result<ReceiveRight> r = got.value().TakeReceive();
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r.value().valid());
}

TEST(IpcFaultTest, NotifyDeferredUntilDrained) {
  FaultInjector fi(7);
  fi.SetSchedule(kIpcFaultNotify, {0});
  IpcFaultGuard guard(&fi);
  PortPair notify = PortAllocate("notify");
  {
    PortPair watched = PortAllocate("watched");
    watched.receive.port()->RequestDeathNotification(notify.send);
  }
  // The death notification was held back by ipc.notify.
  EXPECT_EQ(MsgReceive(notify.receive, kPoll).status(), KernReturn::kNoMessage);
  EXPECT_EQ(IpcPendingDelayedNotificationCount(), 1u);
  EXPECT_EQ(IpcDrainDelayedNotifications(), 1u);
  Result<Message> death = MsgReceive(notify.receive, milliseconds(1000));
  ASSERT_TRUE(death.ok());
  EXPECT_EQ(death.value().id(), kMsgIdPortDeath);
}

TEST(IpcFaultTest, DisarmingInjectorDrainsPendingNotifications) {
  FaultInjector fi(7);
  fi.SetSchedule(kIpcFaultNotify, {0});
  PortPair notify = PortAllocate("notify");
  {
    IpcFaultGuard guard(&fi);
    PortPair watched = PortAllocate("watched");
    watched.receive.port()->RequestNoSendersNotification(notify.send);
    watched.send = SendRight();
    EXPECT_EQ(IpcPendingDelayedNotificationCount(), 1u);
  }  // Disarm drains: nothing is silently lost.
  EXPECT_EQ(IpcPendingDelayedNotificationCount(), 0u);
  Result<Message> ns = MsgReceive(notify.receive, milliseconds(1000));
  ASSERT_TRUE(ns.ok());
  EXPECT_EQ(ns.value().id(), kMsgIdNoSenders);
}

}  // namespace
}  // namespace mach
