// Tests for the NetLink proxy layer: message forwarding, latency charging,
// reply-port rewriting, proxy unwrapping, out-of-line flattening between
// kernels, and dead-target propagation.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "src/kernel/kernel.h"
#include "src/kernel/task.h"
#include "src/net/net_link.h"
#include "src/pager/data_manager.h"
#include "tests/workload/link_timer.h"

namespace mach {
namespace {

constexpr VmSize kPage = 4096;

class NetTest : public ::testing::Test {
 protected:
  NetTest() {
    Kernel::Config config;
    config.frames = 96;
    config.page_size = kPage;
    config.disk_latency = DiskLatencyModel{0, 0};
    config.name = "A";
    host_a_ = std::make_unique<Kernel>(config);
    config.name = "B";
    host_b_ = std::make_unique<Kernel>(config);
    link_ = std::make_unique<NetLink>(&host_a_->vm(), &host_b_->vm(), &clock_, kNormaLatency);
  }

  SimClock clock_;
  std::unique_ptr<Kernel> host_a_;
  std::unique_ptr<Kernel> host_b_;
  std::unique_ptr<NetLink> link_;
};

TEST_F(NetTest, ForwardsMessages) {
  PortPair on_b = PortAllocate("service-on-b");
  SendRight proxy = link_->ProxyForA(on_b.send);
  Message msg(11);
  msg.PushU32(99);
  ASSERT_EQ(MsgSend(proxy, std::move(msg)), KernReturn::kSuccess);
  Result<Message> got = MsgReceive(on_b.receive, std::chrono::seconds(5));
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.value().id(), 11u);
  EXPECT_EQ(got.value().TakeU32().value(), 99u);
  EXPECT_EQ(link_->messages_forwarded(), 1u);
}

TEST_F(NetTest, ChargesLatency) {
  PortPair on_b = PortAllocate();
  SendRight proxy = link_->ProxyForA(on_b.send);
  Message msg(1);
  msg.PushData(std::string(1000, 'x').data(), 1000);
  ASSERT_EQ(MsgSend(proxy, std::move(msg)), KernReturn::kSuccess);
  ASSERT_TRUE(MsgReceive(on_b.receive, std::chrono::seconds(5)).ok());
  // NORMA: per_msg 200us + per_byte 80ns * ~1000B.
  EXPECT_GE(clock_.NowNs(), kNormaLatency.per_msg_ns);
}

TEST_F(NetTest, ProxyIsCachedPerTarget) {
  PortPair on_b = PortAllocate();
  SendRight p1 = link_->ProxyForA(on_b.send);
  SendRight p2 = link_->ProxyForA(on_b.send);
  EXPECT_EQ(p1.id(), p2.id());
}

TEST_F(NetTest, ReplyPortCrossesBackThroughLink) {
  PortPair service_on_b = PortAllocate("svc");
  SendRight proxy = link_->ProxyForA(service_on_b.send);

  std::thread server([recv = std::move(service_on_b.receive)]() mutable {
    Result<Message> req = MsgReceive(recv, std::chrono::seconds(5));
    ASSERT_TRUE(req.ok());
    Message reply(2);
    reply.PushU32(req.value().TakeU32().value() * 2);
    // The reply port the server sees is a proxy; replying crosses the link.
    MsgSend(req.value().reply_port(), std::move(reply));
  });
  Message request(1);
  request.PushU32(21);
  Result<Message> reply = MsgRpc(proxy, std::move(request), kWaitForever, std::chrono::seconds(5));
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(reply.value().TakeU32().value(), 42u);
  // Request + reply both crossed.
  EXPECT_EQ(link_->messages_forwarded(), 2u);
  server.join();
}

TEST_F(NetTest, ProxyOfProxyUnwraps) {
  // A right that is already a proxy for the reverse direction gets
  // unwrapped, not double-proxied: ping-pong does not accrete latency
  // layers.
  PortPair on_b = PortAllocate("b-port");
  SendRight proxy_on_a = link_->ProxyForA(on_b.send);
  // Send the proxy right across the link inside a message to a B port:
  PortPair sink_on_b = PortAllocate("sink");
  SendRight sink_proxy = link_->ProxyForA(sink_on_b.send);
  Message carrier(3);
  carrier.PushPort(proxy_on_a);
  ASSERT_EQ(MsgSend(sink_proxy, std::move(carrier)), KernReturn::kSuccess);
  Result<Message> got = MsgReceive(sink_on_b.receive, std::chrono::seconds(5));
  ASSERT_TRUE(got.ok());
  Result<SendRight> carried = got.value().TakePort();
  ASSERT_TRUE(carried.ok());
  // B received the *real* port, not a proxy-of-proxy.
  EXPECT_EQ(carried.value().id(), on_b.send.id());
}

TEST_F(NetTest, OolMemoryFlattensAcrossKernels) {
  std::shared_ptr<Task> task_a = host_a_->CreateTask();
  std::shared_ptr<Task> task_b = host_b_->CreateTask();
  VmOffset src = task_a->VmAllocate(2 * kPage).value();
  std::vector<uint8_t> payload(2 * kPage);
  for (size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<uint8_t>(i * 13);
  }
  ASSERT_EQ(task_a->Write(src, payload.data(), payload.size()), KernReturn::kSuccess);

  PortPair on_b = PortAllocate("ool-sink");
  SendRight proxy = link_->ProxyForA(on_b.send);
  auto copy = host_a_->vm().CopyIn(task_a->vm_context(), src, 2 * kPage).value();
  Message msg(4);
  msg.PushOol(copy, 2 * kPage);
  ASSERT_EQ(MsgSend(proxy, std::move(msg)), KernReturn::kSuccess);

  Result<Message> got = MsgReceive(on_b.receive, std::chrono::seconds(5));
  ASSERT_TRUE(got.ok());
  Result<OolItem> ool = got.value().TakeOol();
  ASSERT_TRUE(ool.ok());
  auto rebuilt = std::static_pointer_cast<VmMapCopy>(ool.value().copy);
  ASSERT_NE(rebuilt, nullptr);
  EXPECT_EQ(rebuilt->system(), &host_b_->vm());  // Lives in B's kernel now.
  Result<VmOffset> dst = host_b_->vm().CopyOut(task_b->vm_context(), rebuilt);
  ASSERT_TRUE(dst.ok());
  std::vector<uint8_t> out(2 * kPage);
  ASSERT_EQ(task_b->Read(dst.value(), out.data(), out.size()), KernReturn::kSuccess);
  EXPECT_EQ(out, payload);
  // Bytes were charged on the wire.
  EXPECT_GE(link_->bytes_forwarded(), 2 * kPage);
  task_a.reset();
  task_b.reset();
}

TEST_F(NetTest, DeadTargetKillsProxyImmediately) {
  SendRight proxy;
  {
    PortPair on_b = PortAllocate("dying");
    proxy = link_->ProxyForA(on_b.send);
    ASSERT_EQ(MsgSend(proxy, Message(1)), KernReturn::kSuccess);
    // Receive right dropped here: target dies, and its death action kills
    // the proxy synchronously — no waiting for the next forward to fail.
  }
  EXPECT_EQ(MsgSend(proxy, Message(2), kPoll), KernReturn::kPortDead);
}

TEST_F(NetTest, LatencyRegimesOrdering) {
  // §7: UMA < NUMA < NORMA by orders of magnitude.
  EXPECT_LT(kUmaLatency.per_msg_ns, kNumaLatency.per_msg_ns);
  EXPECT_LT(kNumaLatency.per_msg_ns, kNormaLatency.per_msg_ns);
  EXPECT_GE(kNumaLatency.per_msg_ns / kUmaLatency.per_msg_ns, 10u);   // ~10x (Butterfly).
  EXPECT_GE(kNormaLatency.per_msg_ns / kNumaLatency.per_msg_ns, 10u); // 100s of us (HyperCube).
}

TEST_F(NetTest, InjectedDropLosesUnreliableMessages) {
  FaultInjector inj(7);
  inj.SetSchedule(NetLink::kFaultDrop, {0});  // Drop the first transmission.
  NetFaultConfig faults;
  faults.injector = &inj;
  NetLink lossy(&host_a_->vm(), &host_b_->vm(), &clock_, kUmaLatency, faults);
  PortPair on_b = PortAllocate("lossy-sink");
  SendRight proxy = lossy.ProxyForA(on_b.send);
  Message first(1);
  ASSERT_EQ(MsgSend(proxy, std::move(first)), KernReturn::kSuccess);
  Message second(2);
  ASSERT_EQ(MsgSend(proxy, std::move(second)), KernReturn::kSuccess);
  Result<Message> got = MsgReceive(on_b.receive, std::chrono::seconds(5));
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.value().id(), 2u);  // The first died on the wire.
  EXPECT_EQ(lossy.messages_lost(), 1u);
  EXPECT_EQ(lossy.messages_dropped(), 1u);
  EXPECT_EQ(lossy.retransmits(), 0u);  // Unreliable: no recovery attempted.
}

TEST_F(NetTest, ReliableModeRetransmitsThroughDrops) {
  FaultInjector inj(7);
  inj.SetSchedule(NetLink::kFaultDrop, {0, 1});  // First two attempts fail.
  NetFaultConfig faults;
  faults.injector = &inj;
  faults.reliable = true;
  NetLink lossy(&host_a_->vm(), &host_b_->vm(), &clock_, kUmaLatency, faults);
  PortPair on_b = PortAllocate("reliable-sink");
  SendRight proxy = lossy.ProxyForA(on_b.send);
  Message msg(9);
  msg.PushU32(33);
  ASSERT_EQ(MsgSend(proxy, std::move(msg)), KernReturn::kSuccess);
  Result<Message> got = MsgReceive(on_b.receive, std::chrono::seconds(5));
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.value().id(), 9u);
  EXPECT_EQ(got.value().TakeU32().value(), 33u);
  EXPECT_EQ(lossy.retransmits(), 2u);
  EXPECT_EQ(lossy.messages_lost(), 0u);
  // Exponential backoff was charged in virtual time: base + 2*base.
  EXPECT_GE(clock_.NowNs(), faults.retransmit_base_ns * 3);
}

TEST_F(NetTest, PartitionLosesEvenReliableTraffic) {
  NetFaultConfig faults;
  faults.reliable = true;
  faults.max_retransmits = 3;
  NetLink plink(&host_a_->vm(), &host_b_->vm(), &clock_, kUmaLatency, faults);
  PortPair on_b = PortAllocate("partition-sink");
  SendRight proxy = plink.ProxyForA(on_b.send);
  plink.SetPartitioned(true);
  ASSERT_EQ(MsgSend(proxy, Message(1)), KernReturn::kSuccess);
  EXPECT_FALSE(MsgReceive(on_b.receive, std::chrono::milliseconds(300)).ok());
  EXPECT_EQ(plink.messages_lost(), 1u);
  EXPECT_EQ(plink.retransmits(), 3u);  // The budget was spent first.
  // Healing restores the flow.
  plink.SetPartitioned(false);
  ASSERT_EQ(MsgSend(proxy, Message(2)), KernReturn::kSuccess);
  Result<Message> got = MsgReceive(on_b.receive, std::chrono::seconds(5));
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.value().id(), 2u);
}

TEST_F(NetTest, DuplicatesDeliveredUnreliablySuppressedReliably) {
  // Unreliable: the duplicate reaches the receiver twice.
  FaultInjector inj(3);
  inj.SetSchedule(NetLink::kFaultDuplicate, {0});
  NetFaultConfig faults;
  faults.injector = &inj;
  NetLink dup(&host_a_->vm(), &host_b_->vm(), &clock_, kUmaLatency, faults);
  PortPair on_b = PortAllocate("dup-sink");
  SendRight proxy = dup.ProxyForA(on_b.send);
  Message msg(5);
  msg.PushU32(11);
  ASSERT_EQ(MsgSend(proxy, std::move(msg)), KernReturn::kSuccess);
  Result<Message> one = MsgReceive(on_b.receive, std::chrono::seconds(5));
  Result<Message> two = MsgReceive(on_b.receive, std::chrono::seconds(5));
  ASSERT_TRUE(one.ok());
  ASSERT_TRUE(two.ok());
  EXPECT_EQ(one.value().id(), 5u);
  EXPECT_EQ(two.value().id(), 5u);
  EXPECT_EQ(dup.messages_duplicated(), 1u);

  // Reliable: sequence numbers suppress the duplicate delivery. Hit 0 of
  // net.duplicate is consulted by the SACK path (a duplicated SACK, merged
  // idempotently); hit 1 replays the whole message.
  FaultInjector inj2(3);
  inj2.SetSchedule(NetLink::kFaultDuplicate, {0, 1});
  NetFaultConfig rfaults;
  rfaults.injector = &inj2;
  rfaults.reliable = true;
  NetLink rel(&host_a_->vm(), &host_b_->vm(), &clock_, kUmaLatency, rfaults);
  PortPair on_b2 = PortAllocate("dedup-sink");
  SendRight rproxy = rel.ProxyForA(on_b2.send);
  Message msg2(6);
  ASSERT_EQ(MsgSend(rproxy, std::move(msg2)), KernReturn::kSuccess);
  ASSERT_TRUE(MsgReceive(on_b2.receive, std::chrono::seconds(5)).ok());
  EXPECT_FALSE(MsgReceive(on_b2.receive, std::chrono::milliseconds(200)).ok());
  EXPECT_EQ(rel.sacks_duplicated(), 1u);
  EXPECT_EQ(rel.duplicates_suppressed(), 1u);
  EXPECT_EQ(rel.messages_duplicated(), 0u);
}

// --- Fragmented reliable transport -----------------------------------------

// Helper: an OOL message carrying `pages` pages of a deterministic pattern,
// plus the expected bytes for verification on the far side.
struct OolPayload {
  Message msg{42};
  std::vector<uint8_t> expected;
};

OolPayload MakeOolPayload(Kernel* host, const std::shared_ptr<Task>& task, size_t pages) {
  OolPayload p;
  VmOffset src = task->VmAllocate(pages * kPage).value();
  p.expected.resize(pages * kPage);
  for (size_t i = 0; i < p.expected.size(); ++i) {
    p.expected[i] = static_cast<uint8_t>((i * 131) ^ (i >> 8));
  }
  EXPECT_EQ(task->Write(src, p.expected.data(), p.expected.size()), KernReturn::kSuccess);
  auto copy = host->vm().CopyIn(task->vm_context(), src, pages * kPage).value();
  p.msg.PushOol(copy, pages * kPage);
  return p;
}

// Helper: receive an OOL message on host B and check it byte-for-byte.
void ExpectOolDelivered(Kernel* host_b, const std::shared_ptr<Task>& task_b,
                        ReceiveRight& recv, const std::vector<uint8_t>& expected) {
  Result<Message> got = MsgReceive(recv, std::chrono::seconds(10));
  ASSERT_TRUE(got.ok());
  Result<OolItem> ool = got.value().TakeOol();
  ASSERT_TRUE(ool.ok());
  auto rebuilt = std::static_pointer_cast<VmMapCopy>(ool.value().copy);
  ASSERT_NE(rebuilt, nullptr);
  Result<VmOffset> dst = host_b->vm().CopyOut(task_b->vm_context(), rebuilt);
  ASSERT_TRUE(dst.ok());
  std::vector<uint8_t> out(expected.size());
  ASSERT_EQ(task_b->Read(dst.value(), out.data(), out.size()), KernReturn::kSuccess);
  EXPECT_EQ(out, expected);
}

TEST_F(NetTest, FragmentedTransferRetransmitsOnlyTheMissingFragment) {
  // 8 pages = 8 fragments; fragment #3 of the first burst is dropped. The
  // SACK flags exactly that fragment, so the retransmission pass resends one
  // fragment — 4 KiB on the wire, not 32 KiB.
  FaultInjector inj(11);
  inj.SetSchedule(NetLink::kFaultFragDrop, {3});
  NetFaultConfig faults;
  faults.injector = &inj;
  faults.reliable = true;
  NetLink lossy(&host_a_->vm(), &host_b_->vm(), &clock_, kUmaLatency, faults);
  std::shared_ptr<Task> task_a = host_a_->CreateTask();
  std::shared_ptr<Task> task_b = host_b_->CreateTask();
  PortPair on_b = PortAllocate("frag-sink");
  SendRight proxy = lossy.ProxyForA(on_b.send);

  OolPayload p = MakeOolPayload(host_a_.get(), task_a, 8);
  ASSERT_EQ(MsgSend(proxy, std::move(p.msg)), KernReturn::kSuccess);
  ExpectOolDelivered(host_b_.get(), task_b, on_b.receive, p.expected);

  EXPECT_EQ(lossy.fragments_sent(), 9u);           // 8 + the one retry.
  EXPECT_EQ(lossy.fragments_retransmitted(), 1u);
  EXPECT_EQ(lossy.bytes_retransmitted(), 4096u);
  EXPECT_EQ(lossy.sacks_sent(), 2u);               // One per delivering burst.
  EXPECT_EQ(lossy.retransmits(), 1u);              // One RTO expiry.
  EXPECT_EQ(lossy.messages_dropped(), 1u);
  EXPECT_EQ(lossy.messages_lost(), 0u);
  task_a.reset();
  task_b.reset();
}

TEST_F(NetTest, OutOfOrderFragmentArrivalReassembles) {
  // The first fragment is reordered past the SACK: it arrives, but the SACK
  // that already left does not cover it, so the sender retransmits it and
  // the receiver suppresses the duplicate. The payload is still intact.
  FaultInjector inj(12);
  inj.SetSchedule(NetLink::kFaultReorder, {0});
  NetFaultConfig faults;
  faults.injector = &inj;
  faults.reliable = true;
  NetLink link(&host_a_->vm(), &host_b_->vm(), &clock_, kUmaLatency, faults);
  std::shared_ptr<Task> task_a = host_a_->CreateTask();
  std::shared_ptr<Task> task_b = host_b_->CreateTask();
  PortPair on_b = PortAllocate("reorder-sink");
  SendRight proxy = link.ProxyForA(on_b.send);

  OolPayload p = MakeOolPayload(host_a_.get(), task_a, 2);
  ASSERT_EQ(MsgSend(proxy, std::move(p.msg)), KernReturn::kSuccess);
  ExpectOolDelivered(host_b_.get(), task_b, on_b.receive, p.expected);

  EXPECT_EQ(link.reorders_seen(), 1u);
  EXPECT_EQ(link.fragments_retransmitted(), 1u);
  EXPECT_EQ(link.duplicates_suppressed(), 1u);  // The straggler's retry.
  EXPECT_EQ(link.messages_lost(), 0u);
  task_a.reset();
  task_b.reset();
}

TEST_F(NetTest, LostSackRetransmitsWindowIdempotently) {
  // All four fragments arrive but the SACK is dropped: the sender must
  // resend the whole window, the receiver suppresses all four duplicates,
  // and the second SACK (covering everything) completes the message. The
  // message is delivered exactly once.
  FaultInjector inj(13);
  inj.SetSchedule(NetLink::kFaultAckDrop, {0});
  NetFaultConfig faults;
  faults.injector = &inj;
  faults.reliable = true;
  NetLink link(&host_a_->vm(), &host_b_->vm(), &clock_, kUmaLatency, faults);
  std::shared_ptr<Task> task_a = host_a_->CreateTask();
  std::shared_ptr<Task> task_b = host_b_->CreateTask();
  PortPair on_b = PortAllocate("ackloss-sink");
  SendRight proxy = link.ProxyForA(on_b.send);

  OolPayload p = MakeOolPayload(host_a_.get(), task_a, 4);
  ASSERT_EQ(MsgSend(proxy, std::move(p.msg)), KernReturn::kSuccess);
  ExpectOolDelivered(host_b_.get(), task_b, on_b.receive, p.expected);
  EXPECT_FALSE(MsgReceive(on_b.receive, std::chrono::milliseconds(200)).ok());

  EXPECT_EQ(link.fragments_sent(), 8u);
  EXPECT_EQ(link.fragments_retransmitted(), 4u);
  EXPECT_EQ(link.duplicates_suppressed(), 4u);
  EXPECT_EQ(link.sacks_sent(), 2u);
  EXPECT_EQ(link.retransmits(), 1u);
  EXPECT_EQ(link.messages_lost(), 0u);
  task_a.reset();
  task_b.reset();
}

TEST_F(NetTest, TerminalLossIsCountedExactlyOnce) {
  // A multi-fragment reliable message that exhausts its budget during a
  // partition is one lost message — not one per dropped fragment — while
  // messages_dropped still counts every attempt that died on the wire.
  NetFaultConfig faults;
  faults.reliable = true;
  faults.max_retransmits = 2;
  NetLink plink(&host_a_->vm(), &host_b_->vm(), &clock_, kUmaLatency, faults);
  PortPair on_b = PortAllocate("budget-sink");
  SendRight proxy = plink.ProxyForA(on_b.send);
  plink.SetPartitioned(true);

  Message msg(7);
  std::string blob(4 * kPage, 'q');  // 4 fragments.
  msg.PushData(blob.data(), blob.size());
  ASSERT_EQ(MsgSend(proxy, std::move(msg)), KernReturn::kSuccess);
  EXPECT_FALSE(MsgReceive(on_b.receive, std::chrono::milliseconds(300)).ok());

  EXPECT_EQ(plink.messages_lost(), 1u);  // Exactly once.
  EXPECT_EQ(plink.retransmits(), 2u);    // The full budget.
  // (1 + max_retransmits) passes x 4 fragments, every one dropped.
  EXPECT_EQ(plink.messages_dropped(), 12u);
  EXPECT_EQ(plink.sacks_sent(), 0u);

  // Healing does not resurrect the lost message, and later traffic does not
  // re-count it.
  plink.SetPartitioned(false);
  ASSERT_EQ(MsgSend(proxy, Message(8)), KernReturn::kSuccess);
  Result<Message> got = MsgReceive(on_b.receive, std::chrono::seconds(5));
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.value().id(), 8u);
  EXPECT_EQ(plink.messages_lost(), 1u);
}

TEST_F(NetTest, RandomizedFragmentFaultsDeliverByteForByte) {
  // Property check: under randomized fragment drops, ack drops, reorders,
  // whole-frame drops and duplicates, every reliable message that the link
  // reports delivered matches the sent bytes exactly — and with a generous
  // retransmit budget, none are lost.
  uint64_t total_retransmitted = 0;
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    FaultInjector inj(seed);
    inj.SetProbability(NetLink::kFaultFragDrop, 0.20);
    inj.SetProbability(NetLink::kFaultAckDrop, 0.15);
    inj.SetProbability(NetLink::kFaultReorder, 0.10);
    inj.SetProbability(NetLink::kFaultDrop, 0.05);
    inj.SetProbability(NetLink::kFaultDuplicate, 0.05);
    NetFaultConfig faults;
    faults.injector = &inj;
    faults.reliable = true;
    faults.max_retransmits = 10;
    faults.window_fragments = 4;
    NetLink link(&host_a_->vm(), &host_b_->vm(), &clock_, kUmaLatency, faults);
    PortPair on_b = PortAllocate("prop-sink");
    SendRight proxy = link.ProxyForA(on_b.send);

    std::mt19937_64 rng(seed * 7919);
    for (int i = 0; i < 6; ++i) {
      std::vector<std::byte> payload(1 + rng() % (5 * kPage));
      for (std::byte& b : payload) {
        b = static_cast<std::byte>(rng());
      }
      const std::vector<std::byte> oracle = payload;
      Message msg(100 + i);
      msg.PushBytes(std::move(payload));
      ASSERT_EQ(MsgSend(proxy, std::move(msg)), KernReturn::kSuccess);
      Result<Message> got = MsgReceive(on_b.receive, std::chrono::seconds(10));
      ASSERT_TRUE(got.ok()) << "seed " << seed << " message " << i;
      EXPECT_EQ(got.value().id(), 100u + i);
      Result<std::vector<std::byte>> bytes = got.value().TakeBytes();
      ASSERT_TRUE(bytes.ok());
      EXPECT_EQ(bytes.value(), oracle) << "seed " << seed << " message " << i;
    }
    EXPECT_EQ(link.messages_lost(), 0u) << "seed " << seed;
    total_retransmitted += link.fragments_retransmitted();
  }
  // The fault rates are high enough that the sweep must have exercised the
  // selective-repeat path.
  EXPECT_GT(total_retransmitted, 0u);
}

// --- Failure detector -------------------------------------------------------

TEST_F(NetTest, FailureDetectorDegradesThenDeclaresPeerDead) {
  NetFaultConfig faults;
  faults.reliable = true;
  faults.failure_detector = true;
  faults.max_retransmits = 1;
  faults.retransmit_base_ns = 1000;  // Keep virtual backoff cheap.
  faults.degraded_after_timeouts = 1;
  faults.dead_after_timeouts = 4;
  NetLink link(&host_a_->vm(), &host_b_->vm(), &clock_, kUmaLatency, faults);
  PortPair on_b = PortAllocate("detector-sink");
  SendRight proxy = link.ProxyForA(on_b.send);
  ASSERT_EQ(link.a_to_b_status().health, LinkHealth::kUp);

  // A partition plus one message burns the retransmit budget: two timeout
  // rounds, enough to degrade but not to declare death.
  link.SetPartitioned(true);
  ASSERT_EQ(MsgSend(proxy, Message(1)), KernReturn::kSuccess);
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (link.a_to_b_status().health == LinkHealth::kUp &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_NE(link.a_to_b_status().health, LinkHealth::kUp);

  // Heartbeats keep probing the dead link; the peer is declared dead and
  // the proxy is killed, so senders see port death instead of hanging.
  while (link.a_to_b_status().health != LinkHealth::kPeerDead &&
         std::chrono::steady_clock::now() < deadline) {
    link.Tick();
  }
  ASSERT_EQ(link.a_to_b_status().health, LinkHealth::kPeerDead);
  EXPECT_GE(link.peer_dead_events(), 1u);
  EXPECT_EQ(MsgSend(proxy, Message(2), kPoll), KernReturn::kPortDead);

  // Healing: the next successful heartbeat re-enters kUp, and a fresh proxy
  // for the same target carries traffic again.
  link.SetPartitioned(false);
  while ((link.a_to_b_status().health != LinkHealth::kUp ||
          link.b_to_a_status().health != LinkHealth::kUp) &&
         std::chrono::steady_clock::now() < deadline) {
    link.Tick();
  }
  ASSERT_EQ(link.a_to_b_status().health, LinkHealth::kUp);
  SendRight fresh = link.ProxyForA(on_b.send);
  ASSERT_TRUE(fresh.valid());
  EXPECT_NE(fresh.id(), proxy.id());
  ASSERT_EQ(MsgSend(fresh, Message(3)), KernReturn::kSuccess);
  Result<Message> got = MsgReceive(on_b.receive, std::chrono::seconds(5));
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.value().id(), 3u);
  // Successful traffic seeded the RTT estimator.
  EXPECT_GE(link.a_to_b_status().rto_ns, faults.min_rto_ns);
  EXPECT_GE(link.heartbeats_sent(), 4u);
}

TEST_F(NetTest, HeartbeatsCountTicksNotWallTime) {
  // The link never reads the wall clock: on a quiet link each Tick() sends
  // one heartbeat per direction, and the health machine moves per call.
  NetFaultConfig faults;
  faults.failure_detector = true;
  faults.degraded_after_timeouts = 2;
  faults.dead_after_timeouts = 4;
  NetLink link(&host_a_->vm(), &host_b_->vm(), &clock_, kUmaLatency, faults);
  PortPair on_b = PortAllocate("heartbeat-target");
  SendRight proxy = link.ProxyForA(on_b.send);
  link.SetPartitioned(true);

  const LinkHealth want[] = {LinkHealth::kUp, LinkHealth::kDegraded, LinkHealth::kDegraded,
                             LinkHealth::kPeerDead};
  for (uint64_t tick = 1; tick <= 4; ++tick) {
    EXPECT_FALSE(proxy.IsDead()) << "before tick " << tick;
    link.Tick();
    EXPECT_EQ(link.a_to_b_status().health, want[tick - 1]) << "tick " << tick;
    EXPECT_EQ(link.b_to_a_status().health, want[tick - 1]) << "tick " << tick;
    EXPECT_EQ(link.heartbeats_sent(), 2 * tick);
  }
  EXPECT_TRUE(proxy.IsDead());
  EXPECT_EQ(link.peer_dead_events(), 2u);

  link.SetPartitioned(false);
  link.Tick();
  EXPECT_EQ(link.a_to_b_status().health, LinkHealth::kUp);
  EXPECT_EQ(link.b_to_a_status().health, LinkHealth::kUp);
  EXPECT_EQ(link.heartbeats_sent(), 10u);
}

// A data manager that never answers: any fault against its objects parks
// until the pager (or the link carrying it) dies.
class StallingPager : public DataManager {
 public:
  StallingPager() : DataManager("stalling") {}
  SendRight NewObject() { return CreateMemoryObject(7); }

 protected:
  void OnDataRequest(uint64_t, uint64_t, PagerDataRequestArgs) override {}
};

TEST_F(NetTest, PeerDeathResolvesParkedRemoteFaulterQuickly) {
  // End-to-end crash recovery: a task on a zero-fill host faults against a
  // remote pager through a partitioned link. The failure detector declares
  // the peer dead and kills the proxy, whose death notification lets the
  // kernel resolve the parked faulter immediately — far inside the 5 s
  // pager timeout it would otherwise burn.
  Kernel::Config config;
  config.frames = 96;
  config.page_size = kPage;
  config.disk_latency = DiskLatencyModel{0, 0};
  config.name = "B-zerofill";
  config.vm.on_pager_timeout = VmSystem::Config::OnPagerTimeout::kZeroFill;
  auto zf_host = std::make_unique<Kernel>(config);

  StallingPager pager;
  pager.Start();
  SendRight object = pager.NewObject();

  NetFaultConfig faults;
  faults.reliable = true;
  faults.failure_detector = true;
  faults.max_retransmits = 1;
  faults.retransmit_base_ns = 1000;
  faults.degraded_after_timeouts = 1;
  faults.dead_after_timeouts = 3;
  NetLink link(&host_a_->vm(), &zf_host->vm(), &clock_, kUmaLatency, faults);
  LinkTimer timer(&link);
  SendRight exported = link.ProxyForB(object);  // Usable on the zero-fill host.

  std::shared_ptr<Task> task = zf_host->CreateTask();
  Result<VmOffset> addr = task->VmAllocateWithPager(kPage, exported, 0);
  ASSERT_TRUE(addr.ok());

  link.SetPartitioned(true);
  const auto started = std::chrono::steady_clock::now();
  uint64_t out = 0xFFFF'FFFF'FFFF'FFFFull;
  KernReturn kr = task->Read(addr.value(), &out, sizeof(out));
  const auto elapsed = std::chrono::steady_clock::now() - started;

  EXPECT_EQ(kr, KernReturn::kSuccess);
  EXPECT_EQ(out, 0u);  // Zero-fill policy.
  EXPECT_LT(elapsed, std::chrono::seconds(2));  // Not the 5 s pager timeout.
  EXPECT_GE(link.peer_dead_events(), 1u);
  EXPECT_TRUE(exported.IsDead());
  EXPECT_GE(zf_host->vm().Statistics().manager_deaths, 1u);

  task.reset();
  pager.Stop();
}

// --- Forwarding in the sender's thread ---------------------------------------

// A data manager that answers every request with zeroes and remembers the
// request port its objects' kernel gave it.
class ZeroPager : public DataManager {
 public:
  ZeroPager() : DataManager("zero") {}
  ~ZeroPager() override { Stop(); }
  SendRight NewObject() { return CreateMemoryObject(1); }
  SendRight WaitForRequestPort() {
    std::unique_lock<std::mutex> lk(mu_);
    cv_.wait_for(lk, std::chrono::seconds(5), [&] { return request_.valid(); });
    return request_;
  }

 protected:
  void OnInit(uint64_t, uint64_t, PagerInitArgs args) override {
    {
      std::lock_guard<std::mutex> g(mu_);
      request_ = std::move(args.pager_request_port);
    }
    cv_.notify_all();
  }
  void OnDataRequest(uint64_t, uint64_t, PagerDataRequestArgs args) override {
    ProvideData(args.pager_request_port, args.offset, std::vector<std::byte>(args.length),
                kVmProtNone);
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  SendRight request_;
};

TEST_F(NetTest, ManagerCallAcrossTheLinkHasTakenEffectWhenItReturns) {
  // The manager's pager_flush_request crosses the link and runs in kernel
  // B inside the manager's own msg_send, as it would for a local kernel:
  // the dirty page has been written back before the send returns.
  constexpr VmSize kPages = 4;
  ZeroPager pager;
  pager.Start();
  SendRight object = pager.NewObject();
  std::shared_ptr<Task> task = host_b_->CreateTask();
  Result<VmOffset> addr = task->VmAllocateWithPager(kPages * kPage, link_->ProxyForB(object), 0);
  ASSERT_TRUE(addr.ok());
  const SendRight request = pager.WaitForRequestPort();  // Kernel B's, through the link.
  ASSERT_TRUE(request.valid());

  for (VmSize i = 0; i < kPages; ++i) {
    ASSERT_EQ(task->WriteValue<uint64_t>(addr.value() + i * kPage, 0x5eed), KernReturn::kSuccess);
    const uint64_t before = host_b_->vm().Statistics().pageouts;
    ASSERT_EQ(DataManager::FlushRequest(request, i * kPage, kPage), KernReturn::kSuccess);
    EXPECT_EQ(host_b_->vm().Statistics().pageouts, before + 1) << "page " << i;
  }

  task.reset();
  pager.Stop();
}

TEST_F(NetTest, DeferredSendsKeepTheirOrderAndTheProxyBacklogPushesBack) {
  // A target at its backlog cannot take a message without waiting, so
  // polling senders defer to the direction's thread: their sends return at
  // once, and the messages arrive in send order once the target drains.
  NetLink link(&host_a_->vm(), &host_b_->vm(), &clock_, kUmaLatency);
  PortPair on_b = PortAllocate("full-sink");
  ASSERT_EQ(on_b.receive.port()->SetBacklog(1), KernReturn::kSuccess);
  ASSERT_EQ(MsgSend(on_b.send, Message(100), kPoll), KernReturn::kSuccess);  // Now full.
  SendRight proxy = link.ProxyForA(on_b.send);

  const auto started = std::chrono::steady_clock::now();
  for (MsgId id = 1; id <= 5; ++id) {
    ASSERT_EQ(MsgSend(proxy, Message(id), kPoll), KernReturn::kSuccess);
  }
  EXPECT_LT(std::chrono::steady_clock::now() - started, std::chrono::milliseconds(500));
  for (MsgId want : {100u, 1u, 2u, 3u, 4u, 5u}) {
    Result<Message> got = MsgReceive(on_b.receive, std::chrono::seconds(5));
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got.value().id(), want);
  }
  EXPECT_EQ(link.messages_forwarded(), 5u);

  // With the target full again, the thread waits on its delivery and the
  // proxy's own queue fills: past its backlog, a polling sender is refused.
  ASSERT_EQ(MsgSend(on_b.send, Message(100), kPoll), KernReturn::kSuccess);
  const PortStatus proxy_status = proxy.port()->Status();
  KernReturn kr = KernReturn::kSuccess;
  size_t accepted = 0;
  while (kr == KernReturn::kSuccess && accepted <= proxy_status.backlog + 2) {
    kr = MsgSend(proxy, Message(7), kPoll);
    accepted += kr == KernReturn::kSuccess;
  }
  EXPECT_EQ(kr, KernReturn::kPortFull);
  EXPECT_GE(accepted, proxy_status.backlog);
  on_b.receive.Destroy();  // Fails the thread's delivery; the proxy dies.
}

TEST_F(NetTest, PollingSendIntoAFullTargetIsQueuedBeforeItReturns) {
  // Pageout sends pager_data_write with kPoll and counts the run written
  // once the send succeeds. Through the link, a target at its backlog
  // takes the message at once, so a successful send has nothing left to
  // lose.
  NetFaultConfig faults;
  faults.reliable = true;
  NetLink link(&host_a_->vm(), &host_b_->vm(), &clock_, kUmaLatency, faults);
  PortPair on_b = PortAllocate("full-target");
  ASSERT_EQ(on_b.receive.port()->SetBacklog(1), KernReturn::kSuccess);
  ASSERT_EQ(MsgSend(on_b.send, Message(1), kPoll), KernReturn::kSuccess);  // Now full.
  SendRight proxy = link.ProxyForA(on_b.send);

  ASSERT_EQ(MsgSend(proxy, Message(2), kPoll), KernReturn::kSuccess);
  EXPECT_EQ(on_b.receive.port()->Status().num_msgs, 2u);
  for (MsgId want : {1u, 2u}) {
    Result<Message> got = MsgReceive(on_b.receive, kPoll);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got.value().id(), want);
  }
  EXPECT_EQ(link.messages_lost(), 0u);
}

TEST_F(NetTest, SendersRacingLinkTeardownSeeSuccessOrPortDeath) {
  // Senders run the link's handler in their own threads right up to
  // ~NetLink. The gate must let a send racing the destructor finish or
  // decline — never reach a destroyed link. Run under ASan.
  auto link = std::make_unique<NetLink>(&host_a_->vm(), &host_b_->vm(), &clock_, kUmaLatency);
  PortPair on_b = PortAllocate("teardown-sink");
  SendRight proxy = link->ProxyForA(on_b.send);
  std::atomic<bool> stop{false};
  std::thread drain([&] {
    while (!stop.load()) {
      MsgReceive(on_b.receive, std::chrono::milliseconds(5));
    }
  });
  std::atomic<int> sent{0};
  std::atomic<int> dead{0};
  std::atomic<int> other{0};
  auto sender = [&](bool carry_right, Timeout timeout) {
    PortPair reply = PortAllocate("teardown-reply");  // Crossing, it mints a reverse proxy.
    while (dead.load() == 0 || !stop.load()) {
      Message msg(9);
      if (carry_right) {
        msg.PushPort(reply.send);
      }
      const KernReturn kr = MsgSend(proxy, std::move(msg), timeout);
      if (kr == KernReturn::kSuccess) {
        ++sent;
      } else if (kr == KernReturn::kPortDead) {
        ++dead;
        if (stop.load()) {
          break;
        }
      } else {
        ++other;
      }
    }
  };
  std::thread plain(sender, false, Timeout(std::chrono::seconds(10)));
  std::thread carrying(sender, true, Timeout(std::chrono::seconds(10)));
  while (sent.load() < 200) {
    std::this_thread::yield();
  }
  link.reset();
  stop.store(true);
  plain.join();
  carrying.join();
  drain.join();
  EXPECT_GT(dead.load(), 0) << "a proxy outlived its link";
  EXPECT_EQ(other.load(), 0);
}

}  // namespace
}  // namespace mach
