// Messages (§3.2): a fixed header plus a variable-size collection of *typed*
// data items. An item is inline data, a port right (send or receive), or an
// out-of-line memory region. Out-of-line regions are carried as an opaque
// handle produced by the VM layer (a map copy); the IPC layer does not
// interpret them — that is the memory/communication duality boundary.

#ifndef SRC_IPC_MESSAGE_H_
#define SRC_IPC_MESSAGE_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "src/base/kern_return.h"
#include "src/base/vm_types.h"
#include "src/ipc/port_right.h"

namespace mach {

// Inline typed data.
struct DataItem {
  std::vector<std::byte> bytes;
};

// A send right travelling in a message.
struct PortItem {
  SendRight right;
};

// A receive right travelling in a message (used e.g. to hand a newly
// allocated memory object's receive side to a data manager).
struct ReceiveItem {
  ReceiveRight right;
};

// Out-of-line memory: an opaque VM map-copy handle. `size` is the byte
// length of the region. The VM layer provides CopyIn/CopyOut to produce and
// consume these; cross-host transports flatten them to bytes.
struct OolItem {
  std::shared_ptr<void> copy;
  VmSize size = 0;
};

using MsgItem = std::variant<DataItem, PortItem, ReceiveItem, OolItem>;

using MsgId = uint32_t;

// A message. Move-only (it may carry receive rights). The destination port
// is *not* part of the message object; it is an argument to msg_send, which
// matches how the primitives in Table 3-1 are used here.
class Message {
 public:
  Message() = default;
  explicit Message(MsgId id) : id_(id) {}

  Message(Message&&) = default;
  Message& operator=(Message&&) = default;
  Message(const Message&) = delete;
  Message& operator=(const Message&) = delete;

  MsgId id() const { return id_; }
  void set_id(MsgId id) { id_ = id; }

  // Reply port (capability for the receiver to respond). May be null.
  const SendRight& reply_port() const { return reply_port_; }
  void set_reply_port(SendRight right) { reply_port_ = std::move(right); }

  // --- Writing (append, in order) -------------------------------------

  void PushData(const void* data, size_t len) {
    const auto* bytes = static_cast<const std::byte*>(data);
    DataItem item;
    item.bytes.assign(bytes, bytes + len);
    items_.push_back(std::move(item));
  }

  void PushBytes(std::vector<std::byte> bytes) {
    items_.push_back(DataItem{std::move(bytes)});
  }

  void PushU32(uint32_t v) { PushData(&v, sizeof(v)); }
  void PushU64(uint64_t v) { PushData(&v, sizeof(v)); }
  void PushString(const std::string& s) { PushData(s.data(), s.size()); }

  void PushPort(SendRight right) { items_.push_back(PortItem{std::move(right)}); }
  void PushReceive(ReceiveRight right) { items_.push_back(ReceiveItem{std::move(right)}); }
  void PushOol(std::shared_ptr<void> copy, VmSize size) {
    items_.push_back(OolItem{std::move(copy), size});
  }

  // --- Reading (sequential cursor) ------------------------------------

  size_t item_count() const { return items_.size(); }
  bool AtEnd() const { return cursor_ >= items_.size(); }

  // Each Take* consumes the next item; type mismatch returns a failure
  // status / empty value. Protocol decoders check as they go.
  Result<std::vector<std::byte>> TakeBytes();
  Result<uint32_t> TakeU32();
  Result<uint64_t> TakeU64();
  Result<std::string> TakeString();
  Result<SendRight> TakePort();
  Result<ReceiveRight> TakeReceive();
  Result<OolItem> TakeOol();

  // Direct item access for transports that re-encode messages.
  std::vector<MsgItem>& items() { return items_; }
  const std::vector<MsgItem>& items() const { return items_; }

  // Total inline payload bytes (for accounting / latency models).
  VmSize InlineSize() const;

 private:
  MsgId id_ = 0;
  SendRight reply_port_;
  std::vector<MsgItem> items_;
  size_t cursor_ = 0;
};

}  // namespace mach

#endif  // SRC_IPC_MESSAGE_H_
