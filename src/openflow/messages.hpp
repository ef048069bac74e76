// openflow/messages.hpp — the controller<->switch protocol surface.
//
// The subset of OF1.3 message types the HARMLESS control plane uses,
// as plain structs in a std::variant. Wire framing (OFP headers, BER)
// is intentionally not modelled — the channel is in-process — but the
// message *semantics* (xids, barriers, flow-removed notifications,
// echo keepalives) are real, so controller apps are written exactly as
// they would be against a socket.
#pragma once

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "net/bytes.hpp"
#include "openflow/flow_entry.hpp"
#include "openflow/group_table.hpp"
#include "openflow/pipeline.hpp"

namespace harmless::openflow {

struct HelloMsg {
  std::uint8_t version = 4;  // OF1.3
};

struct FeaturesRequestMsg {};

struct PortDesc {
  std::uint32_t port_no = 0;
  std::string name;
  bool up = true;
};

struct FeaturesReplyMsg {
  std::uint64_t datapath_id = 0;
  std::uint8_t table_count = 0;
  std::vector<PortDesc> ports;
};

struct FlowModMsg {
  enum class Command : std::uint8_t { kAdd, kModify, kModifyStrict, kDelete, kDeleteStrict };
  Command command = Command::kAdd;
  std::uint8_t table_id = 0;
  std::uint16_t priority = 0;
  Match match;
  Instructions instructions;
  std::uint64_t cookie = 0;
  sim::SimNanos idle_timeout = 0;
  sim::SimNanos hard_timeout = 0;
  bool check_overlap = false;
  bool send_flow_removed = false;
};

struct GroupModMsg {
  enum class Command : std::uint8_t { kAdd, kModify, kDelete };
  Command command = Command::kAdd;
  GroupEntry entry;
};

struct PacketInMsg {
  std::uint32_t in_port = 0;
  std::uint8_t table_id = 0;
  PacketInReason reason = PacketInReason::kNoMatch;
  net::Packet packet;
};

struct PacketOutMsg {
  std::uint32_t in_port = kPortAny;
  ActionList actions;
  net::Packet packet;
};

struct PortStatusMsg {
  enum class Reason : std::uint8_t { kAdd, kDelete, kModify };
  Reason reason = Reason::kModify;
  PortDesc desc;
};

struct FlowRemovedMsg {
  std::uint8_t table_id = 0;
  std::uint16_t priority = 0;
  Match match;
  std::uint64_t cookie = 0;
  std::uint64_t packet_count = 0;
  std::uint64_t byte_count = 0;
};

struct FlowStatsRequestMsg {
  std::uint8_t table_id = 0xff;  // 0xff = all tables
};

struct FlowStatsEntry {
  std::uint8_t table_id = 0;
  std::uint16_t priority = 0;
  std::string match_text;
  std::string instructions_text;
  std::uint64_t cookie = 0;
  std::uint64_t packet_count = 0;
  std::uint64_t byte_count = 0;
};

struct FlowStatsReplyMsg {
  std::vector<FlowStatsEntry> flows;
};

struct BarrierRequestMsg {
  std::uint32_t xid = 0;
};
struct BarrierReplyMsg {
  std::uint32_t xid = 0;
};
struct EchoRequestMsg {
  std::uint64_t payload = 0;
};
struct EchoReplyMsg {
  std::uint64_t payload = 0;
};
/// Sent by the switch when a mod fails (bad table id, overlap, ...).
struct ErrorMsg {
  std::string text;
};

using Message =
    std::variant<HelloMsg, FeaturesRequestMsg, FeaturesReplyMsg, FlowModMsg, GroupModMsg,
                 PacketInMsg, PacketOutMsg, PortStatusMsg, FlowRemovedMsg, FlowStatsRequestMsg,
                 FlowStatsReplyMsg, BarrierRequestMsg, BarrierReplyMsg, EchoRequestMsg,
                 EchoReplyMsg, ErrorMsg>;

}  // namespace harmless::openflow
