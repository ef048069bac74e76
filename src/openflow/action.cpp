#include "openflow/action.hpp"

#include "net/ethernet.hpp"
#include "net/ip.hpp"
#include "net/l4.hpp"
#include "util/strings.hpp"

namespace harmless::openflow {

namespace {

/// Offset of the IPv4 header in the frame, accounting for one tag.
std::size_t l3_offset(const net::Bytes& frame) {
  return net::vlan_peek(frame) ? net::kEthHeaderSize + 4 : net::kEthHeaderSize;
}

/// Recompute the IPv4 header checksum in place.
void refresh_ip_checksum(net::Bytes& frame, std::size_t l3) {
  std::span<std::uint8_t> bytes(frame.data(), frame.size());
  net::wr16(bytes, l3 + 10, 0);
  const std::uint16_t checksum =
      net::internet_checksum(net::BytesView(frame).subspan(l3, net::kIpv4HeaderSize));
  net::wr16(bytes, l3 + 10, checksum);
}

/// Recompute the TCP/UDP checksum after an address/port rewrite.
void refresh_l4_checksum(net::Bytes& frame, std::size_t l3) {
  const net::BytesView view(frame);
  const auto proto = static_cast<net::IpProto>(frame[l3 + 9]);
  const std::uint16_t total_length = net::rd16(view, l3 + 2);
  const std::size_t l4 = l3 + net::kIpv4HeaderSize;
  if (total_length < net::kIpv4HeaderSize) return;
  const std::size_t l4_size =
      std::min<std::size_t>(total_length - net::kIpv4HeaderSize, frame.size() - l4);
  std::span<std::uint8_t> bytes(frame.data(), frame.size());
  const net::Ipv4Addr src(net::rd32(view, l3 + 12));
  const net::Ipv4Addr dst(net::rd32(view, l3 + 16));

  if (proto == net::IpProto::kTcp && l4_size >= net::kTcpHeaderSize) {
    net::wr16(bytes, l4 + 16, 0);
    const std::uint16_t checksum =
        net::l4_checksum(src, dst, proto, view.subspan(l4, l4_size));
    net::wr16(bytes, l4 + 16, checksum);
  } else if (proto == net::IpProto::kUdp && l4_size >= net::kUdpHeaderSize) {
    net::wr16(bytes, l4 + 6, 0);
    std::uint16_t checksum = net::l4_checksum(src, dst, proto, view.subspan(l4, l4_size));
    if (checksum == 0) checksum = 0xffff;
    net::wr16(bytes, l4 + 6, checksum);
  }
}

bool set_field(const SetFieldAction& action, net::Packet& packet) {
  if (action.field == Field::kVlanVid)  // keeps the interned parse, patched
    return net::vlan_set_vid(packet, static_cast<net::VlanId>(action.value & 0x0fff));
  net::Bytes& frame = packet.frame();
  if (frame.size() < net::kEthHeaderSize) return false;
  std::span<std::uint8_t> bytes(frame.data(), frame.size());

  switch (action.field) {
    case Field::kEthDst: {
      const auto mac = net::MacAddr::from_u64(action.value).octets();
      std::copy(mac.begin(), mac.end(), frame.begin());
      return true;
    }
    case Field::kEthSrc: {
      const auto mac = net::MacAddr::from_u64(action.value).octets();
      std::copy(mac.begin(), mac.end(), frame.begin() + 6);
      return true;
    }
    case Field::kVlanPcp: {
      if (!net::vlan_peek(frame)) return false;
      auto tag = net::VlanTag::from_tci(net::rd16(net::BytesView(frame), 14));
      tag.pcp = static_cast<std::uint8_t>(action.value & 0x7);
      net::wr16(bytes, 14, tag.tci());
      return true;
    }
    default: break;
  }

  // IP/L4 rewrites need an IPv4 packet.
  const std::size_t l3 = l3_offset(frame);
  if (frame.size() < l3 + net::kIpv4HeaderSize) return false;
  if ((frame[l3] >> 4) != 4) return false;

  switch (action.field) {
    case Field::kIpSrc:
      net::wr32(bytes, l3 + 12, static_cast<std::uint32_t>(action.value));
      break;
    case Field::kIpDst:
      net::wr32(bytes, l3 + 16, static_cast<std::uint32_t>(action.value));
      break;
    case Field::kL4Src:
    case Field::kL4Dst: {
      const auto proto = static_cast<net::IpProto>(frame[l3 + 9]);
      if (proto != net::IpProto::kTcp && proto != net::IpProto::kUdp) return false;
      const std::size_t l4 = l3 + net::kIpv4HeaderSize;
      if (frame.size() < l4 + 4) return false;
      const std::size_t offset = (action.field == Field::kL4Src) ? l4 : l4 + 2;
      net::wr16(bytes, offset, static_cast<std::uint16_t>(action.value));
      break;
    }
    default:
      return false;
  }
  refresh_ip_checksum(frame, l3);
  refresh_l4_checksum(frame, l3);
  return true;
}

}  // namespace

bool apply_header_action(const Action& action, net::Packet& packet) {
  if (std::holds_alternative<PushVlanAction>(action)) {
    net::vlan_push(packet, net::VlanTag{0, 0, false});
    return true;
  }
  if (std::holds_alternative<PopVlanAction>(action)) {
    return net::vlan_pop(packet).has_value();
  }
  if (const auto* set = std::get_if<SetFieldAction>(&action)) {
    return set_field(*set, packet);
  }
  return true;  // Output/Group/Ct handled by the pipeline
}

std::string to_string(const Action& action) {
  if (const auto* out = std::get_if<OutputAction>(&action)) {
    switch (out->port) {
      case kPortController: return "output:CONTROLLER";
      case kPortFlood: return "output:FLOOD";
      case kPortAll: return "output:ALL";
      case kPortInPort: return "output:IN_PORT";
      default: return "output:" + std::to_string(out->port);
    }
  }
  if (const auto* grp = std::get_if<GroupAction>(&action))
    return "group:" + std::to_string(grp->group_id);
  if (std::holds_alternative<PushVlanAction>(action)) return "push_vlan";
  if (std::holds_alternative<PopVlanAction>(action)) return "pop_vlan";
  if (const auto* ct = std::get_if<CtAction>(&action)) {
    switch (ct->nat) {
      case CtAction::Nat::kSource:
        return util::format("ct(commit,snat=%s:%u-%u)",
                            net::Ipv4Addr(ct->nat_ip).to_string().c_str(), ct->port_min,
                            ct->port_max);
      case CtAction::Nat::kDest:
        if (ct->port_min != 0)
          return util::format("ct(commit,dnat=%s:%u)",
                              net::Ipv4Addr(ct->nat_ip).to_string().c_str(), ct->port_min);
        return util::format("ct(commit,dnat=%s)", net::Ipv4Addr(ct->nat_ip).to_string().c_str());
      case CtAction::Nat::kNone: break;
    }
    return "ct(commit)";
  }
  const auto& set = std::get<SetFieldAction>(action);
  switch (set.field) {
    case Field::kEthDst:
    case Field::kEthSrc:
      return util::format("set_%s:%s", field_name(set.field),
                          net::MacAddr::from_u64(set.value).to_string().c_str());
    case Field::kIpSrc:
    case Field::kIpDst:
      return util::format(
          "set_%s:%s", field_name(set.field),
          net::Ipv4Addr(static_cast<std::uint32_t>(set.value)).to_string().c_str());
    case Field::kVlanVid:
      return util::format("set_vlan_vid:%llu",
                          static_cast<unsigned long long>(set.value & 0x0fff));
    default:
      return util::format("set_%s:%llu", field_name(set.field),
                          static_cast<unsigned long long>(set.value));
  }
}

std::string to_string(const ActionList& actions) {
  if (actions.empty()) return "drop";
  std::string out;
  for (std::size_t i = 0; i < actions.size(); ++i) {
    if (i) out += ',';
    out += to_string(actions[i]);
  }
  return out;
}

}  // namespace harmless::openflow
