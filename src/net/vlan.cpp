#include "net/vlan.hpp"

#include "net/ethernet.hpp"

namespace harmless::net {

std::optional<VlanTag> vlan_peek(BytesView frame) {
  if (frame.size() < kEthHeaderSize + 4) return std::nullopt;
  if (rd16(frame, 12) != static_cast<std::uint16_t>(EtherType::kVlan)) return std::nullopt;
  return VlanTag::from_tci(rd16(frame, 14));
}

void vlan_push(Bytes& frame, VlanTag tag) {
  if (frame.size() < 12) return;  // no room for a tag after the MACs
  // Insert TPID+TCI at offset 12 (after dst+src MAC); the original
  // EtherType slides to offset 16 and becomes the inner type.
  std::uint8_t tag_bytes[4];
  wr16(std::span<std::uint8_t>(tag_bytes, 4), 0, static_cast<std::uint16_t>(EtherType::kVlan));
  wr16(std::span<std::uint8_t>(tag_bytes, 4), 2, tag.tci());
  frame.insert(frame.begin() + 12, tag_bytes, tag_bytes + 4);
}

std::optional<VlanTag> vlan_pop(Bytes& frame) {
  const auto tag = vlan_peek(frame);
  if (!tag) return std::nullopt;
  frame.erase(frame.begin() + 12, frame.begin() + 16);
  return tag;
}

bool vlan_set_vid(Bytes& frame, VlanId vid) {
  if (!vlan_peek(frame)) return false;
  auto tag = VlanTag::from_tci(rd16(frame, 14));
  tag.vid = vid & 0x0fff;
  wr16(std::span<std::uint8_t>(frame.data(), frame.size()), 14, tag.tci());
  return true;
}

}  // namespace harmless::net
