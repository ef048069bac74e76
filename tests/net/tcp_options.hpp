// Test helper: a TCP frame whose header carries options.
//
// The packet builders always emit a 20-byte TCP header (data offset
// 5). Real stacks add options (timestamps, SACK, window scale), which
// push the payload further into the segment; the parser must follow
// the data offset.
#pragma once

#include <algorithm>

#include "net/ethernet.hpp"
#include "net/ip.hpp"
#include "net/l4.hpp"
#include "net/packet.hpp"

namespace harmless::net {

/// Insert `option_bytes` (a multiple of 4, at most 40) of NOP options
/// after the TCP header of an untagged IPv4/TCP `packet`, raising the
/// data offset, the IP total length and the IP checksum to match. The
/// TCP checksum is left stale: the parser does not verify it.
inline Packet with_tcp_options(Packet packet, std::size_t option_bytes) {
  Bytes& frame = packet.frame();
  auto ip = Ipv4Header::parse(BytesView(frame).subspan(kEthHeaderSize));
  ip->total_length = static_cast<std::uint16_t>(ip->total_length + option_bytes);
  const Bytes ip_bytes = ip->serialize();
  std::copy(ip_bytes.begin(), ip_bytes.end(), frame.begin() + kEthHeaderSize);
  const std::size_t tcp = kEthHeaderSize + kIpv4HeaderSize;
  frame.insert(frame.begin() + static_cast<std::ptrdiff_t>(tcp + kTcpHeaderSize), option_bytes,
               std::uint8_t{1});  // TCP option kind 1: NOP
  frame[tcp + 12] = static_cast<std::uint8_t>((5 + option_bytes / 4) << 4);
  return packet;
}

}  // namespace harmless::net
