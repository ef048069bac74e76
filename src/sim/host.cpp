#include "sim/host.hpp"

#include <utility>

#include "util/strings.hpp"

namespace harmless::sim {

Host::Host(Engine& engine, std::string name, net::MacAddr mac, net::Ipv4Addr ip)
    : Node(engine, std::move(name)), mac_(mac), ip_(ip) {
  ensure_ports(1);
}

void Host::send(net::Packet&& packet) {
  packet.set_id(engine_.next_packet_id());
  packet.set_created_at(engine_.now());
  if (recorder_) recorder_->arm(packet.id(), engine_.now());
  ++counters_.tx_total;
  port(0).send(std::move(packet));
}

void Host::handle(int /*in_port*/, net::Packet&& packet) {
  // Reuse the interned parse when the delivering switch already paid
  // for it (the zero-copy output path hands the frame over intact).
  // Nothing below mutates the frame, so the reference stays valid.
  const net::ParsedPacket& parsed = net::parse_cached(packet).parsed;

  // NIC destination filter: unicast frames for someone else are dropped
  // before the stack sees them (flooded copies on shared segments).
  if (!promiscuous_ && parsed.l2_valid && !parsed.eth_dst.is_multicast() &&
      parsed.eth_dst != mac_) {
    ++counters_.rx_filtered;
    return;
  }

  ++counters_.rx_total;
  if (recorder_) recorder_->complete(packet, engine_.now());

  if (parsed.udp) ++counters_.rx_udp;
  if (parsed.tcp) ++counters_.rx_tcp;
  if (parsed.icmp && parsed.icmp->type == net::IcmpType::kEchoReply)
    ++counters_.rx_icmp_echo_reply;
  if (parsed.arp && parsed.arp->op == net::ArpOp::kReply) ++counters_.rx_arp_reply;

  if (parsed.tcp) {
    // as_const: the mutable frame() overload would drop the intern.
    const std::string_view payload = net::l4_payload(parsed, std::as_const(packet).frame());
    if (util::starts_with(payload, "HTTP/1.1 200")) ++counters_.http_ok_received;
    if (util::starts_with(payload, "HTTP/1.1 403")) ++counters_.http_forbidden_received;
  }

  if (rx_log_.size() < rx_log_capacity_) rx_log_.push_back(parsed);

  maybe_respond(parsed, packet);
  if (on_receive_) on_receive_(packet, parsed);
}

void Host::maybe_respond(const net::ParsedPacket& parsed, const net::Packet& packet) {
  // ARP responder: answer requests that target our IP.
  if (arp_responder_ && parsed.arp && parsed.arp->op == net::ArpOp::kRequest &&
      parsed.arp->target_ip == ip_) {
    send(net::make_arp_reply(mac_, ip_, parsed.arp->sender_mac, parsed.arp->sender_ip));
    return;
  }

  // ICMP echo responder.
  if (parsed.icmp && parsed.icmp->type == net::IcmpType::kEchoRequest && parsed.ipv4 &&
      parsed.ipv4->dst == ip_) {
    net::FlowKey reply;
    reply.eth_src = mac_;
    reply.eth_dst = parsed.eth_src;
    reply.ip_src = ip_;
    reply.ip_dst = parsed.ipv4->src;
    send(net::make_icmp_echo(reply, /*request=*/false, parsed.icmp->identifier,
                             parsed.icmp->sequence));
    return;
  }

  // HTTP server: one-segment request/response exchange.
  if (http_port_ && parsed.tcp && parsed.tcp->dst_port == *http_port_ && parsed.ipv4 &&
      parsed.ipv4->dst == ip_) {
    const std::string_view payload = net::l4_payload(parsed, packet.frame());
    if (util::starts_with(payload, "GET ")) {
      ++counters_.http_requests_served;
      net::FlowKey reply;
      reply.eth_src = mac_;
      reply.eth_dst = parsed.eth_src;
      reply.ip_src = ip_;
      reply.ip_dst = parsed.ipv4->src;
      reply.src_port = parsed.tcp->dst_port;
      reply.dst_port = parsed.tcp->src_port;
      send(net::make_tcp(reply, net::kTcpPsh | net::kTcpAck,
                         "HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok"));
    }
  }
}

void Host::serve_http(std::uint16_t tcp_port) { http_port_ = tcp_port; }

void Host::send_udp_stream(net::MacAddr dst_mac, net::Ipv4Addr dst_ip, std::size_t count,
                           std::size_t frame_size, SimNanos interval, SimNanos start,
                           std::uint16_t dst_port) {
  for (std::size_t i = 0; i < count; ++i) {
    const SimNanos at = start + static_cast<SimNanos>(i) * interval;
    engine_.schedule_at(at, [this, dst_mac, dst_ip, frame_size, dst_port, i] {
      net::FlowKey flow;
      flow.eth_src = mac_;
      flow.eth_dst = dst_mac;
      flow.ip_src = ip_;
      flow.ip_dst = dst_ip;
      flow.src_port = static_cast<std::uint16_t>(10000 + (i % 50000));
      flow.dst_port = dst_port;
      send(net::make_udp(flow, frame_size));
    });
  }
}

void Host::http_get(net::MacAddr server_mac, net::Ipv4Addr server_ip, std::string_view http_host,
                    std::string_view path, std::uint16_t server_port) {
  net::FlowKey flow;
  flow.eth_src = mac_;
  flow.eth_dst = server_mac;
  flow.ip_src = ip_;
  flow.ip_dst = server_ip;
  flow.src_port = next_src_port_++;
  if (next_src_port_ < 40000) next_src_port_ = 40000;  // wrap within ephemeral range
  flow.dst_port = server_port;
  send(net::make_http_get(flow, http_host, path));
}

void Host::arp_request(net::Ipv4Addr target_ip) {
  send(net::make_arp_request(mac_, ip_, target_ip));
}

}  // namespace harmless::sim
