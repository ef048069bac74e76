// sim/host.hpp — end hosts: traffic sources, sinks and tiny servers.
//
// A Host has one NIC (port 0), a MAC and an IPv4 address. Out of the
// box it answers ARP requests and ICMP echoes for its own address and
// counts everything it receives. Optional roles:
//   * UDP generator  — send_udp_stream(): paced or back-to-back bursts
//   * HTTP server    — serves "GET" requests with a canned 200/403
//   * HTTP client    — http_get() fires a request; responses counted
// Tests can attach an on_receive hook; benches attach a
// LatencyRecorder to measure end-to-end latency.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "net/build.hpp"
#include "net/parse.hpp"
#include "sim/node.hpp"
#include "sim/recorder.hpp"

namespace harmless::sim {

class Host : public Node {
 public:
  Host(Engine& engine, std::string name, net::MacAddr mac, net::Ipv4Addr ip);

  [[nodiscard]] net::MacAddr mac() const { return mac_; }
  [[nodiscard]] net::Ipv4Addr ip() const { return ip_; }

  // ---- receive path -------------------------------------------------
  void handle(int in_port, net::Packet&& packet) override;

  /// Observe every delivered packet (after built-in responders ran).
  void set_on_receive(std::function<void(const net::Packet&, const net::ParsedPacket&)> hook) {
    on_receive_ = std::move(hook);
  }

  /// Latency bookkeeping: sent packets are armed, received ones
  /// completed, on this recorder.
  void set_recorder(LatencyRecorder* recorder) { recorder_ = recorder; }

  /// Toggle the built-in ARP responder (default on; the ICMP echo
  /// responder is always on).
  void set_arp_responder(bool on) { arp_responder_ = on; }

  /// NIC destination filtering: by default frames for other unicast
  /// MACs are dropped (counted in rx_filtered), like a real NIC with
  /// promiscuous mode off. Trunk observers in tests turn this off.
  void set_promiscuous(bool on) { promiscuous_ = on; }

  /// Enable the HTTP server role on the given TCP port.
  void serve_http(std::uint16_t tcp_port = 80);

  // ---- transmit path ------------------------------------------------
  /// Send a fully built frame right now (stamps id/timestamp, arms the
  /// recorder).
  void send(net::Packet&& packet);

  /// Schedule a UDP stream: `count` frames of `frame_size` bytes to
  /// (dst_mac, dst_ip), one every `interval` ns starting at `start`.
  /// interval 0 = back-to-back (limited only by the NIC line rate).
  void send_udp_stream(net::MacAddr dst_mac, net::Ipv4Addr dst_ip, std::size_t count,
                       std::size_t frame_size, SimNanos interval, SimNanos start = 0,
                       std::uint16_t dst_port = 9000);

  /// Fire one HTTP GET to host `http_host` at the given server.
  void http_get(net::MacAddr server_mac, net::Ipv4Addr server_ip, std::string_view http_host,
                std::string_view path = "/", std::uint16_t server_port = 80);

  /// Broadcast an ARP request for `target_ip`.
  void arp_request(net::Ipv4Addr target_ip);

  // ---- observable state ----------------------------------------------
  struct Counters {
    std::uint64_t rx_total = 0;
    std::uint64_t rx_filtered = 0;  // dropped by the NIC dst-MAC filter
    std::uint64_t rx_udp = 0;
    std::uint64_t rx_tcp = 0;
    std::uint64_t rx_icmp_echo_reply = 0;
    std::uint64_t rx_arp_reply = 0;
    std::uint64_t http_requests_served = 0;
    std::uint64_t http_ok_received = 0;
    std::uint64_t http_forbidden_received = 0;
    std::uint64_t tx_total = 0;
  };
  [[nodiscard]] const Counters& counters() const { return counters_; }

  /// Last `capacity` received parsed packets (newest last), for tests.
  [[nodiscard]] const std::vector<net::ParsedPacket>& rx_log() const { return rx_log_; }
  void set_rx_log_capacity(std::size_t capacity) { rx_log_capacity_ = capacity; }

 private:
  void maybe_respond(const net::ParsedPacket& parsed, const net::Packet& packet);

  net::MacAddr mac_;
  net::Ipv4Addr ip_;
  bool arp_responder_ = true;
  bool promiscuous_ = false;
  std::optional<std::uint16_t> http_port_;
  std::function<void(const net::Packet&, const net::ParsedPacket&)> on_receive_;
  LatencyRecorder* recorder_ = nullptr;
  Counters counters_;
  std::vector<net::ParsedPacket> rx_log_;
  std::size_t rx_log_capacity_ = 64;
  std::uint16_t next_src_port_ = 40000;
};

}  // namespace harmless::sim
