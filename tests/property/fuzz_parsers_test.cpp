// Robustness fuzzing for every parser that consumes external input:
// vendor config text, OIDs, raw frames, pcap files, conntrack
// snapshot images. The property is
// uniform — any byte soup either parses or returns a clean error;
// nothing throws, crashes or reads out of bounds (ASAN-clean by
// construction: all paths go through bounds-checked span reads).
#include <gtest/gtest.h>

#include "mgmt/dialects.hpp"
#include "mgmt/oid.hpp"
#include "net/build.hpp"
#include "net/l4.hpp"
#include "net/parse.hpp"
#include "net/pcap.hpp"
#include "openflow/conntrack.hpp"
#include "tests/net/tcp_options.hpp"
#include "util/rng.hpp"

namespace harmless {
namespace {

std::string random_text(util::Rng& rng, std::size_t max_length) {
  // Biased toward config-ish characters so parsing gets past line 1.
  static constexpr char kAlphabet[] =
      "abcdefghijklmnopqrstuvwxyz0123456789 .,/-\n\t interface switchport vlan trunk";
  std::string text;
  const std::size_t length = rng.below(max_length);
  for (std::size_t i = 0; i < length; ++i)
    text += kAlphabet[rng.below(sizeof(kAlphabet) - 1)];
  return text;
}

class ParserFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ParserFuzz, DialectParseNeverThrows) {
  util::Rng rng(GetParam());
  for (const char* platform : {"ios_like", "eos_like"}) {
    auto dialect = mgmt::make_dialect(platform);
    for (int trial = 0; trial < 200; ++trial) {
      const std::string text = random_text(rng, 400);
      EXPECT_NO_THROW({ auto result = dialect->parse(text); (void)result; });
    }
  }
}

TEST_P(ParserFuzz, MutatedValidConfigParsesOrFailsCleanly) {
  util::Rng rng(GetParam());
  auto dialect = mgmt::make_ios_like_dialect();
  legacy::SwitchConfig config;
  config.hostname = "fuzz";
  config.ports[1] = legacy::PortConfig{legacy::PortMode::kAccess, 101, {}, std::nullopt,
                                       true, "leg"};
  config.ports[2] =
      legacy::PortConfig{legacy::PortMode::kTrunk, 1, {101, 102}, net::VlanId{101}, true, ""};
  const std::string valid = dialect->render(config);

  for (int trial = 0; trial < 300; ++trial) {
    std::string mutated = valid;
    // Flip, delete or duplicate a few characters.
    for (int edit = 0; edit < 3 && !mutated.empty(); ++edit) {
      const std::size_t pos = rng.below(mutated.size());
      switch (rng.below(3)) {
        case 0: mutated[pos] = static_cast<char>('!' + rng.below(90)); break;
        case 1: mutated.erase(pos, 1); break;
        default: mutated.insert(pos, 1, mutated[pos]); break;
      }
    }
    EXPECT_NO_THROW({
      auto result = dialect->parse(mutated);
      if (result.is_ok()) {
        // If it parsed, it must re-render without throwing either.
        (void)dialect->render(*result);
      } else {
        EXPECT_FALSE(result.message().empty());
      }
    });
  }
}

TEST_P(ParserFuzz, OidParseNeverThrows) {
  util::Rng rng(GetParam());
  for (int trial = 0; trial < 500; ++trial) {
    std::string text;
    const std::size_t length = rng.below(40);
    static constexpr char kOidish[] = "0123456789....abc-";
    for (std::size_t i = 0; i < length; ++i) text += kOidish[rng.below(sizeof(kOidish) - 1)];
    EXPECT_NO_THROW({ auto oid = mgmt::Oid::parse(text); (void)oid; });
  }
}

TEST_P(ParserFuzz, FrameParserHandlesRandomBytes) {
  util::Rng rng(GetParam());
  for (int trial = 0; trial < 500; ++trial) {
    net::Bytes frame(rng.below(200));
    for (auto& byte : frame) byte = static_cast<std::uint8_t>(rng.below(256));
    EXPECT_NO_THROW({ auto parsed = net::parse_packet(frame); (void)parsed; });
  }
}

TEST_P(ParserFuzz, FrameParserHandlesMutatedValidPackets) {
  util::Rng rng(GetParam());
  net::FlowKey key;
  key.eth_src = net::MacAddr::from_u64(1);
  key.eth_dst = net::MacAddr::from_u64(2);
  key.ip_src = net::Ipv4Addr(10, 0, 0, 1);
  key.ip_dst = net::Ipv4Addr(10, 0, 0, 2);
  key.src_port = 1;
  key.dst_port = 80;
  for (int trial = 0; trial < 500; ++trial) {
    net::Packet packet = rng.chance(0.5) ? net::make_http_get(key, "fuzz.example")
                                         : net::make_udp(key, 64 + rng.below(256));
    net::Bytes& frame = packet.frame();
    for (int edit = 0; edit < 4; ++edit)
      frame[rng.below(frame.size())] = static_cast<std::uint8_t>(rng.below(256));
    if (rng.chance(0.3)) frame.resize(rng.below(frame.size() + 1));
    EXPECT_NO_THROW({
      const net::ParsedPacket parsed = net::parse_packet(frame);
      // The payload view must stay inside the frame even when length
      // fields were corrupted.
      const std::string_view payload = net::l4_payload(parsed, frame);
      if (!payload.empty()) {
        EXPECT_GE(reinterpret_cast<const std::uint8_t*>(payload.data()), frame.data());
        EXPECT_LE(reinterpret_cast<const std::uint8_t*>(payload.data()) + payload.size(),
                  frame.data() + frame.size());
      }
    });
  }
}

TEST_P(ParserFuzz, TcpDataOffsetBoundsThePayload) {
  // Options of every legal length, then a data offset that is kept,
  // rewritten to any 4-bit value, or cut short by a truncated frame:
  // the payload view stays inside the segment, and an intact frame's
  // payload is the request itself.
  util::Rng rng(GetParam());
  net::FlowKey key;
  key.eth_src = net::MacAddr::from_u64(1);
  key.eth_dst = net::MacAddr::from_u64(2);
  key.ip_src = net::Ipv4Addr(10, 0, 0, 1);
  key.ip_dst = net::Ipv4Addr(10, 0, 0, 2);
  key.src_port = 1;
  key.dst_port = 80;
  constexpr std::size_t kOffsetByte = net::kEthHeaderSize + net::kIpv4HeaderSize + 12;
  for (int trial = 0; trial < 500; ++trial) {
    net::Packet packet =
        net::with_tcp_options(net::make_http_get(key, "fuzz.example"), 4 * rng.below(11));
    net::Bytes& frame = packet.frame();
    const bool rewritten = rng.chance(0.5);
    if (rewritten) frame[kOffsetByte] = static_cast<std::uint8_t>(rng.below(16) << 4);
    const bool truncated = rng.chance(0.3);
    if (truncated) frame.resize(rng.below(frame.size() + 1));
    const net::ParsedPacket parsed = net::parse_packet(frame);
    const std::string_view payload = net::l4_payload(parsed, frame);
    if (parsed.tcp) {
      EXPECT_GE(parsed.tcp->data_offset, 5);
      EXPECT_LE(parsed.l4_payload_offset + parsed.l4_payload_size, frame.size());
      EXPECT_EQ(parsed.l4_payload_offset,
                kOffsetByte - 12 + parsed.tcp->data_offset * std::size_t{4});
    }
    if (!rewritten && !truncated) {
      ASSERT_TRUE(parsed.tcp);
      EXPECT_TRUE(payload.starts_with("GET / HTTP/1.1\r\nHost: fuzz.example")) << payload;
    }
  }
}

TEST_P(ParserFuzz, PcapParserHandlesRandomBytes) {
  util::Rng rng(GetParam());
  // Seed some inputs with the valid magic so record parsing is reached.
  net::PcapWriter seed;
  for (int trial = 0; trial < 300; ++trial) {
    net::Bytes file;
    if (rng.chance(0.5)) {
      file = seed.bytes();
      const std::size_t extra = rng.below(80);
      for (std::size_t i = 0; i < extra; ++i)
        file.push_back(static_cast<std::uint8_t>(rng.below(256)));
    } else {
      file.resize(rng.below(120));
      for (auto& byte : file) byte = static_cast<std::uint8_t>(rng.below(256));
    }
    EXPECT_NO_THROW({ auto records = net::pcap_parse(file); (void)records; });
  }
}

TEST_P(ParserFuzz, CtSnapshotParseHandlesMutatedImages) {
  util::Rng rng(GetParam());
  // A valid image holding plain and SNAT entries.
  openflow::ConnTracker ct(openflow::CtConfig{}, 1);
  const openflow::CtAction snat{openflow::CtAction::Nat::kSource, 0xc0a80001, 49152, 65535};
  for (std::uint32_t i = 0; i < 4; ++i) {
    const openflow::CtTuple tuple{0x0a000001 + i, 0x08080808,
                                  static_cast<std::uint16_t>(40000 + i), 80, 6};
    ct.process(tuple, net::kTcpSyn, 100, i % 2 == 0 ? snat : openflow::CtAction{});
  }
  const std::vector<std::uint8_t> valid = ct.checkpoint(1'000).serialize();

  for (int trial = 0; trial < 500; ++trial) {
    std::vector<std::uint8_t> image = valid;
    // Overwrite a few bytes — the count field among them a quarter of
    // the time — then maybe truncate or extend.
    for (int edit = 0; edit < 3; ++edit)
      image[rng.below(image.size())] = static_cast<std::uint8_t>(rng.below(256));
    if (rng.chance(0.25))
      image[14 + rng.below(4)] = static_cast<std::uint8_t>(rng.below(256));
    if (rng.chance(0.2)) image.resize(rng.below(image.size() + 1));
    if (rng.chance(0.1)) image.push_back(static_cast<std::uint8_t>(rng.below(256)));
    EXPECT_NO_THROW({
      const auto parsed = openflow::CtSnapshot::parse(image);
      // The decoder is exact: whatever it accepts re-serializes to the
      // same bytes, and carries only values serialize() can write.
      if (parsed) {
        EXPECT_EQ(parsed->serialize(), image);
        for (const openflow::CtSnapshotEntry& entry : parsed->entries)
          EXPECT_GT(entry.remaining_ns, 0);
      }
    });
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParserFuzz, ::testing::Values(101, 202, 303, 404));

}  // namespace
}  // namespace harmless
