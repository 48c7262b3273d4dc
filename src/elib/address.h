// Participant addresses (one of the Escort support libraries): Ethernet MAC
// and IPv4 addresses plus subnet matching, used by the modules and by the
// per-subnet SYN policies, and the flat IP -> MAC table that the ARP module
// and the testbed machines resolve next hops through.

#ifndef SRC_ELIB_ADDRESS_H_
#define SRC_ELIB_ADDRESS_H_

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace escort {

struct MacAddr {
  std::array<uint8_t, 6> bytes{};

  static MacAddr Broadcast() { return MacAddr{{0xff, 0xff, 0xff, 0xff, 0xff, 0xff}}; }
  // The testbed's MAC for machine `index`: 02:00 (locally administered)
  // followed by the low 32 bits of the index, big-endian.
  static MacAddr FromIndex(uint64_t index);
  // Inverse of FromIndex: the index, or nullopt for a MAC whose first two
  // bytes are not 02:00 (broadcast included). Ascending index is ascending
  // byte order, so tables indexed by it iterate in MAC order.
  std::optional<uint64_t> ToIndex() const;

  bool IsBroadcast() const;
  bool operator==(const MacAddr& other) const { return bytes == other.bytes; }
  bool operator!=(const MacAddr& other) const { return !(*this == other); }
  std::string ToString() const;
};

struct Ip4Addr {
  uint32_t value = 0;

  static Ip4Addr FromOctets(uint8_t a, uint8_t b, uint8_t c, uint8_t d) {
    return Ip4Addr{(static_cast<uint32_t>(a) << 24) | (static_cast<uint32_t>(b) << 16) |
                   (static_cast<uint32_t>(c) << 8) | d};
  }

  bool operator==(const Ip4Addr& other) const { return value == other.value; }
  bool operator!=(const Ip4Addr& other) const { return value != other.value; }
  bool operator<(const Ip4Addr& other) const { return value < other.value; }
  std::string ToString() const;
};

// CIDR-style subnet (the SYN policy distinguishes a trusted from an
// untrusted part of the Internet by prefix).
struct Subnet {
  Ip4Addr base;
  int prefix_len = 0;  // 0 matches everything

  bool Contains(Ip4Addr addr) const;
  std::string ToString() const;
};

// Full four-tuple identifying a TCP connection.
struct ConnKey {
  Ip4Addr local_addr;
  uint16_t local_port = 0;
  Ip4Addr remote_addr;
  uint16_t remote_port = 0;

  bool operator==(const ConnKey& other) const {
    return local_addr == other.local_addr && local_port == other.local_port &&
           remote_addr == other.remote_addr && remote_port == other.remote_port;
  }
  bool operator<(const ConnKey& other) const;
};

// IP -> MAC resolution table: one flat vector sorted by IP, so a lookup is
// a binary search and an entry costs 12 bytes. An insert shifts the tail;
// the testbed assigns addresses in ascending order, so its inserts append.
class ArpTable {
 public:
  // Inserts the mapping, or overwrites the MAC of an existing entry.
  void Set(Ip4Addr ip, MacAddr mac);
  std::optional<MacAddr> Find(Ip4Addr ip) const;
  size_t size() const { return entries_.size(); }

 private:
  struct Entry {
    Ip4Addr ip;
    MacAddr mac;
  };
  std::vector<Entry> entries_;  // ascending by ip, one entry per ip
};

}  // namespace escort

#endif  // SRC_ELIB_ADDRESS_H_
