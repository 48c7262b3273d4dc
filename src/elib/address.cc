#include "src/elib/address.h"

#include <algorithm>
#include <cstdio>
#include <tuple>

namespace escort {

MacAddr MacAddr::FromIndex(uint64_t index) {
  MacAddr mac;
  mac.bytes[0] = 0x02;  // locally administered
  mac.bytes[1] = 0x00;
  mac.bytes[2] = static_cast<uint8_t>(index >> 24);
  mac.bytes[3] = static_cast<uint8_t>(index >> 16);
  mac.bytes[4] = static_cast<uint8_t>(index >> 8);
  mac.bytes[5] = static_cast<uint8_t>(index);
  return mac;
}

std::optional<uint64_t> MacAddr::ToIndex() const {
  if (bytes[0] != 0x02 || bytes[1] != 0x00) {
    return std::nullopt;
  }
  return (static_cast<uint64_t>(bytes[2]) << 24) | (static_cast<uint64_t>(bytes[3]) << 16) |
         (static_cast<uint64_t>(bytes[4]) << 8) | bytes[5];
}

bool MacAddr::IsBroadcast() const { return *this == Broadcast(); }

std::string MacAddr::ToString() const {
  char buf[18];
  std::snprintf(buf, sizeof(buf), "%02x:%02x:%02x:%02x:%02x:%02x", bytes[0], bytes[1], bytes[2],
                bytes[3], bytes[4], bytes[5]);
  return buf;
}

std::string Ip4Addr::ToString() const {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%u.%u.%u.%u", value >> 24, (value >> 16) & 0xff,
                (value >> 8) & 0xff, value & 0xff);
  return buf;
}

bool Subnet::Contains(Ip4Addr addr) const {
  if (prefix_len <= 0) {
    return true;
  }
  uint32_t mask = prefix_len >= 32 ? 0xffffffffu : ~((1u << (32 - prefix_len)) - 1);
  return (addr.value & mask) == (base.value & mask);
}

std::string Subnet::ToString() const { return base.ToString() + "/" + std::to_string(prefix_len); }

bool ConnKey::operator<(const ConnKey& other) const {
  return std::tie(local_addr.value, local_port, remote_addr.value, remote_port) <
         std::tie(other.local_addr.value, other.local_port, other.remote_addr.value,
                  other.remote_port);
}

void ArpTable::Set(Ip4Addr ip, MacAddr mac) {
  auto it = std::lower_bound(entries_.begin(), entries_.end(), ip,
                             [](const Entry& e, Ip4Addr key) { return e.ip < key; });
  if (it != entries_.end() && it->ip == ip) {
    it->mac = mac;
    return;
  }
  entries_.insert(it, Entry{ip, mac});
}

std::optional<MacAddr> ArpTable::Find(Ip4Addr ip) const {
  auto it = std::lower_bound(entries_.begin(), entries_.end(), ip,
                             [](const Entry& e, Ip4Addr key) { return e.ip < key; });
  if (it == entries_.end() || it->ip != ip) {
    return std::nullopt;
  }
  return it->mac;
}

}  // namespace escort
