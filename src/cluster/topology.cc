#include "cluster/topology.h"

#include <charconv>
#include <cstdlib>

namespace qf::cluster {

bool SplitHostPort(const std::string& addr, std::string* host,
                   uint16_t* port) {
  const size_t colon = addr.rfind(':');
  if (colon == std::string::npos || colon == 0) return false;
  const std::string port_str = addr.substr(colon + 1);
  if (port_str.empty()) return false;
  char* end = nullptr;
  const unsigned long value = std::strtoul(port_str.c_str(), &end, 10);
  if (end == nullptr || *end != '\0' || value == 0 || value > 65535) {
    return false;
  }
  *host = addr.substr(0, colon);
  *port = static_cast<uint16_t>(value);
  return true;
}

namespace {

/// The whole of `text` as a decimal uint32_t, or false.
bool ParseU32(std::string_view text, uint32_t* out) {
  const char* end = text.data() + text.size();
  uint32_t value = 0;
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end) return false;
  *out = value;
  return true;
}

}  // namespace

bool ParseMigrateSpec(std::string_view spec, uint32_t* slot,
                      uint32_t* backend) {
  const size_t colon = spec.find(':');
  if (colon == std::string_view::npos) return false;
  uint32_t s = 0;
  uint32_t b = 0;
  if (!ParseU32(spec.substr(0, colon), &s) ||
      !ParseU32(spec.substr(colon + 1), &b)) {
    return false;
  }
  *slot = s;
  *backend = b;
  return true;
}

net::WireTopology Topology::ToWire(
    const std::vector<net::BackendState>& states) const {
  net::WireTopology wire;
  wire.epoch = epoch_;
  wire.backends.reserve(addrs_.size());
  for (size_t b = 0; b < addrs_.size(); ++b) {
    net::WireBackend backend;
    backend.addr = addrs_[b];
    backend.state =
        b < states.size() ? states[b] : net::BackendState::kDisconnected;
    wire.backends.push_back(std::move(backend));
  }
  wire.owner = owner_;
  return wire;
}

}  // namespace qf::cluster
