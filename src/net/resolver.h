// Name -> socket-address resolution for the socket transport.
//
// A deployment config file maps every endpoint name the system uses
// ("replica/0", "proxy/hmi", "rtu/0", ...) to an IPv4 host:port. One file
// is shared by all processes of a deployment; each process binds sockets
// for the names it attaches and sends to peers by looking their names up
// here — the socket equivalent of the simulated network's name registry.
//
// Format: one `name host:port` pair per line, '#' starts a comment,
// blank lines ignored. `localhost` is accepted as 127.0.0.1.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace ss::net {

struct SocketAddress {
  std::string host;  ///< IPv4 dotted quad (or "localhost")
  std::uint16_t port = 0;

  bool operator==(const SocketAddress&) const = default;
};

class Resolver {
 public:
  Resolver() = default;

  /// Parses config text; throws std::runtime_error on malformed lines.
  static Resolver parse(std::string_view text);

  /// Loads and parses a config file through read_whole_file (no C++
  /// stream). Throws std::runtime_error: "cannot open resolver config" when
  /// the file does not exist, the errno text when it cannot be read (a
  /// directory, say), or the parse error.
  static Resolver from_file(const std::string& path);

  void add(std::string name, SocketAddress address);

  const SocketAddress* lookup(const std::string& name) const;

  std::size_t size() const { return entries_.size(); }
  std::vector<std::string> names() const;

  /// Serializes back to config-file text (for generated deployments).
  std::string to_text() const;

 private:
  std::map<std::string, SocketAddress> entries_;
};

}  // namespace ss::net
