#include "net/resolver.h"

#include <stdexcept>

#include "common/file.h"

namespace ss::net {

namespace {

std::string_view trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) {
    s.remove_prefix(1);
  }
  while (!s.empty() &&
         (s.back() == ' ' || s.back() == '\t' || s.back() == '\r')) {
    s.remove_suffix(1);
  }
  return s;
}

}  // namespace

Resolver Resolver::parse(std::string_view text) {
  Resolver r;
  std::size_t lineno = 0;
  while (!text.empty()) {
    std::size_t eol = text.find('\n');
    std::string_view line =
        eol == std::string_view::npos ? text : text.substr(0, eol);
    text.remove_prefix(eol == std::string_view::npos ? text.size() : eol + 1);
    ++lineno;

    std::size_t hash = line.find('#');
    if (hash != std::string_view::npos) line = line.substr(0, hash);
    line = trim(line);
    if (line.empty()) continue;

    std::size_t sep = line.find_last_of(" \t");
    if (sep == std::string_view::npos) {
      throw std::runtime_error("resolver line " + std::to_string(lineno) +
                               ": expected `name host:port`");
    }
    std::string name(trim(line.substr(0, sep)));
    std::string_view addr = trim(line.substr(sep + 1));
    std::size_t colon = addr.rfind(':');
    if (name.empty() || colon == std::string_view::npos || colon == 0 ||
        colon + 1 >= addr.size()) {
      throw std::runtime_error("resolver line " + std::to_string(lineno) +
                               ": expected `name host:port`");
    }
    std::string host(addr.substr(0, colon));
    unsigned long port = 0;
    try {
      std::size_t used = 0;
      port = std::stoul(std::string(addr.substr(colon + 1)), &used);
      if (used != addr.size() - colon - 1) throw std::invalid_argument("port");
    } catch (const std::exception&) {
      throw std::runtime_error("resolver line " + std::to_string(lineno) +
                               ": bad port");
    }
    if (port == 0 || port > 65535) {
      throw std::runtime_error("resolver line " + std::to_string(lineno) +
                               ": port out of range");
    }
    r.add(std::move(name),
          SocketAddress{std::move(host), static_cast<std::uint16_t>(port)});
  }
  return r;
}

Resolver Resolver::from_file(const std::string& path) {
  const std::optional<Bytes> text = read_whole_file(path);
  if (!text) throw std::runtime_error("cannot open resolver config: " + path);
  return parse(string_of(*text));
}

void Resolver::add(std::string name, SocketAddress address) {
  entries_[std::move(name)] = std::move(address);
}

const SocketAddress* Resolver::lookup(const std::string& name) const {
  auto it = entries_.find(name);
  return it == entries_.end() ? nullptr : &it->second;
}

std::vector<std::string> Resolver::names() const {
  std::vector<std::string> out;
  out.reserve(entries_.size());
  for (const auto& [name, addr] : entries_) out.push_back(name);
  return out;
}

std::string Resolver::to_text() const {
  std::string out;
  for (const auto& [name, addr] : entries_) {
    out += name;
    out += ' ';
    out += addr.host;
    out += ':';
    out += std::to_string(addr.port);
    out += '\n';
  }
  return out;
}

}  // namespace ss::net
