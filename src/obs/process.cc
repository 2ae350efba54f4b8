#include "obs/process.h"

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <initializer_list>
#include <optional>
#include <string_view>
#include <utility>

#include "common/file.h"

namespace ss::obs {
namespace {

/// The number after `key` (its colon included) on the line of `text` that
/// starts with it, as procfs prints a size in kB; nullopt when no line does.
std::optional<double> kb_field(std::string_view text, std::string_view key) {
  std::size_t at = 0;
  while (text.compare(at, key.size(), key) != 0) {
    at = text.find('\n', at);
    if (at == std::string_view::npos) return std::nullopt;
    ++at;
  }
  std::string_view rest = text.substr(at + key.size());
  rest.remove_prefix(std::min(rest.find_first_not_of(" \t"), rest.size()));
  std::uint64_t kb = 0;
  if (std::from_chars(rest.data(), rest.data() + rest.size(), kb).ec !=
      std::errc()) {
    return std::nullopt;
  }
  return static_cast<double>(kb);
}

/// Emits each (name, key) field of the procfs file at `path` that it has.
void emit_fields(
    const char* path,
    std::initializer_list<std::pair<const char*, std::string_view>> fields,
    const Registry::Emit& emit) {
  const std::optional<Bytes> file = read_whole_file(path);
  if (!file) return;
  const std::string_view text(reinterpret_cast<const char*>(file->data()),
                              file->size());
  for (const auto& [name, key] : fields) {
    if (const std::optional<double> kb = kb_field(text, key)) emit(name, *kb);
  }
}

}  // namespace

SourceHandle add_process_source() {
  return Registry::instance().add_source(
      "process", [](const Registry::Emit& emit) {
        emit_fields("/proc/self/status",
                    {{"vm_hwm_kb", "VmHWM:"},
                     {"rss_anon_kb", "RssAnon:"},
                     {"rss_file_kb", "RssFile:"}},
                    emit);
        emit_fields("/proc/self/smaps_rollup",
                    {{"pss_kb", "Pss:"}, {"private_dirty_kb", "Private_Dirty:"}},
                    emit);
      });
}

}  // namespace ss::obs
