#include "util/fsio.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <system_error>

namespace ct::util {

namespace fs = std::filesystem;

namespace {

bool write_fully(int fd, std::string_view bytes) noexcept {
  std::size_t written = 0;
  while (written < bytes.size()) {
    const ::ssize_t n =
        ::write(fd, bytes.data() + written, bytes.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    written += static_cast<std::size_t>(n);
  }
  return true;
}

/// Writes `bytes` and fsyncs them. With a hook, the first max(1, n/2)
/// bytes go out and are synced on their own before the hook's kTorn call.
bool write_synced(int fd, std::string_view bytes,
                  const CrashHook& hook) noexcept {
  std::size_t head = 0;
  if (hook) {
    head = std::min(bytes.size(), std::max<std::size_t>(1, bytes.size() / 2));
    if (!write_fully(fd, bytes.substr(0, head)) || ::fsync(fd) != 0) {
      return false;
    }
    hook(WriteStage::kTorn);
  }
  return write_fully(fd, bytes.substr(head)) && ::fsync(fd) == 0;
}

}  // namespace

bool fsync_parent_dir(const std::string& path) noexcept {
  fs::path parent = fs::path(path).parent_path();
  if (parent.empty()) parent = ".";
  const int fd = ::open(parent.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return false;
  const bool ok = ::fsync(fd) == 0;
  ::close(fd);
  return ok;
}

bool atomic_write_file(const std::string& path, std::string_view contents,
                       const CrashHook& hook) noexcept {
  if (hook) hook(WriteStage::kBefore);
  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return false;
  const bool written = write_synced(fd, contents, hook);
  ::close(fd);
  if (!written || ::rename(tmp.c_str(), path.c_str()) != 0) {
    ::unlink(tmp.c_str());
    return false;
  }
  const bool synced = fsync_parent_dir(path);
  if (hook) hook(WriteStage::kAfter);
  return synced;
}

bool durable_append(int fd, std::string_view bytes,
                    const CrashHook& hook) noexcept {
  if (hook) hook(WriteStage::kBefore);
  if (!write_synced(fd, bytes, hook)) return false;
  if (hook) hook(WriteStage::kAfter);
  return true;
}

std::size_t remove_tmp_files(const std::string& dir,
                             std::string_view prefix) noexcept {
  std::size_t removed = 0;
  std::error_code ec;
  for (fs::directory_iterator entry(dir, ec);
       !ec && entry != fs::directory_iterator(); entry.increment(ec)) {
    const fs::path& path = entry->path();
    std::error_code remove_ec;
    if (path.extension() == ".tmp" &&
        path.filename().string().rfind(prefix, 0) == 0 &&
        fs::remove(path, remove_ec)) {
      ++removed;
    }
  }
  return removed;
}

std::optional<std::string> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::ostringstream out;
  out << in.rdbuf();
  return std::move(out).str();
}

}  // namespace ct::util
