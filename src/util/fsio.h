// Crash-consistency filesystem primitives shared by every durable layer
// (result cache, sweep checkpoints). Two durable writes:
//
//  * publish (atomic_write_file): write a .tmp sibling, fsync the FILE,
//    rename over the final name, fsync the DIRECTORY — a rename alone is
//    not durable (the directory entry can vanish on power loss even though
//    the data blocks survived);
//  * append (durable_append): write every byte to an open fd, then fsync.
//
// Both take an optional crash hook, called before the write, at the torn
// point and after it. With a hook, max(1, n/2) bytes are written and
// fsync'd before the kTorn call, so a hook that ends the process there
// leaves exactly the torn prefix a crash mid-write would.
//
// All functions are best-effort and never throw: durability failures are
// soft at this layer; the caller decides whether losing persistence is
// fatal (a checkpoint) or merely a cold start (a cache).
#pragma once

#include <cstddef>
#include <functional>
#include <optional>
#include <string>
#include <string_view>

namespace ct::util {

/// The instants of a durable write at which a crash hook runs.
enum class WriteStage { kBefore, kTorn, kAfter };

/// Called at each stage of one durable write; it may end the process.
using CrashHook = std::function<void(WriteStage)>;

/// fsync(2) the DIRECTORY containing `path`, making a completed rename of
/// `path` durable. False on open/sync failure.
bool fsync_parent_dir(const std::string& path) noexcept;

/// Atomic durable publish: write `contents` to "<path>.tmp", fsync the
/// file, rename onto `path`, fsync the parent directory. A reader (or a
/// post-crash reopen) sees either the complete old file or the complete
/// new one — never a prefix. False on any failure (the .tmp is removed).
bool atomic_write_file(const std::string& path, std::string_view contents,
                       const CrashHook& hook = {}) noexcept;

/// Durable append: write all of `bytes` to the open fd `fd` (opened with
/// O_APPEND), then fsync it. False on any write or sync failure.
bool durable_append(int fd, std::string_view bytes,
                    const CrashHook& hook = {}) noexcept;

/// Removes every "*.tmp" file directly inside `dir` whose name starts with
/// `prefix`: the leftovers of publishes a crash interrupted (they never
/// renamed, so they are garbage). Returns how many were removed.
std::size_t remove_tmp_files(const std::string& dir,
                             std::string_view prefix = {}) noexcept;

/// The whole file at `path`; nullopt when it cannot be opened.
std::optional<std::string> read_file(const std::string& path);

}  // namespace ct::util
