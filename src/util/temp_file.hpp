#pragma once
// Per-process unique scratch files for artefacts that are written, mapped
// and unlinked within one run.  A fixed name is shared by every concurrent
// run in the same directory: the second writer truncates the file under
// the first one's mapping, and the first reader dies with SIGBUS.

#include <string>

namespace pmte {

/// Create an empty file `<system temp dir>/<stem>.XXXXXX` whose suffix is
/// unique among concurrent processes (mkstemp) and return its path.  The
/// caller writes the file and removes it once done; a mapped file may be
/// removed right after mapping — POSIX keeps the inode alive until the
/// mapping goes away.  Throws std::runtime_error when no file can be made.
[[nodiscard]] std::string make_unique_temp_file(const std::string& stem);

}  // namespace pmte
