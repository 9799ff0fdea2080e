#include "src/util/temp_file.hpp"

#include <stdlib.h>  // mkstemp (POSIX)
#include <unistd.h>  // close

#include <filesystem>
#include <stdexcept>
#include <vector>

namespace pmte {

std::string make_unique_temp_file(const std::string& stem) {
  const std::string pattern =
      (std::filesystem::temp_directory_path() / (stem + ".XXXXXX")).string();
  std::vector<char> path(pattern.begin(), pattern.end());
  path.push_back('\0');
  const int fd = ::mkstemp(path.data());
  if (fd < 0) {
    throw std::runtime_error("cannot create a temp file like " + pattern);
  }
  ::close(fd);
  return std::string(path.data());
}

}  // namespace pmte
