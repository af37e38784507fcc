#include "fl/checkpoint/codec.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>

namespace fedsched::fl::checkpoint {

namespace {
constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;
}  // namespace

std::uint64_t fnv1a64(std::string_view bytes) noexcept {
  std::uint64_t h = kFnvOffset;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= kFnvPrime;
  }
  return h;
}

std::string seal(std::uint32_t magic, std::uint32_t version,
                 std::string_view payload) {
  const std::uint64_t size = payload.size();
  const std::uint64_t checksum = fnv1a64(payload);
  std::string out;
  out.reserve(kSealedHeaderSize + payload.size());
  out.append(reinterpret_cast<const char*>(&magic), sizeof(magic));
  out.append(reinterpret_cast<const char*>(&version), sizeof(version));
  out.append(reinterpret_cast<const char*>(&size), sizeof(size));
  out.append(reinterpret_cast<const char*>(&checksum), sizeof(checksum));
  out.append(payload.data(), payload.size());
  return out;
}

std::string_view open(std::uint32_t magic, std::uint32_t version,
                      std::string_view sealed, const std::string& context,
                      const std::string& artifact) {
  if (sealed.size() < kSealedHeaderSize) {
    throw std::runtime_error(context + " is not a " + artifact);
  }
  std::uint32_t got_magic = 0, got_version = 0;
  std::uint64_t size = 0, checksum = 0;
  std::memcpy(&got_magic, sealed.data(), sizeof(got_magic));
  std::memcpy(&got_version, sealed.data() + 4, sizeof(got_version));
  std::memcpy(&size, sealed.data() + 8, sizeof(size));
  std::memcpy(&checksum, sealed.data() + 16, sizeof(checksum));
  if (got_magic != magic) {
    throw std::runtime_error(context + " is not a " + artifact);
  }
  if (got_version != version) {
    throw std::runtime_error(context + " has format version " +
                             std::to_string(got_version) +
                             "; this build reads version " +
                             std::to_string(version));
  }
  const std::string_view body = sealed.substr(kSealedHeaderSize);
  if (body.size() != size) {
    throw std::runtime_error(context + ": truncated " + artifact);
  }
  if (fnv1a64(body) != checksum) {
    throw std::runtime_error(context + ": checksum mismatch");
  }
  return body;
}

std::string read_whole_file(const std::string& path, const std::string& context) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  struct stat st {};
  if (fd < 0 || ::fstat(fd, &st) != 0 || !S_ISREG(st.st_mode)) {
    if (fd >= 0) ::close(fd);
    throw std::runtime_error(context + ": cannot open " + path);
  }
  std::string bytes(static_cast<std::size_t>(st.st_size), '\0');
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n = ::read(fd, bytes.data() + off, bytes.size() - off);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    off += static_cast<std::size_t>(n);
  }
  ::close(fd);
  if (off != bytes.size()) {
    throw std::runtime_error(context + ": read failed for " + path);
  }
  return bytes;
}

}  // namespace fedsched::fl::checkpoint
