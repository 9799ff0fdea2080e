#include "src/serve/serialize.hpp"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <istream>
#include <ostream>

#include "src/util/assertions.hpp"
#include "src/util/rng.hpp"

#if defined(__unix__) || defined(__APPLE__)
#define PMTE_HAVE_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#else
#define PMTE_HAVE_MMAP 0
#endif

namespace pmte::serve {

namespace {

/// Padding bytes needed to advance `pos` to the next section boundary.
[[nodiscard]] constexpr std::size_t section_pad(std::uint64_t pos) noexcept {
  return static_cast<std::size_t>((kSectionAlign - pos % kSectionAlign) %
                                  kSectionAlign);
}

}  // namespace

std::uint64_t registry_fingerprint(const char (&magic)[8],
                                   std::uint64_t master_seed,
                                   std::uint64_t graph_fingerprint,
                                   std::uint64_t tree_count) noexcept {
  // Fold the serialized prelude word by word: the 8 magic bytes packed
  // explicitly little-endian (byte i into bits 8i — NOT a native-order
  // memcpy, which would make the fingerprint differ between hosts of
  // opposite endianness), then the header/identity words in the order
  // BinaryWriter emits them.
  std::uint64_t magic_word = 0;
  for (std::size_t i = 0; i < sizeof(magic); ++i) {
    magic_word |= static_cast<std::uint64_t>(
                      static_cast<unsigned char>(magic[i]))
                  << (8 * i);
  }
  std::uint64_t hash = fnv1a_fold(kFnv1aInit, magic_word);
  hash = fnv1a_fold(hash, kEndianProbe);
  hash = fnv1a_fold(hash, kFormatVersion);
  hash = fnv1a_fold(hash, master_seed);
  hash = fnv1a_fold(hash, graph_fingerprint);
  return fnv1a_fold(hash, tree_count);
}

LoadPathCounters& load_path_counters() noexcept {
  static LoadPathCounters counters;
  return counters;
}

void reset_load_path_counters() noexcept {
  load_path_counters() = LoadPathCounters{};
}

// --- BinaryWriter ----------------------------------------------------------

void BinaryWriter::bytes(const void* data, std::size_t n) {
  if (n == 0) return;  // data may be null for an empty array
  os_.write(static_cast<const char*>(data), static_cast<std::streamsize>(n));
  PMTE_CHECK(os_.good(), "serve serialisation: write failed");
  pos_ += n;
}

void BinaryWriter::pad_to_section() {
  static constexpr char kZeros[kSectionAlign] = {};
  bytes(kZeros, section_pad(pos_));
}

void BinaryWriter::magic(const char (&m)[8]) {
  bytes(m, sizeof(m));
  u32(kEndianProbe);
  u32(kFormatVersion);
}

void BinaryWriter::u32(std::uint32_t v) { bytes(&v, sizeof(v)); }
void BinaryWriter::u64(std::uint64_t v) { bytes(&v, sizeof(v)); }
void BinaryWriter::f64(double v) { bytes(&v, sizeof(v)); }

void BinaryWriter::vec_u32(std::span<const std::uint32_t> v) {
  u64(v.size());
  pad_to_section();
  bytes(v.data(), v.size() * sizeof(std::uint32_t));
}

void BinaryWriter::vec_f64(std::span<const double> v) {
  u64(v.size());
  pad_to_section();
  bytes(v.data(), v.size() * sizeof(double));
}

// --- ArtefactImage ---------------------------------------------------------

ArtefactImage ArtefactImage::read(std::istream& is) {
  // Slurp to the end in doubling chunks: no tellg/seekg size probe, so a
  // pipe reads exactly like a file.
  std::vector<char> raw;
  std::size_t size = 0;
  while (is.good()) {
    raw.resize(std::max<std::size_t>(2 * size, std::size_t{1} << 16));
    is.read(raw.data() + size, static_cast<std::streamsize>(raw.size() - size));
    size += static_cast<std::size_t>(is.gcount());
  }
  PMTE_CHECK(!is.bad(), "serve serialisation: stream read failed");
  // Copy into a buffer whose base is aligned to kSectionAlign, so the
  // parser's alignment contract (and the spans it hands out) hold exactly
  // as on a page-aligned mapping.
  ArtefactImage img;
  img.owned_.resize(size + kSectionAlign);
  // pmte-lint: allow(pointer-hash-order: alignment adjustment of a fresh buffer, no ordering/hash on the value)
  const auto raw_base = reinterpret_cast<std::uintptr_t>(img.owned_.data());
  std::byte* base = img.owned_.data() + section_pad(raw_base);
  if (size > 0) std::memcpy(base, raw.data(), size);
  img.addr_ = base;
  img.size_ = size;
  return img;
}

ArtefactImage ArtefactImage::map(const std::string& path) {
#if PMTE_HAVE_MMAP
  const int fd = ::open(path.c_str(), O_RDONLY);
  PMTE_CHECK(fd >= 0, "ArtefactImage: cannot open " + path);
  struct stat st{};
  if (::fstat(fd, &st) != 0 || st.st_size <= 0) {
    ::close(fd);
    PMTE_CHECK(false, "ArtefactImage: cannot stat (or empty file) " + path);
  }
  const auto size = static_cast<std::size_t>(st.st_size);
  void* addr = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);  // the mapping keeps the inode alive
  PMTE_CHECK(addr != MAP_FAILED, "ArtefactImage: mmap failed for " + path);
  ArtefactImage img;
  img.addr_ = addr;
  img.size_ = size;
  return img;
#else
  // No mmap on this platform: the file is read like any other stream.
  std::ifstream in(path, std::ios::binary);
  PMTE_CHECK(in.good(), "ArtefactImage: cannot open " + path);
  return read(in);
#endif
}

void ArtefactImage::release() noexcept {
#if PMTE_HAVE_MMAP
  if (is_mapped()) ::munmap(addr_, size_);
#endif
  addr_ = nullptr;
  size_ = 0;
  owned_.clear();
}

ArtefactImage::~ArtefactImage() { release(); }

ArtefactImage::ArtefactImage(ArtefactImage&& o) noexcept
    : addr_(o.addr_), size_(o.size_), owned_(std::move(o.owned_)) {
  o.addr_ = nullptr;
  o.size_ = 0;
  o.owned_.clear();
}

ArtefactImage& ArtefactImage::operator=(ArtefactImage&& o) noexcept {
  if (this != &o) {
    release();
    addr_ = o.addr_;
    size_ = o.size_;
    owned_ = std::move(o.owned_);
    o.addr_ = nullptr;
    o.size_ = 0;
    o.owned_.clear();
  }
  return *this;
}

// --- ImageReader -----------------------------------------------------------

ImageReader::ImageReader(std::span<const std::byte> image, bool mapped)
    : base_(image.data()), size_(image.size()), mapped_(mapped) {
  PMTE_CHECK(base_ != nullptr && size_ > 0,
             "serve serialisation: empty image");
  // The zero-copy views below derive their element alignment from the
  // base being section-aligned; ArtefactImage always satisfies this, a
  // sub-span or hand-built buffer might not.
  // pmte-lint: allow(pointer-hash-order: alignment probe of a fixed base, no ordering/hash on the value)
  PMTE_CHECK(reinterpret_cast<std::uintptr_t>(base_) % kSectionAlign == 0,
             "serve serialisation: image base is not 64-byte aligned");
}

void ImageReader::bytes(void* data, std::size_t n) {
  PMTE_CHECK(n <= size_ - pos_, "serve serialisation: truncated input");
  std::memcpy(data, base_ + pos_, n);
  pos_ += n;
}

void ImageReader::expect_magic(const char (&m)[8]) {
  char got[8];
  bytes(got, sizeof(got));
  PMTE_CHECK(std::memcmp(got, m, sizeof(got)) == 0,
             "serve serialisation: bad magic (not a serving-layer file, or "
             "the wrong artefact kind)");
  PMTE_CHECK(u32() == kEndianProbe,
             "serve serialisation: endianness mismatch");
  PMTE_CHECK(u32() == kFormatVersion,
             "serve serialisation: unsupported format version (v1/v2 "
             "artefacts are refused; rebuild and re-save them)");
}

std::uint32_t ImageReader::u32() {
  std::uint32_t v;
  bytes(&v, sizeof(v));
  return v;
}

std::uint64_t ImageReader::u64() {
  std::uint64_t v;
  bytes(&v, sizeof(v));
  return v;
}

double ImageReader::f64() {
  double v;
  bytes(&v, sizeof(v));
  return v;
}

const std::byte* ImageReader::section(std::uint64_t n, std::size_t elem_size) {
  const std::size_t pad = section_pad(pos_);
  PMTE_CHECK(pad <= size_ - pos_, "serve serialisation: truncated input");
  pos_ += pad;
  PMTE_CHECK(n <= (size_ - pos_) / elem_size,
             "serve serialisation: length prefix exceeds remaining input");
  const std::byte* p = base_ + pos_;
  const std::uint64_t payload = n * elem_size;
  pos_ += static_cast<std::size_t>(payload);
  auto& counters = load_path_counters();
  if (mapped_) {
    ++counters.sections_mapped;
  } else {
    ++counters.sections_copied;
    counters.bulk_bytes_copied += payload;
  }
  return p;
}

std::span<const std::uint32_t> ImageReader::view_u32() {
  const std::uint64_t n = u64();
  return {reinterpret_cast<const std::uint32_t*>(
              section(n, sizeof(std::uint32_t))),
          static_cast<std::size_t>(n)};
}

std::span<const double> ImageReader::view_f64() {
  const std::uint64_t n = u64();
  return {reinterpret_cast<const double*>(section(n, sizeof(double))),
          static_cast<std::size_t>(n)};
}

}  // namespace pmte::serve
