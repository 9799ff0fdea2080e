#pragma once
// Versioned binary (de)serialisation for the serving layer.
//
// The format is deliberately dumb: an 8-byte magic string, a u32 format
// version, then length-prefixed flat arrays written as raw bytes.  Doubles
// round-trip bit-exactly (the differential suites pin save→load→query
// identity), and fixed-width integer types keep the layout unambiguous.
// Byte order is the native one; a u32 probe word after the magic rejects
// files from a machine of the opposite endianness instead of silently
// mis-reading them.  Bumping kFormatVersion invalidates old files — the
// reader refuses anything it does not understand rather than guessing.
//
// Every array payload is aligned to a 64-byte file offset (the length
// prefix is followed by zero padding), so one parser serves every load:
// an ArtefactImage holds the artefact's bytes at a 64-byte-aligned base —
// an mmap of a file, or an owned buffer read from a stream — and
// ImageReader returns spans that point straight into it, cache-line- (and
// therefore element-) aligned.  FrtIndex serves off the image without
// copying a byte; the image's owner (FrtEnsemble) keeps it alive.
//
// The normative byte-level specification (field order, alignment rules,
// rejection rules, version history) lives in docs/FORMAT.md; keep the two
// in sync when changing anything here or in FrtIndex/FrtEnsemble::save.

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <iosfwd>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "src/util/types.hpp"

namespace pmte::serve {

/// Format version shared by all serving-layer artefacts (index, ensemble),
/// and the only version the reader accepts.  History (docs/FORMAT.md):
///   1 — initial layout (PR 4).
///   2 — FrtIndex grew the per-level parent-edge-weight table
///       (edge_weight_by_level, appended after dist_by_lca_level) so the
///       apps' flat tree walks never consult FrtTree.
///   3 — every vec payload is preceded by zero padding to a 64-byte file
///       offset, so one zero-copy parser serves every load.  v1 and v2
///       files are refused, not migrated: builds are deterministic in
///       (graph, seed, options), so rebuild and re-save them.
inline constexpr std::uint32_t kFormatVersion = 3;

/// File-offset alignment of every vec payload.  One cache line,
/// and a multiple of every element size we serialise — mmap returns
/// page-aligned bases, so a 64-byte file offset is a 64-byte address.
inline constexpr std::size_t kSectionAlign = 64;

/// Endianness probe written after each magic; reads back differently when
/// the producing machine's byte order does not match.
inline constexpr std::uint32_t kEndianProbe = 0x01020304U;

inline constexpr char kIndexMagic[8] = {'P', 'M', 'T', 'E', 'I', 'D', 'X', '1'};
inline constexpr char kEnsembleMagic[8] = {'P', 'M', 'T', 'E', 'E', 'N', 'S', '1'};

/// Registry fingerprint of a serving artefact: 64-bit FNV-1a over the
/// words of its serialized prelude — the 16-byte header (magic bytes,
/// endian probe, format version) followed by the identity words that open
/// the payload (for an ensemble: master seed, graph fingerprint, tree
/// count).  Two artefacts share a fingerprint iff they agree on artefact
/// kind, format version, source graph, master seed, and tree count — the
/// exact tuple that makes a deterministic build reproducible — so the
/// fingerprint is a content identity, not a file hash: it is the same
/// whether the ensemble was just built or reloaded from disk.  The magic
/// bytes fold as an explicitly little-endian word, so the value is
/// host-independent (test_server pins it).  The many-tenant server keys
/// its EnsembleRegistry on this value (src/serve/server.hpp);
/// docs/FORMAT.md documents the derivation.  Callers pass the identity
/// words in serialized order.
[[nodiscard]] std::uint64_t registry_fingerprint(
    const char (&magic)[8], std::uint64_t master_seed,
    std::uint64_t graph_fingerprint, std::uint64_t tree_count) noexcept;

/// Deterministic accounting of the load path: how many vec-section payload
/// bytes were copied into process memory versus served straight from a
/// file mapping.  A section viewing a stream-read image counts as copied
/// (with its payload bytes — the stream read copied them); a section
/// viewing an mmap counts as mapped.  A mapped load must report zero
/// copied bytes — bench_serve emits these counters and the CI gate pins
/// them (BENCH_serve.json).  Process-wide and NOT synchronised: loads
/// are single-threaded, reset before measuring.
struct LoadPathCounters {
  std::uint64_t bulk_bytes_copied = 0;  ///< vec payload bytes copied
  std::uint64_t sections_copied = 0;    ///< vec sections read by copy
  std::uint64_t sections_mapped = 0;    ///< vec sections served zero-copy
};
[[nodiscard]] LoadPathCounters& load_path_counters() noexcept;
void reset_load_path_counters() noexcept;

/// Owned-or-viewed read-only array.  The serving indices store their
/// persisted arrays through this: a freshly built section owns a vector;
/// a loaded section views an ArtefactImage and owns nothing.  Copying
/// always deep-copies into owned storage (so copies never dangle when an
/// image goes away); moving preserves the view (std::vector's move keeps
/// the heap buffer alive).  Equality compares
/// contents, mirroring the vector semantics it replaces.
template <typename T>
class ArraySection {
 public:
  ArraySection() = default;
  // NOLINTNEXTLINE(google-explicit-constructor): vector is the natural source
  ArraySection(std::vector<T> own) noexcept
      : own_(std::move(own)), view_(own_) {}

  /// A section viewing externally owned memory (the caller keeps the
  /// backing image alive for the section's lifetime).
  [[nodiscard]] static ArraySection view_of(std::span<const T> view) noexcept {
    ArraySection s;
    s.view_ = view;
    return s;
  }

  ArraySection(const ArraySection& o) : own_(o.begin(), o.end()), view_(own_) {}
  ArraySection& operator=(const ArraySection& o) {
    if (this != &o) {
      own_.assign(o.begin(), o.end());
      view_ = own_;
    }
    return *this;
  }
  ArraySection(ArraySection&& o) noexcept
      : own_(std::move(o.own_)), view_(o.view_) {
    o.view_ = {};
    o.own_.clear();
  }
  ArraySection& operator=(ArraySection&& o) noexcept {
    if (this != &o) {
      own_ = std::move(o.own_);
      view_ = o.view_;
      o.view_ = {};
      o.own_.clear();
    }
    return *this;
  }
  ~ArraySection() = default;

  [[nodiscard]] std::span<const T> view() const noexcept { return view_; }
  // NOLINTNEXTLINE(google-explicit-constructor): sections read as spans
  operator std::span<const T>() const noexcept { return view_; }
  [[nodiscard]] const T* data() const noexcept { return view_.data(); }
  [[nodiscard]] std::size_t size() const noexcept { return view_.size(); }
  [[nodiscard]] bool empty() const noexcept { return view_.empty(); }
  [[nodiscard]] const T& operator[](std::size_t i) const { return view_[i]; }
  [[nodiscard]] const T& front() const { return view_.front(); }
  [[nodiscard]] const T* begin() const noexcept { return view_.data(); }
  [[nodiscard]] const T* end() const noexcept {
    return view_.data() + view_.size();
  }
  /// Whether the section views memory it does not own (a loaded image).
  [[nodiscard]] bool is_view() const noexcept {
    return view_.data() != nullptr && view_.data() != own_.data();
  }

  friend bool operator==(const ArraySection& a, const ArraySection& b) {
    if (a.size() != b.size()) return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
      if (!(a[i] == b[i])) return false;
    }
    return true;
  }

 private:
  std::vector<T> own_;
  std::span<const T> view_;
};

class BinaryWriter {
 public:
  /// The writer must start at the artefact's first byte: padding is
  /// computed from the bytes written so far, so artefacts meant for mmap
  /// must start at file offset 0.
  explicit BinaryWriter(std::ostream& os) : os_(os) {}

  void magic(const char (&m)[8]);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void f64(double v);
  void vec_u32(std::span<const std::uint32_t> v);
  void vec_f64(std::span<const double> v);
  void vec_u32(std::initializer_list<std::uint32_t> v) {
    vec_u32(std::span<const std::uint32_t>(v.begin(), v.size()));
  }
  void vec_f64(std::initializer_list<double> v) {
    vec_f64(std::span<const double>(v.begin(), v.size()));
  }

  /// Bytes written since construction (= offset within the artefact).
  [[nodiscard]] std::uint64_t pos() const noexcept { return pos_; }

 private:
  void bytes(const void* data, std::size_t n);
  /// Zero-fill up to the next kSectionAlign boundary.
  void pad_to_section();
  std::ostream& os_;
  std::uint64_t pos_ = 0;
};

/// The bytes of one artefact at a kSectionAlign-aligned base: either a
/// read-only file mapping (POSIX mmap) or an owned heap buffer read from a
/// stream.  The base address stays valid across moves — spans into the
/// image survive as long as some ArtefactImage owns it.
class ArtefactImage {
 public:
  ArtefactImage() = default;
  /// Map `path` read-only; throws (PMTE_CHECK) on open/map failure or an
  /// empty file.  Platforms without mmap read the file like a stream
  /// (is_mapped() is false then, and the load path counts as copied).
  [[nodiscard]] static ArtefactImage map(const std::string& path);
  /// Read `is` from its current position to its end into an owned
  /// aligned buffer.  Needs no size probe, so non-seekable streams (pipes)
  /// load the same way; the stream is left at EOF.
  [[nodiscard]] static ArtefactImage read(std::istream& is);
  ~ArtefactImage();
  ArtefactImage(const ArtefactImage&) = delete;
  ArtefactImage& operator=(const ArtefactImage&) = delete;
  ArtefactImage(ArtefactImage&& o) noexcept;
  ArtefactImage& operator=(ArtefactImage&& o) noexcept;

  [[nodiscard]] const std::byte* data() const noexcept {
    return static_cast<const std::byte*>(addr_);
  }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] std::span<const std::byte> bytes() const noexcept {
    return {data(), size_};
  }
  /// Whether the bytes are a file mapping (as opposed to an owned copy).
  [[nodiscard]] bool is_mapped() const noexcept {
    return addr_ != nullptr && owned_.empty();
  }

 private:
  void release() noexcept;
  void* addr_ = nullptr;
  std::size_t size_ = 0;
  std::vector<std::byte> owned_;  ///< stream-read bytes (+ alignment slack)
};

/// The one artefact parser.  Scalar reads memcpy a few bytes;
/// view_u32/view_f64 return spans pointing straight into the image and
/// copy nothing.  Accepts exactly kFormatVersion — only its 64-byte
/// payload alignment lets a span view every section — and requires a
/// 64-byte-aligned base (ArtefactImage always provides one).  Every read
/// is bounds-checked against the image, so a corrupt length prefix fails
/// like a truncation, before anything is allocated for it.  `mapped`
/// picks the load-path counter the sections feed (see LoadPathCounters).
/// The caller keeps the image alive for as long as the views are in use.
class ImageReader {
 public:
  ImageReader(std::span<const std::byte> image, bool mapped);

  void expect_magic(const char (&m)[8]);
  [[nodiscard]] std::uint32_t u32();
  [[nodiscard]] std::uint64_t u64();
  [[nodiscard]] double f64();
  [[nodiscard]] std::span<const std::uint32_t> view_u32();
  [[nodiscard]] std::span<const double> view_f64();

  [[nodiscard]] std::uint64_t pos() const noexcept { return pos_; }

 private:
  void bytes(void* data, std::size_t n);
  /// Skip the padding before a payload and bounds-check the payload;
  /// returns its first byte.
  const std::byte* section(std::uint64_t n, std::size_t elem_size);
  const std::byte* base_ = nullptr;
  std::size_t size_ = 0;
  std::size_t pos_ = 0;
  bool mapped_ = false;
};

}  // namespace pmte::serve
