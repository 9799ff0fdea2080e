// Format v3 + the one zero-copy parser: section alignment invariants,
// retired v2 reads, non-seekable streams, loader hostility (truncation,
// bad magic, endianness, unknown versions, corrupt lengths, shaved
// padding, misaligned bases) on BOTH entry points — load(istream) and
// load_mapped(path) — a seeded bit-flip/truncation fuzz sweep pinning
// "both reject or both load the same ensemble, never crash", and a
// corpus-wide differential that pins mapped and stream loads to
// bit-identical served doubles and logical counters at several thread
// counts.  The registry/swap lifetime tests lean on ASan: any read of a
// retired image is a use-after-free.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <optional>
#include <sstream>
#include <streambuf>
#include <string>
#include <utility>
#include <vector>

#include "src/parallel/parallel.hpp"
#include "src/serve/frt_ensemble.hpp"
#include "src/serve/frt_index.hpp"
#include "src/serve/serialize.hpp"
#include "src/serve/server.hpp"
#include "src/serve/workloads.hpp"
#include "src/util/rng.hpp"
#include "tests/support/fixtures.hpp"

namespace pmte {
namespace {

serve::EnsembleOptions tiny_options(std::size_t trees) {
  serve::EnsembleOptions opts;
  opts.trees = trees;
  opts.pipeline = serve::EnsemblePipeline::direct;
  return opts;
}

/// Serialized bytes of an ensemble.
std::string save_bytes(const serve::FrtEnsemble& e) {
  std::stringstream buf(std::ios::in | std::ios::out | std::ios::binary);
  e.save(buf);
  return buf.str();
}

serve::FrtEnsemble load_stream(const std::string& bytes) {
  std::stringstream buf(std::ios::in | std::ios::out | std::ios::binary);
  buf << bytes;
  return serve::FrtEnsemble::load(buf);
}

/// Write bytes to a temp file (current dir; ctest runs each suite in its
/// own process, so the suite-unique names below never collide).
class TempFile {
 public:
  TempFile(std::string name, const std::string& bytes)
      : path_(std::move(name)) {
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  ~TempFile() { std::remove(path_.c_str()); }
  TempFile(const TempFile&) = delete;
  TempFile& operator=(const TempFile&) = delete;
  [[nodiscard]] const std::string& path() const noexcept { return path_; }

 private:
  std::string path_;
};

/// Both load paths must reject the image (the mapped path may reject at
/// mapping time already, e.g. for an empty file).
void expect_rejected_both(const std::string& bytes, const std::string& why) {
  EXPECT_THROW((void)load_stream(bytes), std::logic_error) << why;
  const TempFile f("test_serialize_hostile.tmp", bytes);
  EXPECT_THROW((void)serve::FrtEnsemble::load_mapped(f.path()),
               std::logic_error)
      << why;
}

/// The std::logic_error message `load` throws ("" if it does not throw).
template <typename Load>
std::string rejection_message(Load load) {
  try {
    (void)load();
  } catch (const std::logic_error& e) {
    return e.what();
  }
  return "";
}

/// A streambuf that cannot seek (tellg/seekg fail, as on a pipe) and
/// hands out its bytes a few at a time.
class NonSeekableBuf : public std::streambuf {
 public:
  explicit NonSeekableBuf(std::string bytes) : bytes_(std::move(bytes)) {}

 protected:
  int_type underflow() override {
    if (next_ >= bytes_.size()) return traits_type::eof();
    const std::size_t n = std::min<std::size_t>(7, bytes_.size() - next_);
    char* p = bytes_.data() + next_;
    setg(p, p, p + n);
    next_ += n;
    return traits_type::to_int_type(*p);
  }
  pos_type seekoff(off_type, std::ios::seekdir, std::ios::openmode) override {
    return pos_type(off_type(-1));
  }
  pos_type seekpos(pos_type, std::ios::openmode) override {
    return pos_type(off_type(-1));
  }

 private:
  std::string bytes_;
  std::size_t next_ = 0;
};

class ThreadGuard {
 public:
  ThreadGuard() : saved_(num_threads()) {}
  ~ThreadGuard() { set_num_threads(saved_); }

 private:
  int saved_;
};

constexpr std::size_t kPad64Base = 64;
std::size_t pad64(std::size_t pos) {
  return (kPad64Base - pos % kPad64Base) % kPad64Base;
}

TEST(Serialize, PrimitivesAndEmptyArraysRoundTrip) {
  // The writer/reader primitives through the one reader, including the
  // n == 0 edge: an empty array's data() may be null, and the writer may
  // not touch it (the padding is still emitted, keeping the layout
  // walkable).  A stream-read image feeds the copied counters.
  std::stringstream buf(std::ios::in | std::ios::out | std::ios::binary);
  serve::BinaryWriter w(buf);
  w.magic(serve::kIndexMagic);
  w.u32(7);
  w.u64(0xfeedfacecafebeefULL);
  w.f64(2.5);
  w.vec_u32(std::vector<std::uint32_t>{});
  w.vec_f64({1.5, -2.25});
  w.vec_u32({3, 2, 1});

  const auto image = serve::ArtefactImage::read(buf);
  EXPECT_FALSE(image.is_mapped());
  EXPECT_EQ(image.size(), w.pos());
  serve::reset_load_path_counters();
  serve::ImageReader r(image.bytes(), image.is_mapped());
  r.expect_magic(serve::kIndexMagic);
  EXPECT_EQ(r.u32(), 7u);
  EXPECT_EQ(r.u64(), 0xfeedfacecafebeefULL);
  EXPECT_EQ(r.f64(), 2.5);
  EXPECT_TRUE(r.view_u32().empty());
  const auto f = r.view_f64();
  EXPECT_EQ(std::vector<double>(f.begin(), f.end()),
            (std::vector<double>{1.5, -2.25}));
  const auto u = r.view_u32();
  EXPECT_EQ(std::vector<std::uint32_t>(u.begin(), u.end()),
            (std::vector<std::uint32_t>{3, 2, 1}));
  EXPECT_EQ(r.pos(), image.size()) << "the reader must consume the image";
  EXPECT_THROW((void)r.u32(), std::logic_error) << "read past the end";
  const auto counters = serve::load_path_counters();
  EXPECT_EQ(counters.sections_copied, 3u);
  EXPECT_EQ(counters.bulk_bytes_copied, 2u * 8u + 3u * 4u);
  EXPECT_EQ(counters.sections_mapped, 0u);
}

TEST(Serialize, V3PayloadsSitAt64ByteOffsetsWithZeroPadding) {
  const auto g = test::support_graph("gnm", 48, 51);
  const auto e = serve::FrtEnsemble::build(g, 51, tiny_options(2));
  const std::string bytes = save_bytes(e);

  // Walk the normative layout (docs/FORMAT.md): ensemble prelude, then
  // per index the scalar block and seven length-prefixed sections whose
  // payloads must each start at a 64-byte file offset, preceded by zero
  // padding only.
  // Prelude: magic block(16) + master seed(8) + graph fingerprint(8) +
  // tree count(8).
  std::size_t pos = 16 + 8 + 8 + 8;
  std::uint64_t trees = 0;
  std::memcpy(&trees, bytes.data() + 16 + 8 + 8, sizeof(trees));
  ASSERT_EQ(trees, 2u);
  const std::size_t elem[7] = {4, 8, 4, 4, 4, 8, 8};
  for (std::uint64_t t = 0; t < trees; ++t) {
    pos += 16 + 4 + 8;  // index magic block + levels + beta
    for (const std::size_t es : elem) {
      std::uint64_t len = 0;
      ASSERT_LE(pos + 8, bytes.size());
      std::memcpy(&len, bytes.data() + pos, sizeof(len));
      pos += 8;
      const std::size_t pad = pad64(pos);
      for (std::size_t i = 0; i < pad; ++i) {
        ASSERT_EQ(bytes[pos + i], '\0') << "padding byte not zero";
      }
      pos += pad;
      EXPECT_EQ(pos % 64, 0u) << "payload misaligned";
      pos += static_cast<std::size_t>(len) * es;
    }
  }
  EXPECT_EQ(pos, bytes.size()) << "layout walk must consume the artefact";
}

/// Rewrite a v3 ensemble artefact as its v2 twin: the same fields with
/// every section pad removed and every header's version word set to 2
/// (the layout the retired v2 writer produced).
std::string as_v2(const std::string& v3) {
  const auto header = [&](std::size_t at) {
    std::string h = v3.substr(at, 16);
    const std::uint32_t two = 2;
    std::memcpy(h.data() + 12, &two, sizeof(two));
    return h;
  };
  std::string v2 = header(0) + v3.substr(16, 24);
  std::uint64_t trees = 0;
  std::memcpy(&trees, v3.data() + 32, sizeof(trees));
  std::size_t pos = 40;
  const std::size_t elem[7] = {4, 8, 4, 4, 4, 8, 8};
  for (std::uint64_t t = 0; t < trees; ++t) {
    v2 += header(pos) + v3.substr(pos + 16, 12);  // + levels + beta
    pos += 28;
    for (const std::size_t es : elem) {
      std::uint64_t len = 0;
      std::memcpy(&len, v3.data() + pos, sizeof(len));
      v2 += v3.substr(pos, 8);
      pos += 8 + pad64(pos + 8);
      v2 += v3.substr(pos, static_cast<std::size_t>(len) * es);
      pos += static_cast<std::size_t>(len) * es;
    }
  }
  return v2;
}

TEST(Serialize, V2ImagesAreRejectedWithTheVersionError) {
  // v2 reads are retired (docs/FORMAT.md, version history): the unpadded
  // layout cannot be viewed in place, so both entry points refuse it
  // with the version error instead of misparsing it.
  const auto g = test::support_graph("geometric", 40, 53);
  const auto e = serve::FrtEnsemble::build(g, 53, tiny_options(3));
  const std::string v3 = save_bytes(e);
  const std::string v2 = as_v2(v3);
  EXPECT_LT(v2.size(), v3.size()) << "v2 must be the unpadded layout";

  const TempFile f("test_serialize_v2.tmp", v2);
  const std::string via_stream =
      rejection_message([&] { return load_stream(v2); });
  const std::string via_mapped = rejection_message(
      [&] { return serve::FrtEnsemble::load_mapped(f.path()); });
  EXPECT_NE(via_stream.find("unsupported format version"), std::string::npos)
      << via_stream;
  EXPECT_EQ(via_mapped, via_stream);
}

TEST(Serialize, NonSeekableStreamLoads) {
  // load(istream) needs no size probe: a stream that cannot seek and
  // delivers a few bytes per underflow loads the same ensemble, and a
  // truncated one is rejected the same way as from a seekable stream.
  const auto g = test::support_graph("gnm", 40, 54);
  const auto e = serve::FrtEnsemble::build(g, 54, tiny_options(2));
  const std::string good = save_bytes(e);

  NonSeekableBuf sb(good);
  std::istream in(&sb);
  ASSERT_EQ(in.tellg(), std::istream::pos_type(-1)) << "must not seek";
  const auto loaded = serve::FrtEnsemble::load(in);
  EXPECT_TRUE(loaded == e);
  EXPECT_FALSE(loaded.is_mapped());

  const std::string cut = good.substr(0, good.size() - 1);
  NonSeekableBuf cut_sb(cut);
  std::istream cut_in(&cut_sb);
  EXPECT_EQ(rejection_message([&] { return serve::FrtEnsemble::load(cut_in); }),
            rejection_message([&] { return load_stream(cut); }));
}

TEST(Serialize, HostileImagesAreRejectedOnBothPaths) {
  const auto g = test::support_graph("gnm", 40, 57);
  const auto e = serve::FrtEnsemble::build(g, 57, tiny_options(2));
  const std::string good = save_bytes(e);
  ASSERT_TRUE(load_stream(good) == e) << "baseline artefact must load";

  // Truncations at a spread of prefix lengths, including 0, mid-header,
  // mid-padding, mid-payload, and one byte short.
  for (const std::size_t keep :
       {std::size_t{0}, std::size_t{7}, std::size_t{20}, std::size_t{70},
        std::size_t{100}, good.size() / 3, good.size() / 2,
        good.size() - 9, good.size() - 1}) {
    expect_rejected_both(good.substr(0, keep),
                         "truncated to " + std::to_string(keep));
  }

  // Wrong artefact kind / corrupted magic byte.
  std::string bad = good;
  bad[0] = 'X';
  expect_rejected_both(bad, "corrupt magic");

  // Opposite-endianness probe (a byte-swapped u32 at offset 8).
  bad = good;
  std::swap(bad[8], bad[11]);
  std::swap(bad[9], bad[10]);
  expect_rejected_both(bad, "foreign endianness");

  // Versions other than kFormatVersion (v2: see
  // V2ImagesAreRejectedWithTheVersionError).
  for (const std::uint32_t v : {std::uint32_t{1}, std::uint32_t{4}}) {
    bad = good;
    std::memcpy(bad.data() + 12, &v, sizeof(v));
    expect_rejected_both(bad, "version " + std::to_string(v));
  }

  // Oversized length prefix on the first vec section (ensemble prelude 40
  // bytes + index magic block 16 + levels 4 + beta 8).
  bad = good;
  const std::uint64_t absurd = 1ULL << 33;
  std::memcpy(bad.data() + 40 + 16 + 4 + 8, &absurd, sizeof(absurd));
  expect_rejected_both(bad, "absurd length prefix");

  // Shaved padding: removing 8 zero bytes from the first padding run
  // desyncs every later offset; both readers must fail closed, not serve
  // shifted garbage.  The first prefix ends at 76, so padding runs to the
  // next 64-byte boundary (128).
  ASSERT_EQ(good[76], '\0') << "layout drifted; fix the padding offset";
  bad = good.substr(0, 76) + good.substr(84);
  expect_rejected_both(bad, "shaved section padding");
}

TEST(Serialize, RandomizedHostileImageSweep) {
  // Seeded fuzz over a valid v3 artefact: single-bit flips at random
  // offsets plus random truncations.  The contract on both entry points
  // is "reject (std::logic_error) or load" — never crash, never any other
  // exception type — and, since both parse the same image with the same
  // parser, the same outcome: both reject, or both load equal ensembles
  // (a flip in bulk payload may load — doubles carry no checksum).
  const auto g = test::support_graph("geometric", 48, 61);
  const auto e = serve::FrtEnsemble::build(g, 61, tiny_options(2));
  const std::string good = save_bytes(e);
  ASSERT_TRUE(load_stream(good) == e) << "baseline artefact must load";

  const auto try_stream =
      [](const std::string& bytes) -> std::optional<serve::FrtEnsemble> {
    try {
      return load_stream(bytes);
    } catch (const std::logic_error&) {
      return std::nullopt;
    }
  };
  const auto try_mapped =
      [](const std::string& path) -> std::optional<serve::FrtEnsemble> {
    try {
      return serve::FrtEnsemble::load_mapped(path);
    } catch (const std::logic_error&) {
      return std::nullopt;
    }
  };

  Rng rng(split_seed(0xF1207, 0));
  std::size_t rejected = 0;
  std::size_t loaded = 0;
  for (std::size_t iter = 0; iter < 200; ++iter) {
    std::string bad = good;
    std::string what;
    if (rng.flip(0.25)) {
      // Truncation anywhere, including empty and one-short.
      const auto keep = static_cast<std::size_t>(rng.below(good.size()));
      bad = good.substr(0, keep);
      what = "truncated to " + std::to_string(keep);
    } else {
      const auto at = static_cast<std::size_t>(rng.below(good.size()));
      const auto bit = static_cast<unsigned>(rng.below(8));
      bad[at] = static_cast<char>(static_cast<unsigned char>(bad[at]) ^
                                  (1u << bit));
      what = "bit " + std::to_string(bit) + " flipped at byte " +
             std::to_string(at);
    }
    const auto from_stream = try_stream(bad);
    const TempFile f("test_serialize_fuzz.tmp", bad);
    const auto from_mapped = try_mapped(f.path());
    ASSERT_EQ(from_stream.has_value(), from_mapped.has_value()) << what;
    if (from_stream.has_value()) {
      EXPECT_TRUE(*from_stream == *from_mapped) << what;
      ++loaded;
    } else {
      ++rejected;
    }
  }
  // The sweep must exercise both outcomes, or it degenerates into either
  // a pure-rejection or a pure-roundtrip test.
  EXPECT_GT(rejected, std::size_t{0});
  EXPECT_GT(loaded, std::size_t{0});
}

TEST(Serialize, ImageReaderRequiresAlignedBase) {
  const auto g = test::support_graph("gnm", 32, 59);
  const auto e = serve::FrtEnsemble::build(g, 59, tiny_options(2));
  const TempFile f("test_serialize_align.tmp", save_bytes(e));
  const auto file = serve::ArtefactImage::map(f.path());
  EXPECT_TRUE(file.is_mapped());
  // A misaligned base violates the constructor contract outright.
  EXPECT_THROW(serve::ImageReader r(file.bytes().subspan(1), true),
               std::logic_error);
  // An aligned interior base is structurally valid but is not an
  // artefact start — the magic check fires.
  ASSERT_GT(file.size(), std::size_t{128});
  serve::ImageReader interior(file.bytes().subspan(64), true);
  EXPECT_THROW(interior.expect_magic(serve::kEnsembleMagic),
               std::logic_error);
}

TEST(Serialize, MappedAndCopiedLoadsAgreeAcrossCorpusAndThreads) {
  // Over a 50-graph corpus, the mmap load must
  // (a) copy zero bulk payload bytes, (b) compare equal to the stream
  // load, and (c) serve bit-identical doubles with identical logical
  // counters at 1/2/8 threads.
  const auto corpus = test::serve_graph_corpus(50, 6101);
  ThreadGuard guard;
  std::uint64_t total_mapped_sections = 0;
  for (const auto& c : corpus) {
    const auto built =
        serve::FrtEnsemble::build(c.graph, c.seed, tiny_options(2));
    const TempFile f("test_serialize_diff.tmp", save_bytes(built));

    serve::reset_load_path_counters();
    const auto copied = load_stream(save_bytes(built));
    const auto copy_counters = serve::load_path_counters();
    EXPECT_GT(copy_counters.bulk_bytes_copied, 0u) << c.name;
    EXPECT_GT(copy_counters.sections_copied, 0u) << c.name;
    EXPECT_EQ(copy_counters.sections_mapped, 0u) << c.name;

    serve::reset_load_path_counters();
    const auto mapped = serve::FrtEnsemble::load_mapped(f.path());
    const auto map_counters = serve::load_path_counters();
    EXPECT_EQ(map_counters.bulk_bytes_copied, 0u) << c.name;
    EXPECT_EQ(map_counters.sections_copied, 0u) << c.name;
    EXPECT_EQ(map_counters.sections_mapped, copy_counters.sections_copied)
        << c.name;
    total_mapped_sections += map_counters.sections_mapped;

    EXPECT_TRUE(mapped.is_mapped()) << c.name;
    EXPECT_GT(mapped.mapped_bytes(), 0u) << c.name;
    EXPECT_TRUE(mapped.index(0).is_view()) << c.name;
    EXPECT_FALSE(copied.is_mapped()) << c.name;
    EXPECT_EQ(copied.mapped_bytes(), 0u) << c.name;
    EXPECT_TRUE(copied.index(0).is_view()) << c.name;
    EXPECT_TRUE(mapped == copied) << c.name;
    EXPECT_TRUE(mapped == built) << c.name;
    EXPECT_EQ(mapped.registry_fingerprint(), built.registry_fingerprint())
        << c.name;

    // Query differential: same pairs, both policies, several thread
    // counts — outputs bitwise equal, counters identical.
    const Vertex n = c.graph.num_vertices();
    Rng qrng(c.seed + 23);
    std::vector<std::pair<Vertex, Vertex>> pairs;
    for (int i = 0; i < 128; ++i) {
      pairs.emplace_back(static_cast<Vertex>(qrng.below(n)),
                         static_cast<Vertex>(qrng.below(n)));
    }
    for (const auto policy :
         {serve::AggregatePolicy::min, serve::AggregatePolicy::median}) {
      for (const int threads : {1, 2, 8}) {
        set_num_threads(threads);
        std::vector<Weight> out_copied, out_mapped;
        const auto s_copied = copied.query_batch(pairs, policy, out_copied);
        const auto s_mapped = mapped.query_batch(pairs, policy, out_mapped);
        ASSERT_EQ(out_copied.size(), out_mapped.size());
        EXPECT_EQ(std::memcmp(out_copied.data(), out_mapped.data(),
                              out_copied.size() * sizeof(Weight)),
                  0)
            << c.name << " threads=" << threads;
        EXPECT_EQ(s_copied.tree_lookups, s_mapped.tree_lookups) << c.name;
        EXPECT_EQ(s_copied.lca_probes, s_mapped.lca_probes) << c.name;
      }
    }
  }
  // 7 sections per index, 2 indices per ensemble, 50 ensembles.
  EXPECT_EQ(total_mapped_sections, 7u * 2u * 50u);
}

TEST(Serialize, MappedEnsembleSurvivesRegistrySwapAndFileUnlink) {
  // Lifetime contract under ASan: the mapping must stay valid while any
  // registry entry or tenant serves from it — across the backing file
  // being unlinked, a copy (which deep-copies into owned storage), an
  // epoch hot-swap, and retirement from the registry.
  const auto g = test::support_graph("gnm", 64, 61);
  const auto built = serve::FrtEnsemble::build(g, 61, tiny_options(2));
  const auto replacement =
      serve::FrtEnsemble::build(g, 62, tiny_options(2));

  serve::Server server;
  std::uint64_t fp_mapped = 0;
  {
    const TempFile f("test_serialize_life.tmp", save_bytes(built));
    auto mapped = serve::FrtEnsemble::load_mapped(f.path());
    // A deep copy owns its arrays — it must outlive the mapping on its
    // own (checked implicitly: we query it after retirement below).
    fp_mapped = server.load(std::move(mapped));
  }  // backing file unlinked here; the mapping keeps the inode alive

  const std::uint64_t fp_new = server.load(replacement);
  serve::TenantConfig cfg;
  cfg.ensemble = fp_mapped;
  cfg.cache_capacity = 64;
  const auto t0 = server.add_tenant(cfg);

  const auto specs = std::vector<serve::TenantStreamSpec>{
      {serve::WorkloadKind::uniform, {}}};
  auto stream = serve::make_multi_tenant_workload(g, specs, 61);
  std::vector<Weight> out_mapped_epoch, out_new_epoch;
  server.serve(stream, out_mapped_epoch);

  // Flip away: the mapped epoch drains and retires from the registry —
  // its shared_ptr (and the mapping) die here.  Serving afterwards must
  // not touch freed memory.
  server.stage_swap(t0, fp_new);
  server.serve(stream, out_new_epoch);
  EXPECT_FALSE(server.registry().contains(fp_mapped));
  EXPECT_EQ(server.epochs_retired(), 1u);

  // The post-swap epoch serves the replacement's values.
  std::vector<std::pair<Vertex, Vertex>> pairs;
  for (const auto& q : stream) pairs.emplace_back(q.u, q.v);
  std::vector<Weight> expect_new;
  serve::HotPairCache fresh(64);
  (void)replacement.query_batch(pairs, serve::AggregatePolicy::min,
                                expect_new, &fresh);
  ASSERT_EQ(out_new_epoch.size(), expect_new.size());
  EXPECT_EQ(std::memcmp(out_new_epoch.data(), expect_new.data(),
                        expect_new.size() * sizeof(Weight)),
            0);
}

TEST(Serialize, StreamLoadedEnsembleOutlivesStreamAndRetirement) {
  // Lifetime contract under ASan for the stream entry point: the loaded
  // ensemble views its own image, never the stream — it must keep serving
  // after the source stream is destroyed and after its registry entry
  // retires, for as long as any reference is held.
  const auto g = test::support_graph("gnm", 64, 63);
  const auto built = serve::FrtEnsemble::build(g, 63, tiny_options(2));
  const auto replacement =
      serve::FrtEnsemble::build(g, 64, tiny_options(2));

  serve::Server server;
  std::uint64_t fp_streamed = 0;
  {
    std::stringstream src(save_bytes(built),
                          std::ios::in | std::ios::binary);
    fp_streamed = server.load(serve::FrtEnsemble::load(src));
  }  // source stream destroyed here
  const auto held = server.registry().find(fp_streamed);
  ASSERT_NE(held, nullptr);
  EXPECT_FALSE(held->is_mapped());
  EXPECT_TRUE(held->index(0).is_view());

  const std::uint64_t fp_new = server.load(replacement);
  serve::TenantConfig cfg;
  cfg.ensemble = fp_streamed;
  const auto t0 = server.add_tenant(cfg);
  const auto specs = std::vector<serve::TenantStreamSpec>{
      {serve::WorkloadKind::uniform, {}}};
  auto stream = serve::make_multi_tenant_workload(g, specs, 63);
  std::vector<Weight> out_streamed_epoch, out_new_epoch;
  server.serve(stream, out_streamed_epoch);

  server.stage_swap(t0, fp_new);
  server.serve(stream, out_new_epoch);
  EXPECT_FALSE(server.registry().contains(fp_streamed));
  EXPECT_EQ(server.epochs_retired(), 1u);

  // The held reference still serves the retired epoch from its image.
  std::vector<std::pair<Vertex, Vertex>> pairs;
  for (const auto& q : stream) pairs.emplace_back(q.u, q.v);
  std::vector<Weight> out_held;
  (void)held->query_batch(pairs, serve::AggregatePolicy::min, out_held);
  ASSERT_EQ(out_held.size(), out_streamed_epoch.size());
  EXPECT_EQ(std::memcmp(out_held.data(), out_streamed_epoch.data(),
                        out_held.size() * sizeof(Weight)),
            0);
}

TEST(Serialize, CopyOfMappedEnsembleOwnsItsArrays) {
  // A copy deep-copies every index section, so it must not also pin the
  // source's mapping: it owns its arrays, reports no mapping, and keeps
  // serving (under ASan) after the original and its mapping are gone.
  const auto g = test::support_graph("gnm", 64, 65);
  const auto built = serve::FrtEnsemble::build(g, 65, tiny_options(2));
  std::vector<std::pair<Vertex, Vertex>> pairs;
  Rng qrng(66);
  for (int i = 0; i < 128; ++i) {
    pairs.emplace_back(static_cast<Vertex>(qrng.below(64)),
                       static_cast<Vertex>(qrng.below(64)));
  }
  std::vector<Weight> expect;
  (void)built.query_batch(pairs, serve::AggregatePolicy::min, expect);

  std::optional<serve::FrtEnsemble> copy;
  serve::FrtEnsemble assigned;
  {
    const TempFile f("test_serialize_copy.tmp", save_bytes(built));
    std::optional<serve::FrtEnsemble> original;
    original.emplace(serve::FrtEnsemble::load_mapped(f.path()));
    ASSERT_TRUE(original->is_mapped());
    copy.emplace(*original);
    assigned = *original;
    EXPECT_TRUE(*copy == *original);
    EXPECT_TRUE(assigned == *original);
    original.reset();
  }  // original dropped, file removed: only the copies remain
  for (const serve::FrtEnsemble* e : {&*copy, &assigned}) {
    EXPECT_FALSE(e->is_mapped());
    EXPECT_EQ(e->mapped_bytes(), 0u);
    EXPECT_FALSE(e->index(0).is_view());
    EXPECT_TRUE(*e == built);
    std::vector<Weight> out;
    (void)e->query_batch(pairs, serve::AggregatePolicy::min, out);
    ASSERT_EQ(out.size(), expect.size());
    EXPECT_EQ(std::memcmp(out.data(), expect.data(),
                          out.size() * sizeof(Weight)),
              0);
  }
}

}  // namespace
}  // namespace pmte
