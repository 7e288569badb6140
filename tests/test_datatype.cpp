#include <gtest/gtest.h>

#include <array>
#include <span>
#include <cstring>
#include <numeric>
#include <vector>

#include "mpi/datatype.hpp"
#include "sim/rng.hpp"

namespace {

using mpi::Datatype;
using mpi::Segment;

std::uint64_t total_len(const std::vector<Segment>& segs) {
  std::uint64_t t = 0;
  for (const auto& s : segs) t += s.len;
  return t;
}

/// Reference: expand a segment list into a byte-offset set for exact
/// comparisons on small types.
std::vector<std::int64_t> offsets_of(const std::vector<Segment>& segs) {
  std::vector<std::int64_t> out;
  for (const auto& s : segs) {
    for (std::uint64_t i = 0; i < s.len; ++i) {
      out.push_back(s.offset + static_cast<std::int64_t>(i));
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Basics and simple constructors
// ---------------------------------------------------------------------------

TEST(Datatype, BasicSizes) {
  EXPECT_EQ(Datatype::byte().size(), 1u);
  EXPECT_EQ(Datatype::int32().size(), 4u);
  EXPECT_EQ(Datatype::float64().size(), 8u);
  EXPECT_EQ(Datatype::int32().extent(), 4);
  EXPECT_TRUE(Datatype::int32().is_contiguous());
}

TEST(Datatype, ContiguousOfContiguousStaysContiguous) {
  auto t = Datatype::contiguous(10, Datatype::int32());
  EXPECT_EQ(t.size(), 40u);
  EXPECT_EQ(t.extent(), 40);
  EXPECT_TRUE(t.is_contiguous());
  auto t2 = Datatype::contiguous(3, t);
  EXPECT_EQ(t2.size(), 120u);
  EXPECT_TRUE(t2.is_contiguous());
  std::vector<Segment> segs;
  t2.flatten(segs);
  ASSERT_EQ(segs.size(), 1u);
  EXPECT_EQ(segs[0], (Segment{0, 120}));
}

TEST(Datatype, VectorProducesStridedRuns) {
  // 3 blocks of 2 int32 every 4 int32: |XX..|XX..|XX
  auto t = Datatype::vector(3, 2, 4, Datatype::int32());
  EXPECT_EQ(t.size(), 24u);
  EXPECT_FALSE(t.is_contiguous());
  std::vector<Segment> segs;
  t.flatten(segs);
  ASSERT_EQ(segs.size(), 3u);
  EXPECT_EQ(segs[0], (Segment{0, 8}));
  EXPECT_EQ(segs[1], (Segment{16, 8}));
  EXPECT_EQ(segs[2], (Segment{32, 8}));
  // extent covers first byte to last byte of the last block
  EXPECT_EQ(t.extent(), 4 * 4 * 2 + 8);
}

TEST(Datatype, VectorWithUnitStrideCoalesces) {
  auto t = Datatype::vector(4, 1, 1, Datatype::int32());
  std::vector<Segment> segs;
  t.flatten(segs);
  ASSERT_EQ(segs.size(), 1u);
  EXPECT_EQ(segs[0], (Segment{0, 16}));
  EXPECT_TRUE(t.is_contiguous());
}

TEST(Datatype, HvectorByteStride) {
  auto t = Datatype::hvector(2, 3, 100, Datatype::byte());
  std::vector<Segment> segs;
  t.flatten(segs);
  ASSERT_EQ(segs.size(), 2u);
  EXPECT_EQ(segs[0], (Segment{0, 3}));
  EXPECT_EQ(segs[1], (Segment{100, 3}));
}

TEST(Datatype, IndexedBlocks) {
  const std::array<std::uint32_t, 3> lens = {2, 1, 3};
  const std::array<std::int32_t, 3> displs = {0, 5, 10};
  auto t = Datatype::indexed(lens, displs, Datatype::int32());
  EXPECT_EQ(t.size(), 24u);
  std::vector<Segment> segs;
  t.flatten(segs);
  ASSERT_EQ(segs.size(), 3u);
  EXPECT_EQ(segs[0], (Segment{0, 8}));
  EXPECT_EQ(segs[1], (Segment{20, 4}));
  EXPECT_EQ(segs[2], (Segment{40, 12}));
}

TEST(Datatype, StructOfMixedTypes) {
  // struct { int32 a; double b[2]; char c; } with explicit displacements.
  const std::array<std::uint32_t, 3> lens = {1, 2, 1};
  const std::array<std::int64_t, 3> displs = {0, 8, 24};
  const std::array<Datatype, 3> types = {Datatype::int32(),
                                         Datatype::float64(),
                                         Datatype::byte()};
  auto t = Datatype::struct_of(lens, displs, types);
  EXPECT_EQ(t.size(), 4u + 16u + 1u);
  std::vector<Segment> segs;
  t.flatten(segs);
  // The doubles end at byte 24 where the char starts, so those runs coalesce.
  ASSERT_EQ(segs.size(), 2u);
  EXPECT_EQ(segs[0], (Segment{0, 4}));
  EXPECT_EQ(segs[1], (Segment{8, 17}));
}

TEST(Datatype, ResizedChangesExtentNotSize) {
  auto t = Datatype::resized(Datatype::int32(), 0, 16);
  EXPECT_EQ(t.size(), 4u);
  EXPECT_EQ(t.extent(), 16);
  EXPECT_FALSE(t.is_contiguous());
  // Tiling 3 elements: offsets 0, 16, 32.
  auto segs = t.flatten_n(3);
  ASSERT_EQ(segs.size(), 3u);
  EXPECT_EQ(segs[1].offset, 16);
  EXPECT_EQ(segs[2].offset, 32);
}

// ---------------------------------------------------------------------------
// Subarray
// ---------------------------------------------------------------------------

TEST(Datatype, Subarray2dExtractsBlock) {
  // 4x6 int32 array, take the 2x3 block starting at (1,2).
  const std::array<std::uint32_t, 2> sizes = {4, 6};
  const std::array<std::uint32_t, 2> subsizes = {2, 3};
  const std::array<std::uint32_t, 2> starts = {1, 2};
  auto t = Datatype::subarray(sizes, subsizes, starts, Datatype::int32());
  EXPECT_EQ(t.size(), 2u * 3u * 4u);
  EXPECT_EQ(t.extent(), 4 * 6 * 4);  // full array
  std::vector<Segment> segs;
  t.flatten(segs);
  ASSERT_EQ(segs.size(), 2u);
  // Row 1, cols 2..4 -> offset (1*6+2)*4 = 32, len 12.
  EXPECT_EQ(segs[0], (Segment{32, 12}));
  // Row 2, cols 2..4 -> offset (2*6+2)*4 = 56, len 12.
  EXPECT_EQ(segs[1], (Segment{56, 12}));
}

TEST(Datatype, Subarray1dDegeneratesToOffsetRun) {
  const std::array<std::uint32_t, 1> sizes = {10};
  const std::array<std::uint32_t, 1> subsizes = {4};
  const std::array<std::uint32_t, 1> starts = {3};
  auto t = Datatype::subarray(sizes, subsizes, starts, Datatype::float64());
  std::vector<Segment> segs;
  t.flatten(segs);
  ASSERT_EQ(segs.size(), 1u);
  EXPECT_EQ(segs[0], (Segment{24, 32}));
  EXPECT_EQ(t.extent(), 80);
}

TEST(Datatype, Subarray3dRunCount) {
  const std::array<std::uint32_t, 3> sizes = {4, 4, 8};
  const std::array<std::uint32_t, 3> subsizes = {2, 2, 8};
  const std::array<std::uint32_t, 3> starts = {1, 1, 0};
  auto t = Datatype::subarray(sizes, subsizes, starts, Datatype::byte());
  std::vector<Segment> segs;
  t.flatten(segs);
  // Full rows in the last dimension coalesce: 2*2 runs of 8... but rows at
  // (r, 1..2, 0..7) with the dim-1 rows adjacent? Row (r,1,*) spans bytes
  // [r*32+8, r*32+24) — 16 contiguous bytes per r. So 2 runs of 16.
  ASSERT_EQ(segs.size(), 2u);
  EXPECT_EQ(segs[0].len, 16u);
  EXPECT_EQ(segs[1].len, 16u);
  EXPECT_EQ(t.size(), 32u);
}

TEST(Datatype, SubarrayTilesAtFullArrayExtent) {
  // Tiling a subarray across elements must step by the full array size —
  // this is what makes block-distributed file views work.
  const std::array<std::uint32_t, 1> sizes = {8};
  const std::array<std::uint32_t, 1> subsizes = {2};
  const std::array<std::uint32_t, 1> starts = {2};
  auto t = Datatype::subarray(sizes, subsizes, starts, Datatype::int32());
  auto segs = t.flatten_n(3);
  ASSERT_EQ(segs.size(), 3u);
  EXPECT_EQ(segs[0].offset, 8);
  EXPECT_EQ(segs[1].offset, 8 + 32);
  EXPECT_EQ(segs[2].offset, 8 + 64);
}

// ---------------------------------------------------------------------------
// Composition
// ---------------------------------------------------------------------------

TEST(Datatype, VectorOfStructs) {
  const std::array<std::uint32_t, 2> lens = {1, 1};
  const std::array<std::int64_t, 2> displs = {0, 6};
  const std::array<Datatype, 2> types = {Datatype::int32(), Datatype::byte()};
  auto rec = Datatype::struct_of(lens, displs, types);
  auto rec8 = Datatype::resized(rec, 0, 8);
  auto t = Datatype::vector(2, 1, 2, rec8);  // every other record
  std::vector<Segment> segs;
  t.flatten(segs);
  ASSERT_EQ(segs.size(), 4u);
  EXPECT_EQ(segs[0], (Segment{0, 4}));
  EXPECT_EQ(segs[1], (Segment{6, 1}));
  EXPECT_EQ(segs[2], (Segment{16, 4}));
  EXPECT_EQ(segs[3], (Segment{22, 1}));
}

TEST(Datatype, SizeIsAlwaysSumOfFlattenedRuns) {
  // Property across a family of composed types.
  sim::Rng rng(42);
  for (int iter = 0; iter < 50; ++iter) {
    Datatype t = Datatype::basic(1 + static_cast<std::uint32_t>(rng.below(8)));
    for (int depth = 0; depth < 3; ++depth) {
      switch (rng.below(4)) {
        case 0:
          t = Datatype::contiguous(1 + static_cast<std::uint32_t>(rng.below(4)), t);
          break;
        case 1: {
          // Keep stride >= blocklen so the type map stays non-overlapping
          // (overlap is legal MPI but defeats the disjointness property
          // this sweep checks).
          const auto blocklen = 1 + static_cast<std::uint32_t>(rng.below(3));
          const auto stride =
              static_cast<std::int32_t>(blocklen + rng.below(3));
          t = Datatype::vector(1 + static_cast<std::uint32_t>(rng.below(3)),
                               blocklen, stride, t);
          break;
        }
        case 2: {
          const std::array<std::uint32_t, 2> lens = {
              1 + static_cast<std::uint32_t>(rng.below(3)),
              1 + static_cast<std::uint32_t>(rng.below(3))};
          const std::array<std::int32_t, 2> displs = {
              0, 4 + static_cast<std::int32_t>(rng.below(4))};
          t = Datatype::indexed(lens, displs, t);
          break;
        }
        case 3:
          t = Datatype::resized(t, 0, t.extent() + static_cast<std::int64_t>(
                                                       rng.below(16)));
          break;
      }
    }
    std::vector<Segment> segs;
    t.flatten(segs);
    EXPECT_EQ(total_len(segs), t.size());
    // Runs must be disjoint and sorted for these constructions.
    auto offs = offsets_of(segs);
    for (std::size_t i = 1; i < offs.size(); ++i) {
      EXPECT_LT(offs[i - 1], offs[i]);
    }
  }
}

// ---------------------------------------------------------------------------
// Pack / unpack
// ---------------------------------------------------------------------------

TEST(Datatype, PackUnpackRoundTripStrided) {
  auto t = Datatype::vector(4, 2, 3, Datatype::int32());
  std::vector<std::int32_t> src(64);
  std::iota(src.begin(), src.end(), 0);
  std::vector<std::byte> packed;
  t.pack(reinterpret_cast<const std::byte*>(src.data()), 2, packed);
  EXPECT_EQ(packed.size(), 2 * t.size());

  std::vector<std::int32_t> dst(64, -1);
  const std::uint64_t used =
      t.unpack(packed, reinterpret_cast<std::byte*>(dst.data()), 2);
  EXPECT_EQ(used, packed.size());
  // Every position covered by the type matches; others untouched.
  const auto segs = t.flatten_n(2);
  std::vector<bool> covered(64 * 4, false);
  for (const auto& s : segs) {
    for (std::uint64_t b = 0; b < s.len; ++b) {
      covered[static_cast<std::size_t>(s.offset) + b] = true;
    }
  }
  for (std::size_t i = 0; i < dst.size(); ++i) {
    if (covered[i * 4]) {
      EXPECT_EQ(dst[i], src[i]) << i;
    } else {
      EXPECT_EQ(dst[i], -1) << i;
    }
  }
}

TEST(Datatype, UnpackClampsToInput) {
  auto t = Datatype::contiguous(10, Datatype::byte());
  std::array<std::byte, 4> in = {std::byte{1}, std::byte{2}, std::byte{3},
                                 std::byte{4}};
  std::array<std::byte, 10> out{};
  EXPECT_EQ(t.unpack(in, out.data(), 1), 4u);
  EXPECT_EQ(out[3], std::byte{4});
  EXPECT_EQ(out[4], std::byte{0});
}

// ---------------------------------------------------------------------------
// Parameterized: tiling invariants for vector types
// ---------------------------------------------------------------------------

struct VecParam {
  std::uint32_t count, blocklen;
  std::int32_t stride;
};

class VectorTiling : public ::testing::TestWithParam<VecParam> {};

TEST_P(VectorTiling, FlattenNEqualsRepeatedFlatten) {
  const auto p = GetParam();
  auto t = Datatype::vector(p.count, p.blocklen, p.stride, Datatype::int32());
  auto tiled = t.flatten_n(4);
  std::vector<Segment> manual;
  for (int i = 0; i < 4; ++i) {
    t.flatten(manual, i * t.extent());
  }
  EXPECT_EQ(offsets_of(tiled), offsets_of(manual));
  EXPECT_EQ(total_len(tiled), 4 * t.size());
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, VectorTiling,
    ::testing::Values(VecParam{1, 1, 1}, VecParam{2, 1, 2}, VecParam{3, 2, 5},
                      VecParam{4, 4, 4}, VecParam{5, 3, 7},
                      VecParam{8, 1, 3}));


// ---------------------------------------------------------------------------
// darray (MPI_Type_create_darray)
// ---------------------------------------------------------------------------

using Dist = Datatype::Dist;

/// Brute-force reference: enumerate every element of the global array and
/// decide its owner by the standard block/cyclic formulas.
std::vector<std::int64_t> darray_reference(
    int rank, std::span<const std::uint32_t> gsizes,
    std::span<const Dist> dists, std::span<const std::int32_t> dargs,
    std::span<const std::uint32_t> psizes, std::uint32_t esize) {
  const std::size_t nd = gsizes.size();
  std::vector<std::uint32_t> coord(nd);
  {
    std::uint32_t rem = static_cast<std::uint32_t>(rank);
    for (std::size_t d = nd; d-- > 0;) {
      coord[d] = rem % psizes[d];
      rem /= psizes[d];
    }
  }
  auto owns = [&](std::size_t d, std::uint32_t idx) {
    switch (dists[d]) {
      case Dist::kNone:
        return true;
      case Dist::kBlock: {
        const std::uint32_t b = dargs[d] == Datatype::kDfltDarg
                                    ? (gsizes[d] + psizes[d] - 1) / psizes[d]
                                    : static_cast<std::uint32_t>(dargs[d]);
        return idx / b == coord[d];
      }
      case Dist::kCyclic: {
        const std::uint32_t b = dargs[d] == Datatype::kDfltDarg
                                    ? 1u
                                    : static_cast<std::uint32_t>(dargs[d]);
        return (idx / b) % psizes[d] == coord[d];
      }
    }
    return false;
  };
  std::uint64_t total = 1;
  for (auto g : gsizes) total *= g;
  std::vector<std::int64_t> offsets;
  for (std::uint64_t lin = 0; lin < total; ++lin) {
    std::uint64_t rem = lin;
    bool mine = true;
    for (std::size_t d = nd; d-- > 0;) {
      const auto idx = static_cast<std::uint32_t>(rem % gsizes[d]);
      rem /= gsizes[d];
      if (!owns(d, idx)) {
        mine = false;
        break;
      }
    }
    if (mine) {
      for (std::uint32_t b = 0; b < esize; ++b) {
        offsets.push_back(static_cast<std::int64_t>(lin * esize + b));
      }
    }
  }
  return offsets;
}

struct DarrayCase {
  std::vector<std::uint32_t> gsizes;
  std::vector<Dist> dists;
  std::vector<std::int32_t> dargs;
  std::vector<std::uint32_t> psizes;
  std::uint32_t esize;
};

// Prints a case by value, HPF style: "6x8 block,cyclic(2) on 2x2 esize 2".
// Without this gtest dumps the raw struct bytes, which include the vectors'
// heap pointers, and test discovery then names each case after addresses
// that change from run to run.
void PrintTo(const DarrayCase& c, std::ostream* os) {
  auto dims = [os](const std::vector<std::uint32_t>& v) {
    for (std::size_t i = 0; i < v.size(); ++i) *os << (i ? "x" : "") << v[i];
  };
  dims(c.gsizes);
  for (std::size_t i = 0; i < c.dists.size(); ++i) {
    const Dist d = c.dists[i];
    *os << (i ? "," : " ")
        << (d == Dist::kBlock ? "block" : d == Dist::kCyclic ? "cyclic" : "none");
    if (c.dargs[i] != Datatype::kDfltDarg) *os << "(" << c.dargs[i] << ")";
  }
  *os << " on ";
  dims(c.psizes);
  *os << " esize " << c.esize;
}

class DarrayVsReference : public ::testing::TestWithParam<DarrayCase> {};

TEST_P(DarrayVsReference, EveryRankMatchesBruteForce) {
  const auto& p = GetParam();
  auto etype = Datatype::basic(p.esize);
  std::uint32_t nprocs = 1;
  for (auto ps : p.psizes) nprocs *= ps;
  std::uint64_t covered = 0;
  std::uint64_t total_bytes = p.esize;
  for (auto g : p.gsizes) total_bytes *= g;
  for (std::uint32_t r = 0; r < nprocs; ++r) {
    auto t = Datatype::darray(static_cast<int>(r), p.gsizes, p.dists, p.dargs,
                              p.psizes, etype);
    EXPECT_EQ(t.extent(), static_cast<std::int64_t>(total_bytes));
    std::vector<Segment> segs;
    t.flatten(segs);
    const auto got = offsets_of(segs);
    const auto expect = darray_reference(static_cast<int>(r), p.gsizes,
                                         p.dists, p.dargs, p.psizes, p.esize);
    EXPECT_EQ(got, expect) << "rank " << r;
    covered += t.size();
    // Owned bytes are disjoint and sorted.
    for (std::size_t i = 1; i < got.size(); ++i) {
      ASSERT_LT(got[i - 1], got[i]);
    }
  }
  // When every dimension's blocks tile the array exactly, ranks partition it.
  EXPECT_EQ(covered, total_bytes);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, DarrayVsReference,
    ::testing::Values(
        // 1-D block over 4 procs, divisible.
        DarrayCase{{16}, {Dist::kBlock}, {Datatype::kDfltDarg}, {4}, 4},
        // 1-D pure cyclic.
        DarrayCase{{12}, {Dist::kCyclic}, {Datatype::kDfltDarg}, {3}, 8},
        // 1-D block-cyclic with explicit block 2.
        DarrayCase{{16}, {Dist::kCyclic}, {2}, {4}, 1},
        // 2-D block x block (the HPF default decomposition).
        DarrayCase{{8, 8},
                   {Dist::kBlock, Dist::kBlock},
                   {Datatype::kDfltDarg, Datatype::kDfltDarg},
                   {2, 2},
                   4},
        // 2-D block x cyclic mix.
        DarrayCase{{6, 8},
                   {Dist::kBlock, Dist::kCyclic},
                   {Datatype::kDfltDarg, 2},
                   {2, 2},
                   2},
        // 3-D with an undistributed middle dimension.
        DarrayCase{{4, 3, 8},
                   {Dist::kCyclic, Dist::kNone, Dist::kBlock},
                   {Datatype::kDfltDarg, Datatype::kDfltDarg,
                    Datatype::kDfltDarg},
                   {2, 1, 2},
                   1}));

TEST(DatatypeDarray, UnevenBlockEdgeRanksGetShortOrEmptyPieces) {
  // 10 elements, block over 4 procs: default block = ceil(10/4) = 3 ->
  // ranks own 3,3,3,1 elements.
  const std::array<std::uint32_t, 1> gsizes = {10};
  const std::array<Dist, 1> dists = {Dist::kBlock};
  const std::array<std::int32_t, 1> dargs = {Datatype::kDfltDarg};
  const std::array<std::uint32_t, 1> psizes = {4};
  std::uint64_t covered = 0;
  for (int r = 0; r < 4; ++r) {
    auto t = Datatype::darray(r, gsizes, dists, dargs, psizes,
                              Datatype::int32());
    covered += t.size() / 4;
  }
  EXPECT_EQ(covered, 10u);
  auto last = Datatype::darray(3, gsizes, dists, dargs, psizes,
                               Datatype::int32());
  EXPECT_EQ(last.size(), 4u);  // one int
  std::vector<Segment> segs;
  last.flatten(segs);
  ASSERT_EQ(segs.size(), 1u);
  EXPECT_EQ(segs[0].offset, 9 * 4);
}

}  // namespace
